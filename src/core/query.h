// The C-PNN query executor: ties together filtering, verification and
// refinement (paper Fig. 3) and exposes the three evaluation strategies
// compared in §V plus a Monte-Carlo baseline.
#ifndef PVERIFY_CORE_QUERY_H_
#define PVERIFY_CORE_QUERY_H_

#include <optional>
#include <string_view>
#include <vector>

#include "core/basic.h"
#include "core/knn.h"
#include "core/monte_carlo.h"
#include "core/refine.h"
#include "core/stats.h"
#include "spatial/filter.h"
#include "uncertain/uncertain_object.h"

namespace pverify {

struct QueryScratch;

/// How a C-PNN is evaluated.
enum class Strategy {
  kBasic,       ///< exact probabilities for every candidate ([5]'s formula)
  kRefine,      ///< incremental refinement only (no verifiers)
  kVR,          ///< verifiers + incremental refinement (the paper's method)
  kMonteCarlo,  ///< sampling baseline ([9]-style)
};

std::string_view ToString(Strategy s);

struct QueryOptions {
  CpnnParams params;
  Strategy strategy = Strategy::kVR;
  IntegrationOptions integration;
  RefineOrder refine_order = RefineOrder::kBySubregionProbability;
  MonteCarloOptions monte_carlo;
  /// When true, the answer carries each candidate's probability information
  /// (exact for kBasic/kMonteCarlo; final bounds otherwise).
  bool report_probabilities = false;
};

/// One returned object with its probability information.
struct AnswerEntry {
  ObjectId id = 0;
  ProbabilityBound bound;  ///< zero-width when the probability is exact
};

struct QueryAnswer {
  /// IDs of objects satisfying the C-PNN, ascending.
  std::vector<ObjectId> ids;
  QueryStats stats;
  /// Probability info for every candidate (not just answers); populated when
  /// QueryOptions::report_probabilities is set.
  std::vector<AnswerEntry> candidate_probabilities;
};

/// Executor over a fixed 1-D dataset; builds the R-tree once, then serves
/// any number of queries.
class CpnnExecutor {
 public:
  explicit CpnnExecutor(Dataset dataset);
  // Neither copyable nor movable: the filter points into dataset_.
  CpnnExecutor(const CpnnExecutor&) = delete;
  CpnnExecutor& operator=(const CpnnExecutor&) = delete;

  const Dataset& dataset() const { return dataset_; }

  /// Evaluates a C-PNN at query point q. A non-null `scratch` lends
  /// reusable verification buffers (see engine/scratch.h); answers are
  /// identical either way.
  QueryAnswer Execute(double q, const QueryOptions& options,
                      QueryScratch* scratch = nullptr) const;

  /// Plain PNN: exact qualification probability of every candidate
  /// (id, probability), ascending by id. Objects pruned by filtering have
  /// probability 0 and are omitted.
  std::vector<std::pair<ObjectId, double>> ComputePnn(
      double q, const IntegrationOptions& integration = {}) const;

  /// Runs only the filtering phase (exposed for benchmarks/tests).
  FilterResult Filter(double q) const { return filter_.Filter(q); }

  /// Runs only the k-NN filtering phase (the index's k-th-far-point
  /// filter; exposed for the sharded engine and tests).
  KnnFilterResult FilterK(double q, int k) const {
    return filter_.FilterK(q, k);
  }

  /// Constrained probabilistic k-NN (the §VI extension): k-th-far-point
  /// filtering, RS-style bound verification, progressive Poisson-binomial
  /// refinement.
  CknnAnswer ExecuteKnn(double q, int k, const CpnnParams& params,
                        const IntegrationOptions& integration = {}) const;

  /// Minimum query: objects likely to hold the smallest value. A PNN with
  /// q = −∞ (paper §I); evaluated at a query point below every region.
  QueryAnswer ExecuteMin(const QueryOptions& options,
                         QueryScratch* scratch = nullptr) const;

  /// Maximum query: objects likely to hold the largest value (q = +∞).
  QueryAnswer ExecuteMax(const QueryOptions& options,
                         QueryScratch* scratch = nullptr) const;

 private:
  Dataset dataset_;
  PnnFilter filter_;
  double domain_lo_ = 0.0;  ///< smallest region endpoint in the dataset
  double domain_hi_ = 0.0;  ///< largest region endpoint in the dataset
};

/// Evaluates a C-PNN over an already-built candidate set (no filtering).
/// This is the entry point for the 2-D pipeline and for tests that
/// construct distance distributions directly. A non-null `scratch` lends
/// reusable verification buffers.
QueryAnswer ExecuteOnCandidates(CandidateSet candidates,
                                const QueryOptions& options,
                                QueryScratch* scratch = nullptr);

}  // namespace pverify

#endif  // PVERIFY_CORE_QUERY_H_
