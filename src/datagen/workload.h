// Query workloads: randomly generated query points, averaged over a batch of
// queries exactly like the paper ("Each point in the graph is an average of
// the results for 100 queries").
#ifndef PVERIFY_DATAGEN_WORKLOAD_H_
#define PVERIFY_DATAGEN_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "core/query.h"
#include "core/query2d.h"
#include "uncertain/uncertain_object.h"

namespace pverify {
namespace datagen {

/// Uniformly random query points over [lo, hi].
std::vector<double> MakeQueryPoints(size_t count, double lo, double hi,
                                    uint64_t seed = 101);

/// Uniformly random 2-D query points over [lo, hi] × [lo, hi] — the
/// synthetic 2-D workload generator (pairs with MakeSynthetic2D).
std::vector<Point2> MakeQueryPoints2D(size_t count, double lo, double hi,
                                      uint64_t seed = 103);

/// Zipf-skewed hot-spot workload configuration. `num_hotspots` centers are
/// drawn uniformly over the domain from the same seed as the points, and
/// hotspot rank h is chosen with probability ∝ 1/(h+1)^exponent — the
/// classic Zipf law, so the hottest center absorbs a constant fraction of
/// all queries regardless of the hotspot count. Each query point scatters
/// around its chosen center with a Gaussian of stddev
/// `spread_fraction`·(hi − lo), clamped into the domain.
struct ZipfConfig {
  size_t num_hotspots = 16;
  double exponent = 1.0;          ///< 0 degenerates to uniform-over-hotspots
  double spread_fraction = 0.01;  ///< stddev as a fraction of the domain
};

/// Zipf-skewed query points over [lo, hi]. Models the repeated-hot-region
/// access pattern of real query logs: most queries probe a few small
/// regions (stressing the same candidate sets over and over), a long tail
/// probes everywhere.
std::vector<double> MakeQueryPointsZipf(size_t count, double lo, double hi,
                                        const ZipfConfig& config = {},
                                        uint64_t seed = 107);

/// 2-D counterpart of MakeQueryPointsZipf: hotspot centers are uniform over
/// the square, scatter is an isotropic Gaussian, both coordinates clamped.
std::vector<Point2> MakeQueryPointsZipf2D(size_t count, double lo, double hi,
                                          const ZipfConfig& config = {},
                                          uint64_t seed = 109);

/// Aggregated outcome of running a workload with one strategy.
struct WorkloadResult {
  QueryStats totals;          ///< accumulated stats (AccumulateInto)
  size_t queries = 0;
  size_t answers = 0;         ///< total number of returned object ids

  double AvgTotalMs() const { return queries ? totals.total_ms / queries : 0; }
  double AvgFilterMs() const {
    return queries ? totals.filter_ms / queries : 0;
  }
  double AvgInitMs() const { return queries ? totals.init_ms / queries : 0; }
  double AvgVerifyMs() const {
    return queries ? totals.verify_ms / queries : 0;
  }
  double AvgRefineMs() const {
    return queries ? totals.refine_ms / queries : 0;
  }
  double AvgCandidates() const {
    return queries ? static_cast<double>(totals.candidates) / queries : 0;
  }
  double FractionFinishedAfterVerify() const {
    return queries ? static_cast<double>(
                         totals.queries_finished_after_verify) /
                         queries
                   : 0;
  }
};

/// Runs every query point through the executor with the given options.
WorkloadResult RunWorkload(const CpnnExecutor& executor,
                           const std::vector<double>& query_points,
                           const QueryOptions& options);

}  // namespace datagen
}  // namespace pverify

#endif  // PVERIFY_DATAGEN_WORKLOAD_H_
