// The candidate set: unpruned objects with their distance distributions,
// probability bounds and labels (paper §III-B).
#ifndef PVERIFY_CORE_CANDIDATE_H_
#define PVERIFY_CORE_CANDIDATE_H_

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "uncertain/distance2d.h"
#include "uncertain/distance_distribution.h"
#include "uncertain/uncertain_object.h"

namespace pverify {

/// One member of the candidate set.
struct Candidate {
  ObjectId id = 0;
  DistanceDistribution dist;
  ProbabilityBound bound;
  Label label = Label::kUnknown;
};

class CandidateSet;

/// Recycled candidate-construction storage, owned by a QueryScratch: the
/// CandidateSet items buffer, per-candidate distance-distribution storage
/// and the work buffers the distribution builders fold into. Construction
/// borrows the storage and ExecuteOnCandidates returns it, so a steady-state
/// query stream builds its candidate sets without touching the allocator.
/// Answers are bit-identical with or without an arena — only where the
/// buffers live changes, never the arithmetic.
struct CandidateArena {
  CandidateArena() = default;
  CandidateArena(const CandidateArena&) = delete;
  CandidateArena& operator=(const CandidateArena&) = delete;

  /// Pops a recycled distribution, in no particular order (or returns a
  /// fresh one when the pool is empty). A distribution's buffers only grow,
  /// and once the pool holds the largest per-query demand every take is
  /// served from it, so the pooled capacities converge to the workload's
  /// high-water mark without ordering the pool.
  DistanceDistribution TakeDistribution();

  /// Returns one distribution's storage to the pool (subject to the demand
  /// cap, see Recycle).
  void RecycleDistribution(DistanceDistribution&& dist);

  /// Returns a finished candidate set's storage (items buffer and every
  /// remaining distribution) to the arena. The distribution pool is capped
  /// at the largest per-query TakeDistribution demand seen so far, so
  /// query paths that recycle without arena-backed construction (external
  /// kCandidates payloads) do not grow the pool unboundedly — their
  /// distributions are simply freed.
  void Recycle(CandidateSet&& set);

  /// Approximate heap footprint of all pooled storage (capacity, not size).
  size_t ApproxBytes() const;

  /// Recycled items buffer handed to the next CandidateSet construction.
  std::vector<Candidate> items;
  /// Recycled per-candidate distribution storage, unordered.
  std::vector<DistanceDistribution> spare;
  /// Breakpoint / piece-value work buffers for distribution builds.
  std::vector<double> work_breaks;
  std::vector<double> work_values;
  /// Split-point workspace of the 2-D radial-cdf batched scan.
  std::vector<double> work_cuts;
  /// Far-point workspace for the k-aware pruning rule.
  std::vector<double> work_fars;
  /// TakeDistribution calls since the last Recycle, and the largest such
  /// demand ever seen — the pool's size cap.
  size_t pending_takes = 0;
  size_t spare_cap = 0;
};

/// Candidate set C, ordered by ascending near point (the paper's X_1..X_|C|
/// renaming). Construction computes every member's distance pdf/cdf — the
/// initialization step of the verification framework (Fig. 5).
class CandidateSet {
 public:
  CandidateSet() = default;

  /// Builds from 1-D objects: computes distance distributions w.r.t. q,
  /// drops objects that provably cannot be among the k nearest neighbors
  /// (near point beyond the k-th smallest far point; k = 1 for a plain
  /// PNN), and sorts by near point. A non-null `arena` lends reusable
  /// construction storage; the result is bit-identical either way.
  static CandidateSet Build1D(const Dataset& dataset,
                              const std::vector<uint32_t>& candidate_indices,
                              double q, int k = 1,
                              CandidateArena* arena = nullptr);

  /// Builds from 2-D objects: radial-cdf distance distributions w.r.t. q at
  /// `radial_pieces` resolution, then the same pruning/ordering as Build1D.
  static CandidateSet Build2D(const Dataset2D& dataset,
                              const std::vector<uint32_t>& candidate_indices,
                              Point2 q, int radial_pieces, int k = 1,
                              CandidateArena* arena = nullptr);

  /// Builds from pre-computed distance distributions (used by tests and
  /// examples that hand-craft their candidates).
  static CandidateSet FromDistances(
      std::vector<std::pair<ObjectId, DistanceDistribution>> dists, int k = 1);

  /// Incremental construction, for callers that gather one set from several
  /// datasets (the sharded engine's shards): Begin borrows the arena's
  /// items buffer, Add1D / Add2D append one object's distance distribution,
  /// and Finish prunes and orders the set. Build1D and Build2D are exactly
  /// these steps over one dataset. The finished set does not depend on the
  /// order objects were added in (the ordering is total on (near, id)).
  static CandidateSet Begin(CandidateArena* arena = nullptr);
  void Add1D(const UncertainObject& obj, double q,
             CandidateArena* arena = nullptr);
  void Add2D(const UncertainObject2D& obj, Point2 q, int radial_pieces,
             CandidateArena* arena = nullptr);
  void Finish(int k = 1, CandidateArena* arena = nullptr);

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  Candidate& operator[](size_t i) { return items_[i]; }
  const Candidate& operator[](size_t i) const { return items_[i]; }

  std::vector<Candidate>& items() { return items_; }
  const std::vector<Candidate>& items() const { return items_; }

  /// Minimum far point f_min over the candidate set (+inf when empty).
  double fmin() const { return fmin_; }
  /// Maximum far point f_max over the candidate set (−inf when empty).
  double fmax() const { return fmax_; }

  /// IDs of candidates currently labeled kSatisfy.
  std::vector<ObjectId> SatisfyingIds() const;

 private:
  std::vector<Candidate> items_;
  double fmin_ = 0.0;
  double fmax_ = 0.0;
};

}  // namespace pverify

#endif  // PVERIFY_CORE_CANDIDATE_H_
