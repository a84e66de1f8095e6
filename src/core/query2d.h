// First-class 2-D C-PNN execution: the paper's §IV-A extension hook made
// concrete. The executor owns a 2-D R-tree for filtering, converts surviving
// regions into distance distributions via exact geometry, and feeds them to
// the same verification/refinement machinery as the 1-D case.
//
// The stages — filter → distance distributions → verification — are the
// shared core pipeline (PnnFilter2D, CandidateSet::Build2D,
// ExecuteOnCandidates), so the engine layer hosts 2-D point requests
// natively: a QueryEngine routes QueryKind::kPoint2D through this executor
// with its per-worker QueryScratch, and the scratch's candidate arena makes
// the per-query distribution allocations disappear.
#ifndef PVERIFY_CORE_QUERY2D_H_
#define PVERIFY_CORE_QUERY2D_H_

#include <utility>
#include <vector>

#include "core/query.h"
#include "uncertain/distance2d.h"

namespace pverify {

/// Radial-cdf resolution of the engines' 2-D pipeline (per object, per
/// query).
inline constexpr int kRadialPieces = 64;

/// Executor over a fixed 2-D dataset of uniform-pdf rectangles and disks.
class CpnnExecutor2D {
 public:
  /// `radial_pieces` controls the resolution of the radial-cdf
  /// discretization (per object, per query).
  explicit CpnnExecutor2D(Dataset2D dataset,
                          int radial_pieces = kRadialPieces);

  const Dataset2D& dataset() const { return dataset_; }
  int radial_pieces() const { return radial_pieces_; }

  /// Evaluates a C-PNN at query point q. A non-null `scratch` lends
  /// reusable candidate/verification buffers (see engine/scratch.h);
  /// answers are bit-identical either way.
  QueryAnswer Execute(Point2 q, const QueryOptions& options,
                      QueryScratch* scratch = nullptr) const;

  /// Exact qualification probability of every candidate (id, probability).
  std::vector<std::pair<ObjectId, double>> ComputePnn(
      Point2 q, const IntegrationOptions& integration = {}) const;

  /// Constrained probabilistic k-NN at a 2-D query point: k-th-far-point
  /// filtering over exact region distances, then the same RS-style bound +
  /// progressive Poisson-binomial refinement as the 1-D ExecuteKnn (the
  /// radial distance distributions plug straight into the k-NN verifier
  /// machinery).
  CknnAnswer ExecuteKnn(Point2 q, int k, const CpnnParams& params,
                        const IntegrationOptions& integration = {}) const;

  /// Filtering phase only.
  FilterResult Filter(Point2 q) const { return filter_.Filter(q); }

  /// k-NN filtering phase only (the index's k-th-far-point filter).
  KnnFilterResult FilterK(Point2 q, int k) const {
    return filter_.FilterK(q, k);
  }

 private:
  /// Filter + distance-distribution stages: the candidate set the
  /// verification stage runs on.
  CandidateSet BuildCandidates(Point2 q, QueryScratch* scratch = nullptr)
      const;

  Dataset2D dataset_;
  PnnFilter2D filter_;
  int radial_pieces_;
};

}  // namespace pverify

#endif  // PVERIFY_CORE_QUERY2D_H_
