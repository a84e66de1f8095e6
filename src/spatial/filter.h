// The filtering phase of the C-PNN framework (paper Fig. 3, first stage;
// technique of [8]).
//
// Objects whose minimum distance from q exceeds f_min — the smallest maximum
// distance of any object — can never be the nearest neighbor and are pruned
// with zero I/O over their pdfs. The survivors form the candidate set that
// verification operates on. The k-NN extension replaces f_min with f^(k),
// the k-th smallest far point.
#ifndef PVERIFY_SPATIAL_FILTER_H_
#define PVERIFY_SPATIAL_FILTER_H_

#include <cstdint>
#include <vector>

#include "spatial/rtree.h"
#include "uncertain/distance2d.h"
#include "uncertain/uncertain_object.h"

namespace pverify {

/// Numerical slack used when comparing MINDIST against f_min: f_min is a
/// distance to a real object, so boundary objects (n_i == f_min) stay in the
/// candidate set, matching the zero-probability-but-unpruned convention.
/// Exposed so scatter/gather engines can reproduce the filter's cut exactly.
inline constexpr double kFilterBoundarySlack = 1e-12;

/// Result of the filtering phase.
struct FilterResult {
  /// f_min: minimum over all objects of MAXDIST(q, object).
  double fmin = 0.0;
  /// Indices (into the dataset) of objects with MINDIST <= f_min, i.e. the
  /// candidate set C.
  std::vector<uint32_t> candidates;
};

/// Result of the indexed k-NN filter: the cut and candidates, plus each
/// candidate's far point (MaxDist) and near point (MinDist) as the filter
/// computed them, parallel to `candidates`, for callers that re-cut the
/// candidates (the sharded k-NN scatter).
struct KnnFilterResult : FilterResult {
  std::vector<double> fars;
  std::vector<double> nears;
};

/// Index over a 1-D dataset for repeated PNN filtering.
class PnnFilter {
 public:
  /// Builds an STR-bulk-loaded R-tree over the objects' intervals.
  explicit PnnFilter(const Dataset& dataset);

  /// Runs the filtering phase for query point q.
  FilterResult Filter(double q) const;

  /// k-NN filtering from the index: fmin is f^(k), the k-th smallest far
  /// point (the largest one when k exceeds the dataset), and candidates are
  /// the objects whose near point does not exceed it (+ the boundary
  /// slack), ascending. The result equals FilterKByScan's bit for bit.
  ///
  /// The k entries nearest to q by MINDIST (best-first) all lie within the
  /// largest of their far points U, so f^(k) <= U. Every object with far
  /// point <= U has near point <= U as well, so one ball probe of radius U
  /// (+ slack) returns a superset of both the objects that rank f^(k) and
  /// the candidates; the objects' own MinDist/MaxDist then cut it exactly,
  /// with the scan's arithmetic. A q that is not a number gives a NaN
  /// fmin and no candidates, as the scan does.
  KnnFilterResult FilterK(double q, int k) const;

  const RTree<1, uint32_t>& rtree() const { return rtree_; }

 private:
  RTree<1, uint32_t> rtree_;
  const Dataset* dataset_;  // not owned
};

/// Index over a 2-D dataset for repeated PNN filtering.
class PnnFilter2D {
 public:
  explicit PnnFilter2D(const Dataset2D& dataset);

  FilterResult Filter(Point2 q) const;

  /// 2-D k-NN filtering from the index over exact region distances
  /// (UncertainObject2D::MinDist/MaxDist); equals FilterKByScan2D's result
  /// bit for bit (see PnnFilter::FilterK).
  KnnFilterResult FilterK(Point2 q, int k) const;

 private:
  RTree<2, uint32_t> rtree_;
  const Dataset2D* dataset_;  // not owned
};

/// The test oracle: the k-th-far-point filter as a linear scan over the
/// dataset — fmin is the k-th smallest far point (UncertainObject::MaxDist)
/// and candidates are the objects whose near point does not exceed it,
/// ascending. k = 1 is the plain PNN filter. No query path calls it; tests
/// and the benchmark's answer oracle check the indexed filters against it.
FilterResult FilterKByScan(const Dataset& dataset, double q, int k);

/// 2-D test oracle: the same rule over exact region distances
/// (UncertainObject2D::MinDist/MaxDist).
FilterResult FilterKByScan2D(const Dataset2D& dataset, Point2 q, int k);

}  // namespace pverify

#endif  // PVERIFY_SPATIAL_FILTER_H_
