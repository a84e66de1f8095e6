// Per-shard domain-bound helpers for scatter/gather query planning.
//
// A sharded engine prunes shards with interval arithmetic over each shard's
// domain bounds (the MBR of its objects' uncertainty intervals). Exactness
// matters: the sharded path must produce bit-identical answers to the
// unsharded one, so every bound here is computed with the *same floating
// point pipeline* as the per-object quantity it prunes against — the
// Mbr-based (sqrt) forms mirror the R-tree filter's entry metrics, the
// interval (plain) forms mirror UncertainObject::MinDist/MaxDist. Because
// an object's interval is contained in its shard's bounds and every
// operation involved is monotone under rounding, shard-level distances
// never exceed object-level ones within the same pipeline, which makes the
// pruning exact rather than merely approximate.
#ifndef PVERIFY_SPATIAL_BOUNDS_H_
#define PVERIFY_SPATIAL_BOUNDS_H_

#include <limits>

#include "spatial/mbr.h"
#include "uncertain/distance2d.h"
#include "uncertain/uncertain_object.h"

namespace pverify {

/// 1-D domain bounds of a dataset: the MBR of every uncertainty interval.
struct DomainBounds {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();

  bool empty() const { return lo > hi; }
};

/// Bounds of a dataset, accumulated in dataset order (the same loop shape
/// CpnnExecutor uses for its domain, so the values agree bitwise).
DomainBounds ComputeDomainBounds(const Dataset& dataset);

/// MINDIST from q to the bounds, via the Mbr<1> metric (the R-tree filter's
/// pipeline). Lower-bounds Mbr::MinDist of every contained interval.
inline double MbrMinDistToBounds(double q, const DomainBounds& b) {
  if (b.empty()) return std::numeric_limits<double>::infinity();
  return MakeInterval(b.lo, b.hi).MinDist({q});
}

/// MAXDIST from q to the bounds, via the Mbr<1> metric. Upper-bounds
/// Mbr::MaxDist of every contained interval.
inline double MbrMaxDistToBounds(double q, const DomainBounds& b) {
  if (b.empty()) return -std::numeric_limits<double>::infinity();
  return MakeInterval(b.lo, b.hi).MaxDist({q});
}

/// MINDIST from q to the bounds, via the interval arithmetic of
/// UncertainObject::MinDist. Lower-bounds MinDist of every contained object.
inline double IntervalMinDistToBounds(double q, const DomainBounds& b) {
  if (b.empty()) return std::numeric_limits<double>::infinity();
  if (q < b.lo) return b.lo - q;
  if (q > b.hi) return q - b.hi;
  return 0.0;
}

/// MAXDIST from q to the bounds, via the interval arithmetic of
/// UncertainObject::MaxDist. Upper-bounds MaxDist of every contained object.
inline double IntervalMaxDistToBounds(double q, const DomainBounds& b) {
  if (b.empty()) return -std::numeric_limits<double>::infinity();
  double a = q - b.lo;
  double c = b.hi - q;
  return a > c ? a : c;
}

/// Bounding box of a 2-D uncertainty region — the exact boxes the 2-D
/// R-tree indexes (rectangle as-is, disk as center ± radius), so shard
/// bounds accumulate through the same geometry as the filter.
Mbr<2> RegionMbr2D(const UncertainObject2D& obj);

/// 2-D domain bounds of a shard: the MBR of every region's bounding box.
/// The Mbr<2> MINDIST/MAXDIST metrics sandwich every contained object's
/// exact MinDist/MaxDist (the box contains the region and the shard MBR
/// contains the box), which is what makes 2-D shard pruning safe.
struct ShardBounds2D {
  Mbr<2> mbr = Mbr<2>::Empty();

  bool empty() const { return mbr.IsEmpty(); }
};

/// Bounds of a 2-D dataset, accumulated in dataset order.
ShardBounds2D ComputeShardBounds2D(const Dataset2D& dataset);

/// MINDIST from q to the bounds via the Mbr<2> metric (the 2-D R-tree
/// pipeline). Lower-bounds MinDist of every contained region.
inline double MbrMinDistToBounds2D(Point2 q, const ShardBounds2D& b) {
  if (b.empty()) return std::numeric_limits<double>::infinity();
  return b.mbr.MinDist({q.x, q.y});
}

/// MAXDIST from q to the bounds via the Mbr<2> metric. Upper-bounds
/// MaxDist of every contained region.
inline double MbrMaxDistToBounds2D(Point2 q, const ShardBounds2D& b) {
  if (b.empty()) return -std::numeric_limits<double>::infinity();
  return b.mbr.MaxDist({q.x, q.y});
}

}  // namespace pverify

#endif  // PVERIFY_SPATIAL_BOUNDS_H_
