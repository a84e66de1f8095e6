#include "spatial/bounds.h"

#include <algorithm>

namespace pverify {

DomainBounds ComputeDomainBounds(const Dataset& dataset) {
  DomainBounds b;
  if (dataset.empty()) return b;
  b.lo = dataset.front().lo();
  b.hi = dataset.front().hi();
  for (const UncertainObject& obj : dataset) {
    b.lo = std::min(b.lo, obj.lo());
    b.hi = std::max(b.hi, obj.hi());
  }
  return b;
}

Mbr<2> RegionMbr2D(const UncertainObject2D& obj) {
  if (obj.is_rect()) {
    const Rect2& r = obj.rect();
    return MakeBox(r.x1, r.y1, r.x2, r.y2);
  }
  const Circle2& c = obj.circle();
  return MakeBox(c.cx - c.r, c.cy - c.r, c.cx + c.r, c.cy + c.r);
}

ShardBounds2D ComputeShardBounds2D(const Dataset2D& dataset) {
  ShardBounds2D b;
  for (const UncertainObject2D& obj : dataset) {
    b.mbr.Expand(RegionMbr2D(obj));
  }
  return b;
}

}  // namespace pverify
