// Minimum bounding rectangles in D dimensions with the point-to-MBR metrics
// needed by probabilistic NN filtering: MINDIST and MAXDIST, the smallest
// and largest distance from a query point to any point of the rectangle.
#ifndef PVERIFY_SPATIAL_MBR_H_
#define PVERIFY_SPATIAL_MBR_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace pverify {

template <int Dim>
struct Mbr {
  std::array<double, Dim> lo;
  std::array<double, Dim> hi;

  static Mbr Empty() {
    Mbr m;
    m.lo.fill(std::numeric_limits<double>::infinity());
    m.hi.fill(-std::numeric_limits<double>::infinity());
    return m;
  }

  bool IsEmpty() const { return lo[0] > hi[0]; }

  void Expand(const Mbr& other) {
    for (int d = 0; d < Dim; ++d) {
      lo[d] = std::min(lo[d], other.lo[d]);
      hi[d] = std::max(hi[d], other.hi[d]);
    }
  }

  bool Intersects(const Mbr& other) const {
    for (int d = 0; d < Dim; ++d) {
      if (other.hi[d] < lo[d] || other.lo[d] > hi[d]) return false;
    }
    return true;
  }

  bool Contains(const Mbr& other) const {
    for (int d = 0; d < Dim; ++d) {
      if (other.lo[d] < lo[d] || other.hi[d] > hi[d]) return false;
    }
    return true;
  }

  /// MINDIST: smallest distance from q to any point of the MBR.
  double MinDist(const std::array<double, Dim>& q) const {
    double s = 0.0;
    for (int d = 0; d < Dim; ++d) {
      double diff = std::max({lo[d] - q[d], 0.0, q[d] - hi[d]});
      s += diff * diff;
    }
    return std::sqrt(s);
  }

  /// MAXDIST: largest distance from q to any point of the MBR.
  double MaxDist(const std::array<double, Dim>& q) const {
    double s = 0.0;
    for (int d = 0; d < Dim; ++d) {
      double diff = std::max(std::abs(q[d] - lo[d]), std::abs(q[d] - hi[d]));
      s += diff * diff;
    }
    return std::sqrt(s);
  }
};

/// 1-D MBR from an interval.
inline Mbr<1> MakeInterval(double lo, double hi) {
  Mbr<1> m;
  m.lo[0] = lo;
  m.hi[0] = hi;
  return m;
}

/// 2-D MBR from corner coordinates.
inline Mbr<2> MakeBox(double x1, double y1, double x2, double y2) {
  Mbr<2> m;
  m.lo = {x1, y1};
  m.hi = {x2, y2};
  return m;
}

}  // namespace pverify

#endif  // PVERIFY_SPATIAL_MBR_H_
