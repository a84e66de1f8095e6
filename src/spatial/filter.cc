#include "spatial/filter.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "spatial/bounds.h"

namespace pverify {
namespace {

// See kFilterBoundarySlack in the header for the rationale.
constexpr double kBoundarySlack = kFilterBoundarySlack;

// The radius of a superset probe around a cut u. The relative widening keeps
// an entry whose MBR MINDIST rounds a few ulps above its region's exact
// MinDist (disks, hypot) in the probe.
double ProbeRadius(double u) { return (u + kBoundarySlack) * (1.0 + 1e-9); }

// The k-th-far-point filter over an index (see PnnFilter::FilterK).
template <int Dim, typename Objects, typename Point>
KnnFilterResult KthFarPointFilter(const RTree<Dim>& tree,
                                  const Objects& objects,
                                  const std::array<double, Dim>& pt, Point q,
                                  int k) {
  PV_CHECK_MSG(k >= 1, "k must be positive");
  KnnFilterResult result;
  if (tree.empty()) return result;
  const size_t want = std::min(objects.size(), static_cast<size_t>(k));
  std::vector<uint32_t> superset;
  tree.NearestByMinDist(pt, want, &superset);
  double u = 0.0;
  for (uint32_t idx : superset) u = std::max(u, objects[idx].MaxDist(q));
  superset.clear();
  tree.WithinDistance(pt, ProbeRadius(u), &superset);
  // A q that is not a number compares false with every distance, so the
  // probe comes back short; the scan finds no candidates either.
  if (superset.size() < want) {
    result.fmin = std::numeric_limits<double>::quiet_NaN();
    return result;
  }
  std::sort(superset.begin(), superset.end());
  std::vector<double> fars;
  fars.reserve(superset.size());
  for (uint32_t idx : superset) fars.push_back(objects[idx].MaxDist(q));
  std::vector<double> ranked = fars;
  std::nth_element(ranked.begin(), ranked.begin() + (want - 1), ranked.end());
  result.fmin = ranked[want - 1];
  for (size_t i = 0; i < superset.size(); ++i) {
    const double near = objects[superset[i]].MinDist(q);
    if (near <= result.fmin + kBoundarySlack) {
      result.candidates.push_back(superset[i]);
      result.fars.push_back(fars[i]);
      result.nears.push_back(near);
    }
  }
  return result;
}

// The scan oracle behind FilterKByScan / FilterKByScan2D.
template <typename Objects, typename Point>
FilterResult KthFarPointScan(const Objects& objects, Point q, int k) {
  PV_CHECK_MSG(k >= 1, "k must be positive");
  FilterResult result;
  if (objects.empty()) return result;
  std::vector<double> fars;
  fars.reserve(objects.size());
  for (const auto& obj : objects) fars.push_back(obj.MaxDist(q));
  size_t kth = std::min(objects.size(), static_cast<size_t>(k)) - 1;
  std::nth_element(fars.begin(), fars.begin() + kth, fars.end());
  result.fmin = fars[kth];
  for (uint32_t i = 0; i < objects.size(); ++i) {
    if (objects[i].MinDist(q) <= result.fmin + kBoundarySlack) {
      result.candidates.push_back(i);
    }
  }
  return result;
}

}  // namespace

RTree<1> BuildIntervalTree(const Dataset& dataset) {
  std::vector<RTree<1>::Entry> entries;
  entries.reserve(dataset.size());
  for (uint32_t i = 0; i < dataset.size(); ++i) {
    entries.push_back({MakeInterval(dataset[i].lo(), dataset[i].hi()), i});
  }
  return RTree<1>::BulkLoadSTR(std::move(entries));
}

PnnFilter::PnnFilter(const Dataset& dataset)
    : rtree_(BuildIntervalTree(dataset)), dataset_(&dataset) {}

FilterResult PnnFilter::Filter(double q) const {
  FilterResult result;
  if (rtree_.empty()) return result;
  std::array<double, 1> pt = {q};
  result.fmin = rtree_.MinFarPoint(pt);
  rtree_.WithinDistance(pt, result.fmin + kBoundarySlack, &result.candidates);
  std::sort(result.candidates.begin(), result.candidates.end());
  return result;
}

KnnFilterResult PnnFilter::FilterK(double q, int k) const {
  return KthFarPointFilter(rtree_, *dataset_, {q}, q, k);
}

PnnFilter2D::PnnFilter2D(const Dataset2D& dataset) : dataset_(&dataset) {
  std::vector<RTree<2>::Entry> entries;
  entries.reserve(dataset.size());
  for (uint32_t i = 0; i < dataset.size(); ++i) {
    entries.push_back({RegionMbr2D(dataset[i]), i});
  }
  rtree_ = RTree<2>::BulkLoadSTR(std::move(entries));
}

FilterResult PnnFilter2D::Filter(Point2 q) const {
  FilterResult result;
  if (rtree_.empty()) return result;
  std::array<double, 2> pt = {q.x, q.y};
  // The MBR MAXDIST over-estimates a disk's true far point (corner vs.
  // tangent), so the MBR f_min only bounds the exact one from above; the
  // probe at it holds every object that can realize or pass the exact cut.
  std::vector<uint32_t> superset;
  rtree_.WithinDistance(pt, ProbeRadius(rtree_.MinFarPoint(pt)), &superset);
  double fmin = std::numeric_limits<double>::infinity();
  for (uint32_t idx : superset) {
    fmin = std::min(fmin, (*dataset_)[idx].MaxDist(q));
  }
  result.fmin = fmin;
  for (uint32_t idx : superset) {
    if ((*dataset_)[idx].MinDist(q) <= fmin + kBoundarySlack) {
      result.candidates.push_back(idx);
    }
  }
  std::sort(result.candidates.begin(), result.candidates.end());
  return result;
}

KnnFilterResult PnnFilter2D::FilterK(Point2 q, int k) const {
  return KthFarPointFilter(rtree_, *dataset_, {q.x, q.y}, q, k);
}

FilterResult FilterKByScan(const Dataset& dataset, double q, int k) {
  return KthFarPointScan(dataset, q, k);
}

FilterResult FilterKByScan2D(const Dataset2D& dataset, Point2 q, int k) {
  return KthFarPointScan(dataset, q, k);
}

}  // namespace pverify
