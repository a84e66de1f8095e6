#include "datagen/workload.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace pverify {
namespace datagen {

namespace {

/// Cumulative (unnormalized) Zipf weights: cum[h] = Σ_{r<=h} 1/(r+1)^s.
std::vector<double> ZipfCumulative(const ZipfConfig& config) {
  PV_CHECK_MSG(config.num_hotspots >= 1, "need at least one hotspot");
  std::vector<double> cum(config.num_hotspots);
  double acc = 0.0;
  for (size_t h = 0; h < config.num_hotspots; ++h) {
    acc += std::pow(static_cast<double>(h + 1), -config.exponent);
    cum[h] = acc;
  }
  return cum;
}

/// Draws a hotspot rank by inverting the cumulative weights.
size_t DrawRank(Rng& rng, const std::vector<double>& cum) {
  const double u = rng.Uniform(0.0, cum.back());
  return std::upper_bound(cum.begin(), cum.end(), u) - cum.begin();
}

}  // namespace

std::vector<double> MakeQueryPoints(size_t count, double lo, double hi,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<double> points(count);
  for (double& p : points) p = rng.Uniform(lo, hi);
  return points;
}

std::vector<Point2> MakeQueryPoints2D(size_t count, double lo, double hi,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<Point2> points(count);
  for (Point2& p : points) {
    p.x = rng.Uniform(lo, hi);
    p.y = rng.Uniform(lo, hi);
  }
  return points;
}

std::vector<double> MakeQueryPointsZipf(size_t count, double lo, double hi,
                                        const ZipfConfig& config,
                                        uint64_t seed) {
  Rng rng(seed);
  const std::vector<double> cum = ZipfCumulative(config);
  // Centers first, from the same stream: one seed pins the whole workload.
  std::vector<double> centers(config.num_hotspots);
  for (double& c : centers) c = rng.Uniform(lo, hi);
  const double spread = config.spread_fraction * (hi - lo);
  std::vector<double> points(count);
  for (double& p : points) {
    const size_t rank = DrawRank(rng, cum);
    p = std::clamp(rng.Gaussian(centers[rank], spread), lo, hi);
  }
  return points;
}

std::vector<Point2> MakeQueryPointsZipf2D(size_t count, double lo, double hi,
                                          const ZipfConfig& config,
                                          uint64_t seed) {
  Rng rng(seed);
  const std::vector<double> cum = ZipfCumulative(config);
  std::vector<Point2> centers(config.num_hotspots);
  for (Point2& c : centers) {
    c.x = rng.Uniform(lo, hi);
    c.y = rng.Uniform(lo, hi);
  }
  const double spread = config.spread_fraction * (hi - lo);
  std::vector<Point2> points(count);
  for (Point2& p : points) {
    const size_t rank = DrawRank(rng, cum);
    p.x = std::clamp(rng.Gaussian(centers[rank].x, spread), lo, hi);
    p.y = std::clamp(rng.Gaussian(centers[rank].y, spread), lo, hi);
  }
  return points;
}

WorkloadResult RunWorkload(const CpnnExecutor& executor,
                           const std::vector<double>& query_points,
                           const QueryOptions& options) {
  WorkloadResult result;
  for (double q : query_points) {
    QueryAnswer answer = executor.Execute(q, options);
    answer.stats.AccumulateInto(result.totals);
    result.answers += answer.ids.size();
    ++result.queries;
  }
  return result;
}

}  // namespace datagen
}  // namespace pverify
