// Sensor-monitoring scenario (paper §I): a habitat network collects noisy
// temperature readings; a monitoring dashboard periodically asks — in one
// engine batch — which district's temperature is closest to each cluster
// centroid and which sensor reports the minimum value.
//
// A minimum query is a PNN with q → −∞ (paper: "A minimum (maximum) query is
// essentially a special case of PNN"); the engine exposes it as a request
// kind of its own.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "engine/query_engine.h"

using namespace pverify;

int main() {
  Rng rng(2024);

  // 40 districts, each with a histogram pdf of observed temperatures (like
  // the paper's Fig. 1(b): arbitrary histogram between two bounds).
  Dataset districts;
  for (int i = 0; i < 40; ++i) {
    double base = rng.Uniform(8.0, 24.0);
    double width = rng.Uniform(2.0, 6.0);
    std::vector<double> bars;
    for (int b = 0; b < 8; ++b) bars.push_back(rng.Uniform(0.2, 2.0));
    districts.emplace_back(i, MakeHistogramPdf(base, base + width, bars));
  }
  QueryEngine engine(districts);

  // --- One monitoring tick = one batch: every centroid plus the minimum. --
  const std::vector<double> centroids = {12.0, 18.5, 22.0};
  QueryOptions options;
  options.params = {/*threshold=*/0.25, /*tolerance=*/0.01};
  options.strategy = Strategy::kVR;

  std::vector<QueryRequest> tick;
  for (double c : centroids) tick.push_back(PointQuery{c, options});
  tick.push_back(MinQuery{options});

  EngineStats stats;
  std::vector<QueryResult> results =
      engine.ExecuteBatch(std::move(tick), &stats);

  for (size_t c = 0; c < centroids.size(); ++c) {
    std::printf("districts with >=25%% chance of being closest to %.1f°C:\n",
                centroids[c]);
    for (ObjectId id : results[c].ids) {
      const UncertainObject& obj = districts[static_cast<size_t>(id)];
      std::printf("  district %2lld (range %.1f–%.1f°C)\n",
                  static_cast<long long>(id), obj.lo(), obj.hi());
    }
  }

  const QueryResult& coldest = results.back();
  std::printf("\nsensors with >=25%% chance of reporting the minimum:\n");
  for (ObjectId id : coldest.ids) {
    const UncertainObject& obj = districts[static_cast<size_t>(id)];
    std::printf("  district %2lld (range %.1f–%.1f°C)\n",
                static_cast<long long>(id), obj.lo(), obj.hi());
  }

  std::printf("\ntick: %zu queries on %zu threads in %.3f ms (%.0f q/s)\n",
              stats.queries, stats.threads, stats.wall_ms,
              stats.QueriesPerSec());

  // Raw probabilities for the minimum query, for comparison, from the plain
  // PNN API of a CpnnExecutor over the same districts.
  std::printf("\nexact minimum-value probabilities (top 5):\n");
  auto probs = CpnnExecutor(districts).ComputePnn(0.0);  // below every region
  std::sort(probs.begin(), probs.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  for (size_t i = 0; i < probs.size() && i < 5; ++i) {
    std::printf("  district %2lld: %.4f\n",
                static_cast<long long>(probs[i].first), probs[i].second);
  }

  // --- Why C-PNN instead of PNN? Show the work saved. ---------------------
  QueryOptions basic = options;
  basic.strategy = Strategy::kBasic;
  QueryResult full = engine.Execute(PointQuery{centroids[1], basic});
  QueryResult constrained =
      engine.Execute(PointQuery{centroids[1], options});
  std::printf(
      "\nwork comparison at the %.1f°C centroid query:\n"
      "  Basic (exact probabilities): %.3f ms\n"
      "  VR (verifiers + refinement): %.3f ms, %zu of %zu candidates needed "
      "integration\n",
      centroids[1], full.stats.total_ms, constrained.stats.total_ms,
      constrained.stats.refined_candidates, constrained.stats.candidates);
  return 0;
}
