// Fleet-dispatch scenario: a city-wide fleet of vehicles reports uncertain
// 1-D positions along a highway (GPS intervals with uniform pdfs). The
// dispatch service runs on a ShardedQueryEngine — the fleet is
// range-partitioned into district shards, so a pickup request only touches
// the shards near it — and serves interactive requests through the async
// Submit path: each incoming pickup submits one query and gets a future,
// and the engine runs each one on the next free worker.
//
// The serving code only sees pverify::Engine& — swapping the sharded
// engine for an unsharded QueryEngine is a one-line construction change.
#include <cstdio>
#include <future>
#include <vector>

#include "common/rng.h"
#include "engine/sharded_engine.h"

using namespace pverify;

int main() {
  Rng rng(7);

  // 2,000 vehicles spread over a 100 km highway; each position is an
  // uncertainty interval of 40–400 m.
  Dataset fleet;
  for (int i = 0; i < 2000; ++i) {
    double center = rng.Uniform(0.0, 100000.0);
    double radius = rng.Uniform(20.0, 200.0);
    fleet.emplace_back(i, MakeUniformPdf(center - radius, center + radius));
  }

  // Range-shard the fleet into 8 district shards over its own extent. Each
  // shard owns its own R-tree; per-shard domain bounds let queries skip
  // distant districts.
  ShardedEngineOptions sopt;
  sopt.num_shards = 8;
  ShardedQueryEngine dispatch(fleet, sopt);
  Engine& service = dispatch;  // everything below is backend-agnostic

  QueryOptions options;
  options.params = {/*threshold=*/0.2, /*tolerance=*/0.01};
  options.strategy = Strategy::kVR;

  // --- Interactive dispatch: pickups arrive one by one; Submit() returns
  // a future immediately and a pool worker answers it. -------------------
  Rng pickups(99);
  std::vector<double> locations;
  std::vector<std::future<QueryResult>> futures;
  for (int r = 0; r < 12; ++r) {
    double at = pickups.Uniform(0.0, 100000.0);
    locations.push_back(at);
    futures.push_back(service.Submit(PointQuery{at, options}));
  }

  for (size_t r = 0; r < futures.size(); ++r) {
    QueryResult result = futures[r].get();
    std::printf("pickup at km %6.2f — %zu candidate vehicle(s):",
                locations[r] / 1000.0, result.ids.size());
    for (ObjectId id : result.ids) {
      std::printf(" #%lld", static_cast<long long>(id));
    }
    std::printf("\n");
  }

  std::printf("\n%zu requests submitted; "
              "%zu shard visits, %zu skipped by district bounds\n",
              service.SubmitStats().requests, dispatch.ShardVisits(),
              dispatch.ShardsPruned());

  // --- Nightly audit: a full batch over fixed checkpoints, with stats. ---
  std::vector<QueryRequest> audit;
  for (double km = 5000.0; km < 100000.0; km += 5000.0) {
    audit.push_back(PointQuery{km, options});
  }
  audit.push_back(MinQuery{options});
  audit.push_back(MaxQuery{options});
  const size_t visits_before = dispatch.ShardVisits();
  const size_t pruned_before = dispatch.ShardsPruned();
  EngineStats stats;
  std::vector<QueryResult> results =
      dispatch.ExecuteBatch(std::move(audit), &stats);
  std::printf("\naudit: %zu queries in %.2f ms (%.0f q/s); "
              "scatter visited %zu shard(s), pruned %zu\n",
              stats.queries, stats.wall_ms, stats.QueriesPerSec(),
              dispatch.ShardVisits() - visits_before,
              dispatch.ShardsPruned() - pruned_before);
  std::printf("vehicles possibly at the start of the highway:");
  for (ObjectId id : results[results.size() - 2].ids) {
    std::printf(" #%lld", static_cast<long long>(id));
  }
  std::printf("\n");
  return 0;
}
