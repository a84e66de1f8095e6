// Drone-patrol scenario: a swarm of drones reports uncertain 2-D positions
// (GPS disks and dead-reckoning rectangles with uniform pdfs). Ground
// control asks "which drone is probably closest to this incident?" — a
// C-PNN over 2-D uncertainty regions, served engine-natively: kPoint2D
// requests batch across worker threads with per-worker scratch reuse, and a
// range-sharded engine shows the same queries pruning distant sectors.
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"

using namespace pverify;

int main() {
  Rng rng(19);

  // 1,500 drones over a 20 km × 20 km sector grid: odd ids hold GPS fixes
  // (disks), even ids dead-reckoning estimates (rectangles).
  Dataset2D swarm;
  for (int i = 0; i < 1500; ++i) {
    double cx = rng.Uniform(0.0, 20000.0);
    double cy = rng.Uniform(0.0, 20000.0);
    if (i % 2 == 1) {
      swarm.emplace_back(i, Circle2{cx, cy, rng.Uniform(10.0, 80.0)});
    } else {
      double w = rng.Uniform(20.0, 120.0);
      double h = rng.Uniform(20.0, 120.0);
      swarm.emplace_back(
          i, Rect2{cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h});
    }
  }

  QueryOptions options;
  options.params = {/*threshold=*/0.25, /*tolerance=*/0.01};
  options.strategy = Strategy::kVR;
  options.report_probabilities = true;

  // One incident: a single engine-native 2-D point query.
  QueryEngine control(swarm, EngineOptions{4});
  Point2 incident{12500.0, 7300.0};
  QueryResult result = control.Execute(Point2DQuery{incident, options});
  std::printf("incident at (%.0f, %.0f): %zu candidate drone(s), %zu likely "
              "responder(s)\n",
              incident.x, incident.y, result.stats.candidates,
              result.ids.size());
  for (ObjectId id : result.ids) {
    std::printf("  drone %lld\n", static_cast<long long>(id));
  }

  // A shift's worth of incidents: one batch across the worker pool. The
  // per-worker scratches recycle the radial-cdf buffers and candidate
  // storage, so the steady state stops allocating.
  std::vector<Point2> incidents =
      datagen::MakeQueryPoints2D(200, 0.0, 20000.0, /*seed=*/23);
  // The shift batch only needs an Engine& — the same call drives the
  // one-shard control engine here and the 8-shard sector engine below.
  auto run_shift = [&incidents, &options](Engine& engine,
                                          EngineStats* stats) {
    std::vector<QueryRequest> batch;
    for (Point2 p : incidents) {
      batch.push_back(Point2DQuery{p, options});
    }
    return engine.ExecuteBatch(std::move(batch), stats);
  };
  EngineStats stats;
  std::vector<QueryResult> results = run_shift(control, &stats);
  size_t answers = 0;
  for (const QueryResult& r : results) answers += r.ids.size();
  std::printf("\nbatch: %zu incidents on %zu threads in %.2f ms "
              "(%.0f q/s), %zu responders, scratch %zu bytes\n",
              stats.queries, stats.threads, stats.wall_ms,
              stats.QueriesPerSec(), answers, control.ScratchBytes());

  // Same swarm range-sharded into 8 x-stripes over its own extent: per-shard
  // Mbr bounds let each incident skip distant sectors, and answers stay
  // bit-identical.
  EngineOptions sopt;
  sopt.num_shards = 8;
  QueryEngine sectors(swarm, sopt);
  std::vector<QueryResult> sharded_results = run_shift(sectors, nullptr);
  size_t sharded_answers = 0;
  size_t mismatches = 0;
  for (size_t i = 0; i < sharded_results.size(); ++i) {
    sharded_answers += sharded_results[i].ids.size();
    if (sharded_results[i].ids != results[i].ids) ++mismatches;
  }
  std::printf("sharded: %zu shards, %zu visits, %zu pruned by bounds, "
              "%zu responders (%zu mismatches vs one shard)\n",
              sectors.num_shards(), sectors.ShardVisits(),
              sectors.ShardsPruned(), sharded_answers, mismatches);
  return mismatches == 0 ? 0 : 1;
}
