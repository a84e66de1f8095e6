// Shared scaffolding for the per-figure benchmark binaries: standard
// datasets, workloads and sweep drivers so every figure harness stays short
// and uniform.
#ifndef PVERIFY_BENCH_UTIL_HARNESS_H_
#define PVERIFY_BENCH_UTIL_HARNESS_H_

#include <future>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/timer.h"
#include "core/query.h"
#include "core/query2d.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "engine/engine.h"

namespace pverify {
namespace bench {

/// Standard experiment environment mirroring the paper's §V-A setup.
struct Environment {
  Dataset dataset;
  CpnnExecutor executor;
  std::vector<double> query_points;

  Environment(Dataset data, size_t num_queries, uint64_t query_seed);
};

/// Long-Beach-like environment (53,144 intervals unless `count` overrides)
/// with `num_queries` random query points. Benchmarks default to fewer
/// queries than the paper's 100 to keep the full suite fast; pass 100 for a
/// faithful run.
Environment MakeDefaultEnvironment(datagen::PdfKind pdf,
                                   size_t num_queries = 20,
                                   size_t count = 53144);

/// Number of queries per configuration, overridable via PVERIFY_QUERIES.
size_t QueriesFromEnv(size_t fallback);

/// Dataset size override helper (PVERIFY_DATASET).
size_t DatasetSizeFromEnv(size_t fallback);

/// Minimum wall time of a timed region in milliseconds, overridable via
/// PVERIFY_MIN_WALL_MS. Sub-100ms regions are overhead-dominated noise on
/// shared hosts, so the verifier benches repeat each timed region until
/// the accumulated time crosses this floor.
double MinWallMsFromEnv(double fallback = 100.0);

/// Prints a standard header naming the figure and its setup.
void PrintHeader(const std::string& figure, const std::string& description);

/// One throughput measurement of a query workload.
struct ThroughputPoint {
  size_t queries = 0;
  size_t answers = 0;  ///< total returned ids (cheap equivalence check)
  double wall_ms = 0.0;
  double Qps() const {
    return wall_ms > 0.0 ? 1000.0 * static_cast<double>(queries) / wall_ms
                         : 0.0;
  }
};

/// Times a plain sequential loop of CpnnExecutor::Execute over the points
/// (the seed's one-query-at-a-time behavior; the engine's baseline).
ThroughputPoint TimeSequentialLoop(const CpnnExecutor& executor,
                                   const std::vector<double>& points,
                                   const QueryOptions& options);

/// 2-D counterpart: a sequential CpnnExecutor2D::Execute loop.
ThroughputPoint TimeSequentialLoop(const CpnnExecutor2D& executor,
                                   const std::vector<Point2>& points,
                                   const QueryOptions& options);

/// Builds the engine request for a query point of either dimensionality —
/// lets the workload drivers below stay dimension-agnostic.
inline QueryRequest MakePointRequest(double q, const QueryOptions& options) {
  return PointQuery{q, options};
}
inline QueryRequest MakePointRequest(Point2 q, const QueryOptions& options) {
  return Point2DQuery{q, options};
}

/// Times one Engine::ExecuteBatch over the points at the engine's thread
/// count — the shard count is whatever the caller constructed.
/// `stats` (optional) receives the batch aggregate.
ThroughputPoint TimeBatch(Engine& engine, const std::vector<double>& points,
                          const QueryOptions& options,
                          EngineStats* stats = nullptr);
ThroughputPoint TimeBatch(Engine& engine, const std::vector<Point2>& points,
                          const QueryOptions& options,
                          EngineStats* stats = nullptr);

/// Times an async-submission stream: every point Submit()ed back to back
/// (no explicit batch), then all futures drained. Measures the async
/// path end to end, for any Engine and both dimensionalities.
template <typename Point>
ThroughputPoint TimeSubmitStream(Engine& engine,
                                 const std::vector<Point>& points,
                                 const QueryOptions& options) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(points.size());
  ThroughputPoint point;
  point.queries = points.size();
  Timer wall;
  for (Point q : points) {
    futures.push_back(engine.Submit(MakePointRequest(q, options)));
  }
  for (std::future<QueryResult>& f : futures) {
    point.answers += f.get().ids.size();
  }
  point.wall_ms = wall.ElapsedMs();
  return point;
}

}  // namespace bench
}  // namespace pverify

#endif  // PVERIFY_BENCH_UTIL_HARNESS_H_
