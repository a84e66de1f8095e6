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
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "engine/engine.h"
#include "engine/query_engine.h"
#include "engine/sharded_engine.h"

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
/// shared hosts, so the *Floored timers below repeat the workload until
/// the accumulated region crosses this floor.
double MinWallMsFromEnv(double fallback = 100.0);

/// Prints a standard header naming the figure and its setup.
void PrintHeader(const std::string& figure, const std::string& description);

/// One throughput measurement of a query workload.
struct ThroughputPoint {
  size_t threads = 0;  ///< 0 for the sequential (no-engine) loop
  size_t queries = 0;  ///< total across repetitions
  size_t answers = 0;  ///< total returned ids (cheap equivalence check)
  size_t reps = 1;     ///< workload repetitions folded into this point
  double wall_ms = 0.0;  ///< total across repetitions
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
/// count — sharded vs. unsharded is whatever the caller constructed.
/// `stats` (optional) receives the batch aggregate.
ThroughputPoint TimeBatch(Engine& engine, const std::vector<double>& points,
                          const QueryOptions& options,
                          EngineStats* stats = nullptr);
ThroughputPoint TimeBatch(Engine& engine, const std::vector<Point2>& points,
                          const QueryOptions& options,
                          EngineStats* stats = nullptr);

/// Floored variants: repeat the workload until the accumulated timed
/// region reaches `min_wall_ms`, folding every repetition into one point
/// (Qps and per-query averages stay valid; `reps` records the count).
/// Use these for any number that lands in a table — a sub-floor region
/// measures scheduling overhead, not the engine. `stats`, when provided,
/// holds the FINAL repetition's batch aggregate (per-rep quantities like
/// AvgQueryMs stay meaningful; do not mix its wall_ms with the returned
/// point's all-reps total).
ThroughputPoint TimeSequentialLoopFloored(const CpnnExecutor& executor,
                                          const std::vector<double>& points,
                                          const QueryOptions& options,
                                          double min_wall_ms);
ThroughputPoint TimeBatchFloored(Engine& engine,
                                 const std::vector<double>& points,
                                 const QueryOptions& options,
                                 double min_wall_ms,
                                 EngineStats* stats = nullptr);
ThroughputPoint TimeBatchFloored(Engine& engine,
                                 const std::vector<Point2>& points,
                                 const QueryOptions& options,
                                 double min_wall_ms,
                                 EngineStats* stats = nullptr);
ThroughputPoint TimeSubmitStreamFloored(Engine& engine,
                                        const std::vector<double>& points,
                                        const QueryOptions& options,
                                        double min_wall_ms);
ThroughputPoint TimeSubmitStreamFloored(Engine& engine,
                                        const std::vector<Point2>& points,
                                        const QueryOptions& options,
                                        double min_wall_ms);

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
  point.threads = engine.num_threads();
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

/// Worker-thread counts to sweep, overridable via PVERIFY_THREADS
/// (comma-separated list, e.g. "1,2,4,8").
std::vector<size_t> ThreadCountsFromEnv(std::vector<size_t> fallback);

/// Accumulates bench results and writes them as machine-readable JSON
/// (e.g. BENCH_engine.json) alongside the human tables/CSVs, so CI can
/// archive the perf trajectory per PR. Usage:
///
///   BenchJsonWriter json("engine_throughput", "BENCH_engine.json");
///   json.Config("queries", 200);
///   json.BeginResult();
///   json.Field("name", "batch");
///   json.Field("qps", point.Qps());
///   json.Write();
class BenchJsonWriter {
 public:
  BenchJsonWriter(std::string bench, std::string path);

  /// Top-level config scalars (workload shape, host facts).
  void Config(const std::string& key, double value);
  void Config(const std::string& key, const std::string& value);

  /// Starts a new result record; subsequent Field() calls fill it.
  void BeginResult();
  void Field(const std::string& key, double value);
  void Field(const std::string& key, const std::string& value);

  /// Writes the file and reports the path on stdout. Returns false (after
  /// a warning on stderr) when the file cannot be written.
  bool Write() const;

 private:
  struct Entry {
    std::string key;
    std::string encoded;  ///< pre-encoded JSON value
  };
  std::string bench_;
  std::string path_;
  std::vector<Entry> config_;
  std::vector<std::vector<Entry>> results_;
};

}  // namespace bench
}  // namespace pverify

#endif  // PVERIFY_BENCH_UTIL_HARNESS_H_
