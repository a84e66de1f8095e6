#include "bench_util/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/timer.h"

namespace pverify {
namespace bench {

Environment::Environment(Dataset data, size_t num_queries,
                         uint64_t query_seed)
    : dataset(std::move(data)),
      executor(dataset),
      query_points(datagen::MakeQueryPoints(num_queries, 0.0, 10000.0,
                                            query_seed)) {}

Environment MakeDefaultEnvironment(datagen::PdfKind pdf, size_t num_queries,
                                   size_t count) {
  datagen::SyntheticConfig config;
  config.pdf = pdf;
  config.count = count;
  return Environment(datagen::MakeSynthetic(config), num_queries,
                     /*query_seed=*/101);
}

size_t QueriesFromEnv(size_t fallback) {
  const char* v = std::getenv("PVERIFY_QUERIES");
  if (v == nullptr) return fallback;
  long n = std::strtol(v, nullptr, 10);
  return n > 0 ? static_cast<size_t>(n) : fallback;
}

size_t DatasetSizeFromEnv(size_t fallback) {
  const char* v = std::getenv("PVERIFY_DATASET");
  if (v == nullptr) return fallback;
  long n = std::strtol(v, nullptr, 10);
  return n > 0 ? static_cast<size_t>(n) : fallback;
}

double MinWallMsFromEnv(double fallback) {
  const char* v = std::getenv("PVERIFY_MIN_WALL_MS");
  if (v == nullptr) return fallback;
  char* end = nullptr;
  double ms = std::strtod(v, &end);
  return end != v && ms >= 0.0 ? ms : fallback;
}

void PrintHeader(const std::string& figure, const std::string& description) {
  std::printf("=== %s ===\n%s\n\n", figure.c_str(), description.c_str());
}

void ThroughputPoint::AddAnswer(std::vector<ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  answers.push_back(std::move(ids));
}

size_t ThroughputPoint::AnswerCount() const {
  size_t n = 0;
  for (const std::vector<ObjectId>& ids : answers) n += ids.size();
  return n;
}

ThroughputPoint TimeSequentialLoop(const CpnnExecutor& executor,
                                   const std::vector<double>& points,
                                   const QueryOptions& options) {
  ThroughputPoint point;
  point.queries = points.size();
  Timer wall;
  for (double q : points) {
    point.AddAnswer(executor.Execute(q, options).ids);
  }
  point.wall_ms = wall.ElapsedMs();
  return point;
}

namespace {

// Shared driver behind the batch timers: builds the point requests, runs
// ExecuteBatch and repackages the engine-reported wall time. The engine
// already measures the batch wall time; reuse it rather than keeping a
// second clock that could drift from the reported stats.
template <typename Point>
ThroughputPoint TimeBatchImpl(Engine& engine,
                              const std::vector<Point>& points,
                              const QueryOptions& options,
                              EngineStats* stats) {
  std::vector<QueryRequest> batch;
  batch.reserve(points.size());
  for (Point q : points) batch.push_back(MakePointRequest(q, options));

  EngineStats local_stats;
  std::vector<QueryResult> results =
      engine.ExecuteBatch(std::move(batch), &local_stats);
  ThroughputPoint point;
  point.queries = points.size();
  for (QueryResult& r : results) point.AddAnswer(std::move(r.ids));
  point.wall_ms = local_stats.wall_ms;
  if (stats != nullptr) *stats = std::move(local_stats);
  return point;
}

}  // namespace

ThroughputPoint TimeSequentialLoop(const CpnnExecutor2D& executor,
                                   const std::vector<Point2>& points,
                                   const QueryOptions& options) {
  ThroughputPoint point;
  point.queries = points.size();
  Timer wall;
  for (Point2 q : points) {
    point.AddAnswer(executor.Execute(q, options).ids);
  }
  point.wall_ms = wall.ElapsedMs();
  return point;
}

ThroughputPoint TimeBatch(Engine& engine, const std::vector<double>& points,
                          const QueryOptions& options, EngineStats* stats) {
  return TimeBatchImpl(engine, points, options, stats);
}

ThroughputPoint TimeBatch(Engine& engine, const std::vector<Point2>& points,
                          const QueryOptions& options, EngineStats* stats) {
  return TimeBatchImpl(engine, points, options, stats);
}

}  // namespace bench
}  // namespace pverify
