// Sharded + async throughput — scatter/gather and Submit-stream execution
// vs. the single-engine batch path.
//
// The workload mirrors engine_throughput (Long-Beach-like dataset, random
// query points, P=0.3, Δ=0.01, VR strategy). Two sweeps:
//
//  * ExecuteBatch on ShardedQueryEngine at 1/2/4/8 shards (hash and range
//    policies) against the unsharded QueryEngine at the same thread count.
//    Answers are bit-identical; the interesting numbers are q/s and the
//    bounds-pruning rate (range sharding skips most shards per query,
//    hash sharding cannot). Each request's shard loop runs as a nested
//    ParallelFor inside the batch workers.
//  * Async Submit streams on both engines: every query submitted
//    individually, coalesced internally into pool batches.
//
// Every timed region repeats until it crosses the measurement floor
// (PVERIFY_MIN_WALL_MS, default 100 ms).
//
// Environment overrides: PVERIFY_QUERIES, PVERIFY_DATASET,
// PVERIFY_THREADS, PVERIFY_MIN_WALL_MS.
#include <cstdio>
#include <memory>
#include <string_view>

#include "bench_util/harness.h"
#include "engine/work_steal_pool.h"

using namespace pverify;

namespace {

size_t AnswersPerRep(const bench::ThroughputPoint& p) {
  return p.reps > 0 ? p.answers / p.reps : p.answers;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Sharded + async throughput — scatter/gather vs. one engine",
      "Queries/sec of ShardedQueryEngine::ExecuteBatch at 1/2/4/8 shards\n"
      "(hash and range policies) and the async Submit stream, against the\n"
      "unsharded QueryEngine (VR strategy, P=0.3, Δ=0.01). Timed regions\n"
      "repeat to a ≥100 ms floor.");

  const size_t queries = bench::QueriesFromEnv(200);
  const size_t dataset_size = bench::DatasetSizeFromEnv(20000);
  const double min_wall_ms = bench::MinWallMsFromEnv();
  const std::vector<size_t> shard_counts =
      bench::ThreadCountsFromEnv({1, 2, 4, 8});
  const size_t threads = WorkStealingPool::DefaultThreadCount();

  std::printf(
      "dataset: %zu objects, %zu queries, %zu worker threads, "
      "floor: %.0f ms\n\n",
      dataset_size, queries, threads, min_wall_ms);

  bench::Environment env = bench::MakeDefaultEnvironment(
      datagen::PdfKind::kUniform, queries, dataset_size);

  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;

  ResultTable table({"engine", "policy", "shards", "reps", "wall_ms",
                     "queries_per_sec", "speedup", "visits_per_query",
                     "pruned_per_query"},
                    "sharded_throughput.csv");

  // Both engines are driven through Engine& below; construction is the
  // only place the sharded/unsharded choice exists.
  QueryEngine baseline(env.dataset, EngineOptions{threads});
  bench::TimeBatch(baseline, env.query_points, opt);  // warm-up
  bench::ThroughputPoint base = bench::TimeBatchFloored(
      baseline, env.query_points, opt, min_wall_ms);
  table.AddRow({"single", "-", "-", std::to_string(base.reps),
                FormatDouble(base.wall_ms, 2), FormatDouble(base.Qps(), 1),
                FormatDouble(1.0, 2), "-", "-"});

  // Sharded batch: shards × policies.
  for (const char* policy_name : {"hash", "range"}) {
    for (size_t shards : shard_counts) {
      ShardedEngineOptions sopt;
      sopt.num_shards = shards;
      sopt.num_threads = threads;
      if (std::string_view(policy_name) == "range") {
        sopt.policy = std::make_shared<const RangeShardingPolicy>(
            RangeShardingPolicy::ForDataset(env.dataset));
      }
      ShardedQueryEngine sharded(env.dataset, sopt);
      bench::TimeBatch(sharded, env.query_points, opt);  // warm-up
      const size_t visits0 = sharded.ShardVisits();
      const size_t pruned0 = sharded.ShardsPruned();
      bench::ThroughputPoint point = bench::TimeBatchFloored(
          sharded, env.query_points, opt, min_wall_ms);
      if (AnswersPerRep(point) != AnswersPerRep(base)) {
        std::fprintf(stderr, "error: answer mismatch (%zu vs %zu)\n",
                     AnswersPerRep(point), AnswersPerRep(base));
        return 1;
      }
      const double per_query = static_cast<double>(point.queries);
      table.AddRow(
          {"sharded", policy_name, std::to_string(shards),
           std::to_string(point.reps), FormatDouble(point.wall_ms, 2),
           FormatDouble(point.Qps(), 1),
           FormatDouble(point.Qps() / base.Qps(), 2),
           FormatDouble((sharded.ShardVisits() - visits0) / per_query, 2),
           FormatDouble((sharded.ShardsPruned() - pruned0) / per_query, 2)});
    }
  }

  // Async Submit streams: per-request futures, internal coalescing.
  bench::ThroughputPoint async_single = bench::TimeSubmitStreamFloored(
      baseline, env.query_points, opt, min_wall_ms);
  SubmitQueueStats qs = baseline.SubmitStats();
  table.AddRow({"single+async", "-", "-",
                std::to_string(async_single.reps),
                FormatDouble(async_single.wall_ms, 2),
                FormatDouble(async_single.Qps(), 1),
                FormatDouble(async_single.Qps() / base.Qps(), 2), "-", "-"});
  ShardedEngineOptions sopt;
  sopt.num_shards = 4;
  sopt.num_threads = threads;
  ShardedQueryEngine sharded(env.dataset, sopt);
  bench::ThroughputPoint async_sharded = bench::TimeSubmitStreamFloored(
      sharded, env.query_points, opt, min_wall_ms);
  table.AddRow({"sharded+async", "hash", "4",
                std::to_string(async_sharded.reps),
                FormatDouble(async_sharded.wall_ms, 2),
                FormatDouble(async_sharded.Qps(), 1),
                FormatDouble(async_sharded.Qps() / base.Qps(), 2), "-", "-"});
  table.Print();

  std::printf(
      "\nsubmit coalescing: %zu requests ran as %zu pool batches "
      "(largest %zu)\n",
      qs.requests, qs.batches, qs.max_coalesced);
  std::printf(
      "Note: sharding pays off once filtering/candidate construction is a\n"
      "real fraction of query time or shards map to separate NUMA nodes;\n"
      "range sharding additionally skips distant shards per query\n"
      "(pruned_per_query). A straggler request's shard tasks are stolen by\n"
      "idle workers at the batch tail.\n");
  return 0;
}
