// pverify command-line tool: run probabilistic queries against a dataset
// file (see datagen/dataset_io.h for the format).
//
//   pverify_cli pnn   <dataset> <q>                 exact probabilities
//   pverify_cli cpnn  <dataset> <q> <P> [tolerance] C-PNN answer (VR)
//   pverify_cli knn   <dataset> <q> <k> <P>         constrained k-NN
//   pverify_cli range <dataset> <lo> <hi> [P]       range probabilities
//   pverify_cli stats <dataset>                     dataset summary
//   pverify_cli batch <dataset> <n> [threads] [P]   batched throughput run
//
// batch also understands flags (anywhere after the positionals):
//   --shards=N         scatter/gather across N range shards
//   --async            drive the run through Submit() futures
//   --cache=N          wrap the engine in a CachingEngine memoizing up to
//                      N results (exact answers; see caching_engine.h) and
//                      replay the batch once warm to show the hit path
//   --dim=2            2-D workload: <dataset> becomes an object count and
//                      a synthetic 2-D dataset + query workload is
//                      generated (engine-native kPoint2D requests); the
//                      other batch flags compose.
//   --connect=H:P      client mode: ship the batch to a running
//                      pverify_serve at host H port P through the net
//                      client library (pipelined frames) instead of
//                      building a local engine; the local sequential loop
//                      still runs as the baseline/equivalence check. The
//                      engine-shape flags (--shards/--async/--cache)
//                      belong to the server in this mode.
//   --retries=N        (--connect only) total attempts per request through
//                      net::RetryingClient — reconnects and retries
//                      kOverloaded/kShuttingDown/timeout answers with
//                      exponential backoff (default 3; 1 = never retry)
//   --deadline-ms=N    (--connect only) per-request deadline stamped on
//                      each frame; the server answers kDeadlineExceeded
//                      instead of running an expired request (default 0 =
//                      no deadline)
//
// Counts (objects, queries, threads, k and the N of every flag) are
// digits only; anything else prints the usage and exits 2.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "core/query.h"
#include "core/range_query.h"
#include "datagen/dataset_io.h"
#include "datagen/workload.h"
#include "common/timer.h"
#include "engine/caching_engine.h"
#include "engine/engine.h"
#include "engine/query_engine.h"
#include "net/client.h"
#include "net/retry.h"
#include "parse_size.h"

using namespace pverify;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  pverify_cli pnn   <dataset> <q>\n"
      "  pverify_cli cpnn  <dataset> <q> <P> [tolerance]\n"
      "  pverify_cli knn   <dataset> <q> <k> <P>\n"
      "  pverify_cli range <dataset> <lo> <hi> [P]\n"
      "  pverify_cli stats <dataset>\n"
      "  pverify_cli batch <dataset> <num_queries> [threads] [P] "
      "[tolerance]\n"
      "               [--shards=N] [--async] [--dim=2]\n"
      "               [--cache=N] [--connect=host:port] [--retries=N] "
      "[--deadline-ms=N]\n"
      "               (--dim=2 reads <dataset> as a synthetic 2-D object "
      "count;\n"
      "                --cache=N memoizes up to N results and replays the "
      "batch warm)\n");
  return 2;
}

/// Options carried by the batch mode's --flags.
struct BatchFlags {
  size_t shards = 1;  ///< range shards of the QueryEngine
  bool async = false;
  int dim = 1;  ///< 2 = synthetic 2-D workload through kPoint2D
  size_t cache = 0;  ///< 0 = no caching tier; N = CachingEngine capacity
  std::string connect;  ///< "host:port" = remote batch via pverify_serve
  int retries = 3;      ///< --connect: attempts per request (1 = no retry)
  uint32_t deadline_ms = 0;  ///< --connect: per-request deadline (0 = none)
};

double ParseDouble(const char* s) {
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "error: not a number: %s\n", s);
    std::exit(2);
  }
  return v;
}

// A count in [min, max] (see ParseSize); anything else is a usage error.
size_t ParseCount(const char* s, size_t min = 0, size_t max = SIZE_MAX) {
  size_t n = 0;
  if (!ParseSize(s, &n) || n < min || n > max) {
    std::fprintf(stderr, "error: bad count: %s\n", s);
    std::exit(Usage());
  }
  return n;
}

int RunPnn(const Dataset& data, double q) {
  CpnnExecutor exec(data);
  auto probs = exec.ComputePnn(q);
  std::printf("# %zu candidate(s) at q = %g\n", probs.size(), q);
  for (const auto& [id, p] : probs) {
    std::printf("%lld %.6f\n", static_cast<long long>(id), p);
  }
  return 0;
}

int RunCpnn(const Dataset& data, double q, double threshold,
            double tolerance) {
  CpnnExecutor exec(data);
  QueryOptions opt;
  opt.params = {threshold, tolerance};
  opt.strategy = Strategy::kVR;
  QueryAnswer ans = exec.Execute(q, opt);
  std::printf("# C-PNN q=%g P=%g tolerance=%g — %zu answer(s), "
              "%zu candidate(s), %zu refined\n",
              q, threshold, tolerance, ans.ids.size(), ans.stats.candidates,
              ans.stats.refined_candidates);
  for (ObjectId id : ans.ids) {
    std::printf("%lld\n", static_cast<long long>(id));
  }
  return 0;
}

int RunKnn(const Dataset& data, double q, int k, double threshold) {
  CpnnExecutor exec(data);
  CknnAnswer ans = exec.ExecuteKnn(q, k, {threshold, 0.0});
  std::printf("# C-PkNN q=%g k=%d P=%g — %zu answer(s), %zu pruned by "
              "bound, %zu decided early\n",
              q, k, threshold, ans.ids.size(), ans.pruned_by_bound,
              ans.early_decided);
  for (ObjectId id : ans.ids) {
    std::printf("%lld\n", static_cast<long long>(id));
  }
  return 0;
}

int RunRange(const Dataset& data, double lo, double hi, double threshold) {
  RangeQueryExecutor exec(data);
  auto results = exec.Execute(lo, hi, threshold);
  std::printf("# range [%g, %g] P>=%g — %zu object(s)\n", lo, hi, threshold,
              results.size());
  for (const RangeResult& r : results) {
    std::printf("%lld %.6f\n", static_cast<long long>(r.id), r.probability);
  }
  return 0;
}

// Fails the batch when a run's answers differ from the sequential
// baseline's, naming the first request whose sorted ids disagree.
bool AnswersMatch(const char* what, const bench::ThroughputPoint& seq,
                  const bench::ThroughputPoint& run) {
  if (seq.answers == run.answers) return true;
  const auto bad = std::mismatch(seq.answers.begin(), seq.answers.end(),
                                 run.answers.begin(), run.answers.end());
  std::fprintf(stderr, "error: %s answer mismatch at request %zu\n", what,
               static_cast<size_t>(bad.first - seq.answers.begin()));
  return false;
}

// Shared tail of the batch modes: throughput/phase report + the sequential
// vs. batched per-request answer check.
int ReportBatch(const bench::ThroughputPoint& seq,
                const bench::ThroughputPoint& batched,
                const EngineStats& stats, const BatchFlags& flags,
                double threshold, double tolerance, size_t num_queries,
                size_t engine_threads) {
  std::printf("# batch P=%g tolerance=%g queries=%zu threads=%zu dim=%d\n",
              threshold, tolerance, num_queries, engine_threads, flags.dim);
  std::printf("sequential:   %10.2f ms  %10.1f q/s  %zu answers\n",
              seq.wall_ms, seq.Qps(), seq.AnswerCount());
  std::printf("batched:      %10.2f ms  %10.1f q/s  %zu answers\n",
              batched.wall_ms, batched.Qps(), batched.AnswerCount());
  std::printf("speedup:      %10.2fx\n",
              batched.wall_ms > 0 ? seq.wall_ms / batched.wall_ms : 0.0);
  if (stats.queries > 0) {  // the async stream reports no batch aggregate
    std::printf("phases (of summed query time): filter %.1f%% | init %.1f%% "
                "| verify %.1f%% | refine %.1f%%\n",
                100 * stats.PhaseFraction(&QueryStats::filter_ms),
                100 * stats.PhaseFraction(&QueryStats::init_ms),
                100 * stats.PhaseFraction(&QueryStats::verify_ms),
                100 * stats.PhaseFraction(&QueryStats::refine_ms));
    for (size_t s = 0; s < kNumStages; ++s) {
      const EngineStats::StageTotal& st = stats.verifier_stages[s];
      if (st.runs == 0) continue;
      std::printf("verifier %-5s %10.2f ms over %zu runs\n",
                  StageName(static_cast<StageId>(s)), st.ms, st.runs);
    }
  }
  return AnswersMatch("batched", seq, batched) ? 0 : 1;
}

// Builds the batch-mode engine from the --flags: the ONLY place the batch
// modes choose shard count and caching. Everything downstream runs against
// Engine&. The out-params hand back the QueryEngine for its scatter
// telemetry and the caching tier for its stats (null when absent).
template <typename Data>
std::unique_ptr<Engine> MakeBatchEngine(const BatchFlags& flags,
                                        size_t threads, const Data& data,
                                        QueryEngine** query_engine_out,
                                        CachingEngine** cache_out) {
  *cache_out = nullptr;
  EngineOptions eopt;
  eopt.num_threads = threads;  // 0 = hardware concurrency
  eopt.num_shards = flags.shards;
  auto query_engine = std::make_unique<QueryEngine>(data, eopt);
  *query_engine_out = query_engine.get();
  std::unique_ptr<Engine> engine = std::move(query_engine);
  if (flags.cache > 0) {
    auto cache = std::make_unique<CachingEngine>(
        std::move(engine), CachingEngineOptions{flags.cache});
    *cache_out = cache.get();
    engine = std::move(cache);
  }
  return engine;
}

// Shared tail of the batch modes once the engine exists: timed batched (or
// async-streamed) run against the sequential baseline, shard telemetry
// when sharded, report. The engine is only ever touched as Engine&.
template <typename Point>
int RunBatchOnEngine(Engine& engine, const QueryEngine& query_engine,
                     CachingEngine* cache,
                     const bench::ThroughputPoint& seq,
                     const std::vector<Point>& points,
                     const QueryOptions& opt, const BatchFlags& flags,
                     double threshold, double tolerance) {
  EngineStats stats;
  bench::ThroughputPoint batched =
      flags.async ? bench::TimeSubmitStream(engine, points, opt)
                  : bench::TimeBatch(engine, points, opt, &stats);
  if (query_engine.num_shards() > 1) {
    std::printf("# sharded: %zu range shards, %zu shard visits, "
                "%zu pruned by bounds\n",
                query_engine.num_shards(), query_engine.ShardVisits(),
                query_engine.ShardsPruned());
  }
  if (cache != nullptr) {
    // The first pass populated the memo; replay the same workload warm so
    // the hit path shows up (answers stay bit-identical either way).
    bench::ThroughputPoint warm =
        flags.async ? bench::TimeSubmitStream(engine, points, opt)
                    : bench::TimeBatch(engine, points, opt);
    CacheStats cs = cache->GetCacheStats();
    std::printf("# cache: capacity=%zu entries=%zu hits=%zu misses=%zu "
                "rechecks=%zu bypasses=%zu hit_rate=%.3f\n",
                cache->options().capacity, cs.entries, cs.hits, cs.misses,
                cs.rechecks, cs.bypasses, cs.HitRate());
    std::printf("cache replay: %10.2f ms  %10.1f q/s  %zu answers\n",
                warm.wall_ms, warm.Qps(), warm.AnswerCount());
    if (!AnswersMatch("cached replay", seq, warm)) return 1;
  }
  return ReportBatch(seq, batched, stats, flags, threshold, tolerance,
                     points.size(), engine.num_threads());
}

// Client-mode tail of the batch modes (--connect): pipeline the whole
// workload to a running pverify_serve through the net client library and
// report it against the local sequential baseline. The per-query stats the
// server sends back are accumulated exactly as a local batch would, so the
// phase breakdown still prints.
template <typename Point>
int RunRemoteBatch(const bench::ThroughputPoint& seq,
                   const std::vector<Point>& points, const QueryOptions& opt,
                   const BatchFlags& flags, double threshold,
                   double tolerance) {
  const size_t colon = flags.connect.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    std::fprintf(stderr, "error: --connect expects host:port\n");
    return 2;
  }
  const std::string host = flags.connect.substr(0, colon);
  const int port = std::atoi(flags.connect.c_str() + colon + 1);
  if (port < 1 || port > 65535) {
    std::fprintf(stderr, "error: bad port in --connect\n");
    return 2;
  }

  // A bounded recv timeout keeps a stalled/faulty server from hanging the
  // CLI: with a deadline we know how long an answer can legitimately take;
  // without one, fall back to a generous fixed bound.
  net::ClientOptions copt;
  copt.recv_timeout_ms = flags.deadline_ms > 0
                             ? flags.deadline_ms * 2 + 2000
                             : 30000;
  net::RetryPolicy policy;
  policy.max_attempts = flags.retries;
  net::RetryingClient client(host, static_cast<uint16_t>(port), copt,
                             policy);
  std::vector<QueryRequest> requests;
  requests.reserve(points.size());
  for (Point q : points) {
    requests.push_back(bench::MakePointRequest(q, opt));
  }
  bench::ThroughputPoint remote;
  remote.queries = points.size();
  Timer wall;
  std::vector<net::ServeResponse> responses =
      client.Call(requests, flags.deadline_ms);
  remote.wall_ms = wall.ElapsedMs();

  EngineStats stats;
  for (const net::ServeResponse& r : responses) {
    if (!r.ok) {
      std::fprintf(stderr, "error: request failed after %d attempt(s): %s\n",
                   flags.retries, r.error.c_str());
      return 1;
    }
    remote.AddAnswer(r.result.ids);
    AccumulateBatchResult(r.result.stats, &stats);
  }
  stats.wall_ms = remote.wall_ms;
  const net::ClientStats& cstats = client.stats();
  std::printf("# remote: %s (%zu pipelined requests", flags.connect.c_str(),
              responses.size());
  if (stats.cache.hits > 0) {
    std::printf(", %zu served from the server cache", stats.cache.hits);
  }
  if (cstats.retries > 0 || cstats.reconnects > 0) {
    std::printf(", %llu retries, %llu reconnects",
                static_cast<unsigned long long>(cstats.retries),
                static_cast<unsigned long long>(cstats.reconnects));
  }
  std::printf(")\n");
  return ReportBatch(seq, remote, stats, flags, threshold, tolerance,
                     points.size(), /*engine_threads=*/0);
}

// Batched throughput mode: random query points over the dataset's domain,
// run once as a sequential loop and once through the multi-threaded engine
// (any shard count, blocking batch or async Submit stream).
int RunBatch(const Dataset& data, size_t num_queries, size_t threads,
             double threshold, double tolerance, const BatchFlags& flags) {
  if (data.empty()) {
    std::fprintf(stderr, "error: empty dataset\n");
    return 1;
  }
  double lo = data.front().lo(), hi = data.front().hi();
  for (const UncertainObject& obj : data) {
    lo = std::min(lo, obj.lo());
    hi = std::max(hi, obj.hi());
  }
  const std::vector<double> points =
      datagen::MakeQueryPoints(num_queries, lo, hi, /*seed=*/101);

  QueryOptions opt;
  opt.params = {threshold, tolerance};
  opt.strategy = Strategy::kVR;

  // Sequential baseline (one-query-at-a-time loop), then the batched
  // engine, both timed by the shared bench helpers.
  CpnnExecutor exec(data);
  bench::ThroughputPoint seq = bench::TimeSequentialLoop(exec, points, opt);

  if (!flags.connect.empty()) {
    return RunRemoteBatch(seq, points, opt, flags, threshold, tolerance);
  }

  QueryEngine* query_engine = nullptr;
  CachingEngine* cache = nullptr;
  std::unique_ptr<Engine> engine =
      MakeBatchEngine(flags, threads, data, &query_engine, &cache);
  return RunBatchOnEngine(*engine, *query_engine, cache, seq, points, opt,
                          flags, threshold, tolerance);
}

// 2-D batched throughput mode (--dim=2): synthesizes `count` uniform-pdf
// rectangles/disks plus a random 2-D query workload and drives them as
// engine-native Point2DQuery requests — sequential executor loop vs.
// batched engine, sharded and async composing exactly as in 1-D.
int RunBatch2D(size_t count, size_t num_queries, size_t threads,
               double threshold, double tolerance, const BatchFlags& flags) {
  datagen::Synthetic2DConfig config;
  config.count = count;
  Dataset2D data = datagen::MakeSynthetic2D(config);
  const std::vector<Point2> points =
      datagen::MakeQueryPoints2D(num_queries, 0.0, config.domain,
                                 /*seed=*/103);

  QueryOptions opt;
  opt.params = {threshold, tolerance};
  opt.strategy = Strategy::kVR;

  CpnnExecutor2D exec(data);
  bench::ThroughputPoint seq = bench::TimeSequentialLoop(exec, points, opt);

  if (!flags.connect.empty()) {
    return RunRemoteBatch(seq, points, opt, flags, threshold, tolerance);
  }

  QueryEngine* query_engine = nullptr;
  CachingEngine* cache = nullptr;
  std::unique_ptr<Engine> engine =
      MakeBatchEngine(flags, threads, data, &query_engine, &cache);
  return RunBatchOnEngine(*engine, *query_engine, cache, seq, points, opt,
                          flags, threshold, tolerance);
}

int RunStats(const Dataset& data) {
  if (data.empty()) {
    std::printf("empty dataset\n");
    return 0;
  }
  double lo = data.front().lo(), hi = data.front().hi();
  double total_len = 0.0;
  size_t bars = 0;
  for (const UncertainObject& obj : data) {
    lo = std::min(lo, obj.lo());
    hi = std::max(hi, obj.hi());
    total_len += obj.hi() - obj.lo();
    bars += obj.pdf().num_bars();
  }
  std::printf("objects:        %zu\n", data.size());
  std::printf("domain:         [%g, %g]\n", lo, hi);
  std::printf("mean length:    %.4f\n", total_len / data.size());
  std::printf("mean pdf bars:  %.1f\n",
              static_cast<double>(bars) / data.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Split --flags (batch mode only) from positional arguments.
  BatchFlags flags;
  bool saw_flags = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--", 2) == 0) saw_flags = true;
    if (std::strncmp(a, "--shards=", 9) == 0) {
      flags.shards = ParseCount(a + 9, 1);
    } else if (std::strcmp(a, "--async") == 0) {
      flags.async = true;
    } else if (std::strncmp(a, "--connect=", 10) == 0) {
      flags.connect = a + 10;
    } else if (std::strncmp(a, "--retries=", 10) == 0) {
      flags.retries = static_cast<int>(ParseCount(a + 10, 1, INT_MAX));
    } else if (std::strncmp(a, "--deadline-ms=", 14) == 0) {
      flags.deadline_ms =
          static_cast<uint32_t>(ParseCount(a + 14, 0, UINT32_MAX));
    } else if (std::strncmp(a, "--cache=", 8) == 0) {
      flags.cache = ParseCount(a + 8);
    } else if (std::strncmp(a, "--dim=", 6) == 0) {
      flags.dim = static_cast<int>(ParseCount(a + 6, 1, 2));
    } else if (std::strncmp(a, "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown flag %s\n", a);
      return 2;
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (argc < 3) return Usage();
  const std::string cmd = argv[1];
  if (saw_flags && cmd != "batch") {
    std::fprintf(stderr,
                 "error: --shards/--async/--dim/--cache/"
                 "--connect/--retries/--deadline-ms apply to batch only\n");
    return 2;
  }
  if (flags.connect.empty() &&
      (flags.retries != 3 || flags.deadline_ms != 0)) {
    std::fprintf(stderr,
                 "error: --retries/--deadline-ms only apply with "
                 "--connect\n");
    return 2;
  }
  if (!flags.connect.empty() &&
      (flags.shards != 1 || flags.async || flags.cache != 0)) {
    std::fprintf(stderr,
                 "error: --connect ships the batch to a server; the engine "
                 "shape (--shards/--async/--cache) is the server's\n");
    return 2;
  }
  // The 2-D batch mode synthesizes its dataset: <dataset> is an object
  // count, so no file is loaded (and no fallthrough to the file loader —
  // a wrong argument count is a usage error).
  if (cmd == "batch" && flags.dim == 2) {
    if (argc < 4 || argc > 7) return Usage();
    const size_t count = ParseCount(argv[2], 1);
    const size_t num_queries = ParseCount(argv[3], 1);
    const size_t threads = argc >= 5 ? ParseCount(argv[4]) : 0;
    double threshold = argc >= 6 ? ParseDouble(argv[5]) : 0.3;
    double tolerance = argc >= 7 ? ParseDouble(argv[6]) : 0.01;
    try {
      return RunBatch2D(count, num_queries, threads, threshold, tolerance,
                        flags);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  Dataset data;
  try {
    data = datagen::LoadDataset(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  try {
    if (cmd == "pnn" && argc == 4) {
      return RunPnn(data, ParseDouble(argv[3]));
    }
    if (cmd == "cpnn" && (argc == 5 || argc == 6)) {
      double tol = argc == 6 ? ParseDouble(argv[5]) : 0.0;
      return RunCpnn(data, ParseDouble(argv[3]), ParseDouble(argv[4]), tol);
    }
    if (cmd == "knn" && argc == 6) {
      return RunKnn(data, ParseDouble(argv[3]),
                    static_cast<int>(ParseCount(argv[4], 1, INT_MAX)),
                    ParseDouble(argv[5]));
    }
    if (cmd == "range" && (argc == 5 || argc == 6)) {
      double threshold = argc == 6 ? ParseDouble(argv[5]) : 0.0;
      return RunRange(data, ParseDouble(argv[3]), ParseDouble(argv[4]),
                      threshold);
    }
    if (cmd == "stats" && argc == 3) {
      return RunStats(data);
    }
    if (cmd == "batch" && argc >= 4 && argc <= 7) {
      const size_t num_queries = ParseCount(argv[3], 1);
      const size_t threads = argc >= 5 ? ParseCount(argv[4]) : 0;
      double threshold = argc >= 6 ? ParseDouble(argv[5]) : 0.3;
      double tolerance = argc >= 7 ? ParseDouble(argv[6]) : 0.01;
      return RunBatch(data, num_queries, threads, threshold, tolerance,
                      flags);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
}
