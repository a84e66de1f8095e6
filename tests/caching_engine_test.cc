// Lockdown tests for the memoizing CachingEngine tier: cold-miss → warm-hit
// behavior on repeated streams, the exactness contract (every fingerprint
// field keys the cache, LRU eviction never changes an answer bit),
// capacity-0 pass-through, a capacity near SIZE_MAX, CacheStats plumbing,
// hits that never wait behind a pending miss, and a concurrent-Submit
// stress test shared with the TSan CI job (this file carries the `engine`
// CTest label).
#include "engine/caching_engine.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "differential_testutil.h"
#include "engine/query_engine.h"
#include "manual_engine.h"

namespace pverify {
namespace {

Dataset TestDataset(size_t count = 250) {
  return datagen::MakeUniformScatter(count, 250.0, 2.0, /*seed=*/3);
}

std::vector<double> TestQueryPoints(size_t count = 6) {
  return datagen::MakeQueryPoints(count, 0.0, 250.0, /*seed=*/21);
}

QueryOptions OptionsFor(Strategy strategy) {
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = strategy;
  opt.report_probabilities = true;
  return opt;
}

std::vector<QueryRequest> PointBatch(const std::vector<double>& points,
                                     const QueryOptions& opt) {
  std::vector<QueryRequest> batch;
  for (double q : points) batch.push_back(PointQuery{q, opt});
  return batch;
}

// The backend shapes the cache tier must be transparent over: one shard
// and two.
std::unique_ptr<Engine> MakeBackend(size_t shards, const Dataset& data) {
  return std::make_unique<QueryEngine>(data, EngineOptions{2, shards});
}

// A repeated stream turns into misses once and hits forever after — for
// every strategy, over both backends, with every warm answer bit-identical
// to the cold one and flagged served_from_cache.
TEST(CachingEngineTest, ColdMissesThenWarmHitsAllStrategiesBothBackends) {
  Dataset data = TestDataset();
  const std::vector<double> points = TestQueryPoints();
  for (size_t shards : {1u, 2u}) {
    for (Strategy strategy : {Strategy::kBasic, Strategy::kRefine,
                              Strategy::kVR, Strategy::kMonteCarlo}) {
      const std::string what = std::to_string(shards) + " shards " +
                               std::string(ToString(strategy));
      std::unique_ptr<Engine> backend = MakeBackend(shards, data);
      CachingEngine cached(*backend);

      const QueryOptions opt = OptionsFor(strategy);
      EngineStats cold_stats;
      std::vector<QueryResult> cold =
          cached.ExecuteBatch(PointBatch(points, opt), &cold_stats);
      EXPECT_EQ(cold_stats.cache.misses, points.size()) << what;
      EXPECT_EQ(cold_stats.cache.hits, 0u) << what;
      EXPECT_EQ(cold_stats.cache.entries, points.size()) << what;
      EXPECT_GT(cold_stats.cache.bytes, 0u) << what;

      EngineStats warm_stats;
      std::vector<QueryResult> warm =
          cached.ExecuteBatch(PointBatch(points, opt), &warm_stats);
      EXPECT_EQ(warm_stats.cache.hits, points.size()) << what;
      EXPECT_EQ(warm_stats.cache.misses, 0u) << what;
      EXPECT_EQ(warm_stats.cache.rechecks, 0u) << what;

      ASSERT_EQ(cold.size(), warm.size()) << what;
      for (size_t i = 0; i < cold.size(); ++i) {
        EXPECT_FALSE(cold[i].stats.served_from_cache) << what;
        EXPECT_TRUE(warm[i].stats.served_from_cache) << what;
        testutil::ExpectEquivalentResult(
            cold[i], warm[i], what + " request " + std::to_string(i));
      }
      EXPECT_DOUBLE_EQ(cached.GetCacheStats().HitRate(), 0.5) << what;
    }
  }
}

// The differential harness drives a randomized mixed-kind stream (point,
// min, max, knn, candidate-set) through cache-wrapped variants of both
// backends for several rounds — the first round populates, later rounds
// serve memoized answers — through ExecuteBatch AND the async Submit
// path. Every answer must match the executors bit for bit.
TEST(CachingEngineTest, MixedStreamBitIdenticalToUncachedOverRounds) {
  Dataset data = TestDataset(300);
  testutil::ExecutorReference reference(data);
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<double> points = TestQueryPoints(8);

  std::vector<testutil::RequestFactory> stream =
      testutil::MakeMixedKindStream(points, opt, /*seed=*/11);
  const CpnnExecutor& exec = reference.exec();
  for (double q : points) {
    stream.push_back([&exec, q, opt] {
      FilterResult filtered = exec.Filter(q);
      return QueryRequest(CandidatesQuery(
          CandidateSet::Build1D(exec.dataset(), filtered.candidates, q),
          opt));
    });
  }

  std::unique_ptr<Engine> one_shard = MakeBackend(1, data);
  std::unique_ptr<Engine> two_shards = MakeBackend(2, data);
  CachingEngine cached_one_shard(*one_shard);
  CachingEngine cached_two_shards(*two_shards);
  // A deliberately tiny cache so later rounds also exercise eviction.
  CachingEngineOptions tiny;
  tiny.capacity = 4;
  std::unique_ptr<Engine> tiny_backend = MakeBackend(1, data);
  CachingEngine cached_tiny(*tiny_backend, tiny);

  testutil::DifferentialConfig config;
  config.rounds = 3;
  config.exercise_submit = true;
  testutil::RunDifferentialStream(reference,
                                  {{"cached 1 shard", &cached_one_shard},
                                   {"cached 2 shards", &cached_two_shards},
                                   {"cached tiny-lru", &cached_tiny}},
                                  stream, config);

  // The big caches really served from memory on the warm rounds…
  EXPECT_GT(cached_one_shard.GetCacheStats().hits, 0u);
  EXPECT_GT(cached_two_shards.GetCacheStats().hits, 0u);
  // …and the tiny one really evicted.
  EXPECT_GT(cached_tiny.GetCacheStats().evictions, 0u);
}

// A capacity far below the working set evicts constantly; answers still
// match the uncached reference on every round and the entry count never
// exceeds the configured capacity.
TEST(CachingEngineTest, LruEvictionNeverChangesAnswers) {
  Dataset data = TestDataset();
  QueryEngine backend(data, EngineOptions{2});
  testutil::ExecutorReference reference(data);
  CachingEngineOptions copt;
  copt.capacity = 4;
  CachingEngine cached(backend, copt);

  const std::vector<double> points =
      datagen::MakeQueryPoints(12, 0.0, 250.0, /*seed=*/7);
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  for (int round = 0; round < 3; ++round) {
    std::vector<QueryResult> got =
        cached.ExecuteBatch(PointBatch(points, opt));
    for (size_t i = 0; i < points.size(); ++i) {
      testutil::ExpectEquivalentResult(
          reference.Execute(PointQuery{points[i], opt}), got[i],
          "evicting round " + std::to_string(round) + " request " +
              std::to_string(i));
    }
    EXPECT_LE(cached.GetCacheStats().entries, copt.capacity);
  }
  EXPECT_GT(cached.GetCacheStats().evictions, 0u);
}

// capacity == 0 is a pure pass-through: nothing is ever stored or looked
// up, every request is a bypass, and answers match the backend.
TEST(CachingEngineTest, CapacityZeroIsPassThrough) {
  Dataset data = TestDataset();
  QueryEngine backend(data, EngineOptions{2});
  testutil::ExecutorReference reference(data);
  CachingEngineOptions copt;
  copt.capacity = 0;
  CachingEngine cached(backend, copt);

  const std::vector<double> points = TestQueryPoints();
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  for (int round = 0; round < 2; ++round) {
    EngineStats stats;
    std::vector<QueryResult> got =
        cached.ExecuteBatch(PointBatch(points, opt), &stats);
    EXPECT_EQ(stats.cache.bypasses, points.size());
    EXPECT_EQ(stats.cache.hits, 0u);
    EXPECT_EQ(stats.cache.misses, 0u);
    EXPECT_EQ(stats.cache.entries, 0u);
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_FALSE(got[i].stats.served_from_cache);
      testutil::ExpectEquivalentResult(
          reference.Execute(PointQuery{points[i], opt}), got[i],
          "pass-through round " + std::to_string(round));
    }
  }
  EXPECT_EQ(cached.GetCacheStats().HitRate(), 0.0);
}

// A capacity near SIZE_MAX must not overflow the per-stripe cap: more
// distinct points than stripes all stay cached, and a replay hits on each.
TEST(CachingEngineTest, HugeCapacityKeepsEveryEntry) {
  Dataset data = TestDataset();
  QueryEngine backend(data, EngineOptions{2});
  CachingEngine cached(
      backend, CachingEngineOptions{std::numeric_limits<size_t>::max()});

  const std::vector<double> points = TestQueryPoints(4 * kCacheShards);
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  EngineStats cold;
  cached.ExecuteBatch(PointBatch(points, opt), &cold);
  EXPECT_EQ(cold.cache.entries, points.size());
  EngineStats warm;
  cached.ExecuteBatch(PointBatch(points, opt), &warm);
  EXPECT_EQ(warm.cache.hits, points.size());
  EXPECT_EQ(cached.GetCacheStats().evictions, 0u);
}

// Every answer-affecting field keys the cache: at one query point, a
// request that differs from a cached one in exactly one field is a miss —
// never a hit on its neighbor — and gets the uncached reference answer.
// A replay then hits each request's own entry.
TEST(CachingEngineTest, EveryFingerprintFieldKeysTheCache) {
  Dataset data = TestDataset();
  QueryEngine backend(data, EngineOptions{2});
  testutil::ExecutorReference reference(data);
  CachingEngine cached(backend);

  const double q = 125.0;
  const QueryOptions base = OptionsFor(Strategy::kVR);
  QueryOptions mc = base;  // the Monte-Carlo fields key an MC request
  mc.strategy = Strategy::kMonteCarlo;
  std::vector<std::pair<std::string, QueryOptions>> variants = {
      {"base", base}, {"strategy", mc}};
  auto vary = [&variants](const char* name, QueryOptions opt, auto change) {
    change(opt);
    variants.emplace_back(name, opt);
  };
  vary("threshold", base, [](QueryOptions& o) { o.params.threshold = 0.5; });
  vary("tolerance", base, [](QueryOptions& o) { o.params.tolerance = 0.05; });
  vary("refine_order", base, [](QueryOptions& o) {
    o.refine_order = RefineOrder::kLeftToRight;
  });
  vary("gauss_points", base,
       [](QueryOptions& o) { o.integration.gauss_points = 8; });
  vary("report_probabilities", base,
       [](QueryOptions& o) { o.report_probabilities = false; });
  vary("mc samples", mc, [](QueryOptions& o) { o.monte_carlo.samples = 500; });
  vary("mc seed", mc, [](QueryOptions& o) { o.monte_carlo.seed = 7; });

  std::vector<std::pair<std::string, std::function<QueryRequest()>>> requests;
  for (const auto& [name, opt] : variants) {
    requests.emplace_back(name, [q, opt = opt] { return PointQuery{q, opt}; });
  }
  requests.emplace_back("knn k=2", [q, base] { return KnnQuery{q, 2, base}; });
  requests.emplace_back("knn k=3", [q, base] { return KnnQuery{q, 3, base}; });
  requests.emplace_back("min", [base] { return MinQuery{base}; });
  requests.emplace_back("max", [base] { return MaxQuery{base}; });

  for (const auto& [name, make] : requests) {
    QueryResult got = cached.Execute(make());
    EXPECT_FALSE(got.stats.served_from_cache) << name;
    testutil::ExpectEquivalentResult(reference.Execute(make()), got, name);
  }
  CacheStats stats = cached.GetCacheStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.rechecks, 0u);
  EXPECT_EQ(stats.misses, requests.size());
  EXPECT_EQ(stats.entries, requests.size());

  for (const auto& [name, make] : requests) {
    QueryResult again = cached.Execute(make());
    EXPECT_TRUE(again.stats.served_from_cache) << name;
    testutil::ExpectEquivalentResult(reference.Execute(make()), again,
                                     name + " replay");
  }
  EXPECT_EQ(cached.GetCacheStats().hits, requests.size());
}

// Candidate-set requests carry a consumed payload and bypass the cache —
// both executions run on the backend and agree.
TEST(CachingEngineTest, CandidateRequestsBypassTheCache) {
  Dataset data = TestDataset();
  QueryEngine backend(data, EngineOptions{2});
  CachingEngine cached(backend);
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const double q = 100.0;

  const CpnnExecutor exec(data);
  auto build_request = [&] {
    FilterResult filtered = exec.Filter(q);
    return QueryRequest(CandidatesQuery(
        CandidateSet::Build1D(data, filtered.candidates, q), opt));
  };
  QueryResult a = cached.Execute(build_request());
  QueryResult b = cached.Execute(build_request());
  testutil::ExpectEquivalentResult(a, b, "bypassed candidates");
  CacheStats stats = cached.GetCacheStats();
  EXPECT_EQ(stats.bypasses, 2u);
  EXPECT_EQ(stats.hits + stats.misses + stats.rechecks, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// The owning constructor: the cache tier keeps its backend alive, and
// failures submitted through the cache surface on their own future without
// affecting the requests around them.
TEST(CachingEngineTest, OwningBackendAndSubmitFailureIsolation) {
  Dataset data = TestDataset();
  auto cached = std::make_unique<CachingEngine>(
      std::make_unique<QueryEngine>(data, EngineOptions{2}));
  const QueryOptions opt = OptionsFor(Strategy::kVR);

  std::future<QueryResult> good = cached->Submit(PointQuery{50.0, opt});
  QueryOptions bad;
  bad.params = {0.0, 0.0};  // threshold must be positive
  std::future<QueryResult> failing = cached->Submit(PointQuery{1.0, bad});
  EXPECT_THROW(failing.get(), std::logic_error);
  QueryResult first = good.get();

  // The tier still serves, and the earlier good answer is now memoized.
  QueryResult again = cached->Submit(PointQuery{50.0, opt}).get();
  EXPECT_TRUE(again.stats.served_from_cache);
  testutil::ExpectEquivalentResult(first, again, "submit after failure");
  EXPECT_GE(cached->SubmitStats().requests, 3u);
}

// The TSan stress test (CI re-runs this file under ThreadSanitizer):
// several threads stream Zipf-skewed Submits at ONE shared, small
// CachingEngine while the main thread runs batches — racing Lookup/Insert
// against eviction. Every future must resolve to the uncached reference
// answer.
TEST(CachingEngineTest, ConcurrentSubmitStressOnSharedCache) {
  Dataset data = TestDataset(200);
  QueryEngine backend(data, EngineOptions{4});
  testutil::ExecutorReference reference(data);
  CachingEngineOptions copt;
  copt.capacity = 16;  // small enough that eviction races too
  CachingEngine cached(backend, copt);

  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<double> points = TestQueryPoints(8);
  std::vector<QueryResult> expected;
  for (double q : points) {
    expected.push_back(reference.Execute(PointQuery{q, opt}));
  }

  constexpr size_t kThreads = 6;
  constexpr size_t kPerThread = 20;
  std::vector<std::vector<std::future<QueryResult>>> futures(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (size_t i = 0; i < kPerThread; ++i) {
        // Zipf-ish skew: every other request goes to the hottest point.
        const size_t p = i % 2 == 0 ? 0 : (t + i) % points.size();
        futures[t].push_back(cached.Submit(PointQuery{points[p], opt}));
      }
    });
  }
  go.store(true);
  for (int round = 0; round < 3; ++round) {
    std::vector<QueryResult> results =
        cached.ExecuteBatch(PointBatch(points, opt));
    ASSERT_EQ(results.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      testutil::ExpectEquivalentResult(expected[i], results[i],
                                       "batch under stress round " +
                                           std::to_string(round));
    }
  }
  for (std::thread& th : submitters) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(futures[t].size(), kPerThread);
    for (size_t i = 0; i < kPerThread; ++i) {
      const size_t p = i % 2 == 0 ? 0 : (t + i) % points.size();
      testutil::ExpectEquivalentResult(
          expected[p], futures[t][i].get(),
          "stress submit thread " + std::to_string(t) + " request " +
              std::to_string(i));
    }
  }
  // The skewed stream found the cache at least sometimes.
  CacheStats stats = cached.GetCacheStats();
  EXPECT_GT(stats.hits + stats.misses + stats.rechecks, 0u);
  EXPECT_EQ(cached.SubmitStats().requests, kThreads * kPerThread);
}

// Head-of-line regression: a cached request submitted behind a miss whose
// backend has not answered resolves at once, instead of waiting for the
// miss. The backend resolves only when the test says so.
TEST(CachingEngineTest, HitDoesNotWaitBehindAPendingMiss) {
  Dataset data = TestDataset();
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  ManualEngine backend(data);
  CachingEngine cached(backend);
  const QueryResult warm = cached.Execute(PointQuery{50.0, opt});

  std::future<QueryResult> miss = cached.Submit(PointQuery{120.0, opt});
  // The miss has reached the backend before the hit is submitted.
  const auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (backend.PendingCount() == 0 &&
         std::chrono::steady_clock::now() < limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(backend.PendingCount(), 1u);
  std::future<QueryResult> hit = cached.Submit(PointQuery{50.0, opt});
  const bool hit_ready =
      hit.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  EXPECT_TRUE(hit_ready) << "the hit waited behind the pending miss";
  EXPECT_EQ(miss.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(backend.PendingCount(), 1u);

  backend.ResolveAll();
  QueryResult hit_result = hit.get();
  EXPECT_TRUE(hit_result.stats.served_from_cache);
  testutil::ExpectEquivalentResult(warm, hit_result, "hit");
  testutil::ExpectEquivalentResult(backend.Execute(PointQuery{120.0, opt}),
                                   miss.get(), "miss");
  // The miss was memoized by its completion callback.
  EXPECT_TRUE(cached.Submit(PointQuery{120.0, opt}).get()
                  .stats.served_from_cache);
}

// A cache tier over a borrowed backend outlives none of its forwarded
// misses: destruction waits until the backend calls back, and the future
// resolves.
TEST(CachingEngineTest, DestructionWaitsForForwardedMisses) {
  Dataset data = TestDataset();
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  ManualEngine backend(data);
  auto cached = std::make_unique<CachingEngine>(backend);
  std::future<QueryResult> miss = cached->Submit(PointQuery{120.0, opt});

  std::atomic<bool> destroyed{false};
  std::thread destroyer([&] {
    cached.reset();
    destroyed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(destroyed.load());
  backend.ResolveAll();
  destroyer.join();
  EXPECT_TRUE(destroyed.load());
  testutil::ExpectEquivalentResult(backend.Execute(PointQuery{120.0, opt}),
                                   miss.get(), "miss resolved at teardown");
}

}  // namespace
}  // namespace pverify
