// Lockdown tests for the memoizing CachingEngine tier: cold-miss → warm-hit
// behavior on repeated streams, the exactness contract (quantized keys,
// borderline guard band, LRU eviction and epoch invalidation never change
// an answer bit), capacity-0 pass-through, CacheStats plumbing, and a
// concurrent-Submit stress test shared with the TSan CI job (this file
// carries the `engine` CTest label).
#include "engine/caching_engine.h"

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "differential_testutil.h"
#include "engine/query_engine.h"
#include "engine/sharded_engine.h"

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

// Both backend shapes the cache tier must be transparent over.
std::unique_ptr<Engine> MakeBackend(const std::string& name,
                                    const Dataset& data) {
  if (name == "sharded") {
    ShardedEngineOptions sopt;
    sopt.num_shards = 2;
    sopt.num_threads = 2;
    return std::make_unique<ShardedQueryEngine>(data, sopt);
  }
  return std::make_unique<QueryEngine>(data, EngineOptions{2});
}

// A repeated stream turns into misses once and hits forever after — for
// every strategy, over both backends, with every warm answer bit-identical
// to the cold one and flagged served_from_cache.
TEST(CachingEngineTest, ColdMissesThenWarmHitsAllStrategiesBothBackends) {
  Dataset data = TestDataset();
  const std::vector<double> points = TestQueryPoints();
  for (const char* backend_name : {"unsharded", "sharded"}) {
    for (Strategy strategy : {Strategy::kBasic, Strategy::kRefine,
                              Strategy::kVR, Strategy::kMonteCarlo}) {
      const std::string what =
          std::string(backend_name) + " " + ToString(strategy).data();
      std::unique_ptr<Engine> backend = MakeBackend(backend_name, data);
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
// serve memoized answers — through ExecuteBatch AND the coalescing Submit
// path. Every answer must match the uncached single-thread reference bit
// for bit.
TEST(CachingEngineTest, MixedStreamBitIdenticalToUncachedOverRounds) {
  Dataset data = TestDataset(300);
  QueryEngine reference(data, EngineOptions{1});
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<double> points = TestQueryPoints(8);

  std::vector<testutil::RequestFactory> stream =
      testutil::MakeMixedKindStream(points, opt, /*seed=*/11);
  const CpnnExecutor& exec = reference.executor();
  for (double q : points) {
    stream.push_back([&exec, q, opt] {
      FilterResult filtered = exec.Filter(q);
      return QueryRequest(CandidatesQuery(
          CandidateSet::Build1D(exec.dataset(), filtered.candidates, q),
          opt));
    });
  }

  std::unique_ptr<Engine> unsharded = MakeBackend("unsharded", data);
  std::unique_ptr<Engine> sharded = MakeBackend("sharded", data);
  CachingEngine cached_unsharded(*unsharded);
  CachingEngine cached_sharded(*sharded);
  // A deliberately tiny cache so later rounds also exercise eviction.
  CachingEngineOptions tiny;
  tiny.capacity = 4;
  tiny.num_shards = 2;
  std::unique_ptr<Engine> tiny_backend = MakeBackend("unsharded", data);
  CachingEngine cached_tiny(*tiny_backend, tiny);

  testutil::DifferentialConfig config;
  config.rounds = 3;
  config.exercise_submit = true;
  testutil::RunDifferentialStream(reference,
                                  {{"cached unsharded", &cached_unsharded},
                                   {"cached sharded", &cached_sharded},
                                   {"cached tiny-lru", &cached_tiny}},
                                  stream, config);

  // The big caches really served from memory on the warm rounds…
  EXPECT_GT(cached_unsharded.GetCacheStats().hits, 0u);
  EXPECT_GT(cached_sharded.GetCacheStats().hits, 0u);
  // …and the tiny one really evicted.
  EXPECT_GT(cached_tiny.GetCacheStats().evictions, 0u);
}

// Entries whose probability bounds sit inside the guard band are marked
// borderline and recheck on every lookup — never served from memory.
TEST(CachingEngineTest, BorderlineEntriesAlwaysRecheck) {
  Dataset data = TestDataset();
  QueryEngine backend(data, EngineOptions{2});
  QueryEngine reference(data, EngineOptions{1});
  // Probabilities live in [0, 1] and the threshold is 0.3, so a band of
  // 1.0 makes every reported bound borderline by construction.
  CachingEngineOptions copt;
  copt.guard_band = 1.0;
  CachingEngine cached(backend, copt);

  const std::vector<double> points = TestQueryPoints();
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  for (int round = 0; round < 3; ++round) {
    EngineStats stats;
    std::vector<QueryResult> got =
        cached.ExecuteBatch(PointBatch(points, opt), &stats);
    EXPECT_EQ(stats.cache.hits, 0u) << "round " << round;
    if (round == 0) {
      EXPECT_EQ(stats.cache.misses, points.size());
    } else {
      // The entries exist but every one rechecks.
      EXPECT_EQ(stats.cache.rechecks, points.size()) << "round " << round;
      EXPECT_EQ(stats.cache.misses, 0u) << "round " << round;
    }
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_FALSE(got[i].stats.served_from_cache);
      testutil::ExpectEquivalentResult(
          reference.Execute(PointQuery{points[i], opt}), got[i],
          "borderline round " + std::to_string(round));
    }
  }
  EXPECT_EQ(cached.GetCacheStats().hits, 0u);
}

// A capacity far below the working set evicts constantly; answers still
// match the uncached reference on every round and the entry count never
// exceeds the configured capacity.
TEST(CachingEngineTest, LruEvictionNeverChangesAnswers) {
  Dataset data = TestDataset();
  QueryEngine backend(data, EngineOptions{2});
  QueryEngine reference(data, EngineOptions{1});
  CachingEngineOptions copt;
  copt.capacity = 4;
  copt.num_shards = 1;
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

// BumpEpoch drops the whole cache: entries go to zero, the next round
// misses wholesale, and hits only resume after re-population.
TEST(CachingEngineTest, EpochBumpInvalidatesWholesale) {
  Dataset data = TestDataset();
  QueryEngine backend(data, EngineOptions{2});
  CachingEngine cached(backend);
  const std::vector<double> points = TestQueryPoints();
  const QueryOptions opt = OptionsFor(Strategy::kVR);

  cached.ExecuteBatch(PointBatch(points, opt));
  EXPECT_EQ(cached.GetCacheStats().entries, points.size());
  EXPECT_EQ(cached.epoch(), 0u);

  cached.BumpEpoch();
  EXPECT_EQ(cached.epoch(), 1u);
  CacheStats after_bump = cached.GetCacheStats();
  EXPECT_EQ(after_bump.entries, 0u);
  EXPECT_EQ(after_bump.bytes, 0u);
  EXPECT_EQ(after_bump.invalidations, points.size());

  EngineStats repopulate;
  cached.ExecuteBatch(PointBatch(points, opt), &repopulate);
  EXPECT_EQ(repopulate.cache.misses, points.size());
  EXPECT_EQ(repopulate.cache.hits, 0u);

  EngineStats warm;
  cached.ExecuteBatch(PointBatch(points, opt), &warm);
  EXPECT_EQ(warm.cache.hits, points.size());
}

// capacity == 0 is a pure pass-through: nothing is ever stored or looked
// up, every request is a bypass, and answers match the backend.
TEST(CachingEngineTest, CapacityZeroIsPassThrough) {
  Dataset data = TestDataset();
  QueryEngine backend(data, EngineOptions{2});
  QueryEngine reference(data, EngineOptions{1});
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

// Coarse quantization collapses distinct queries onto one cache slot —
// which bounds cardinality but must never serve one point's answer for
// another: same-cell lookups with a different exact point recheck.
TEST(CachingEngineTest, QuantizationBoundsCardinalityNotAnswers) {
  Dataset data = TestDataset();
  QueryEngine backend(data, EngineOptions{2});
  QueryEngine reference(data, EngineOptions{1});
  CachingEngineOptions copt;
  copt.point_quantum = 1000.0;  // the whole domain is one cell
  copt.num_shards = 1;
  CachingEngine cached(backend, copt);

  const std::vector<double> points = TestQueryPoints();
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  // The batch path looks every request up before inserting any result, so
  // the cold round misses wholesale — but all six same-cell inserts then
  // collapse onto ONE entry (the last request in batch order owns it).
  EngineStats stats;
  std::vector<QueryResult> got =
      cached.ExecuteBatch(PointBatch(points, opt), &stats);
  EXPECT_EQ(stats.cache.misses, points.size());
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.entries, 1u);
  for (size_t i = 0; i < points.size(); ++i) {
    testutil::ExpectEquivalentResult(
        reference.Execute(PointQuery{points[i], opt}), got[i],
        "quantized request " + std::to_string(i));
  }
  // Replaying the stream: the cell owner hits; every other point lands on
  // the occupied cell, rechecks (exact fingerprint mismatch), and computes
  // its own answer — coarse keys never substitute a neighbor's result.
  EngineStats warm_stats;
  std::vector<QueryResult> warm =
      cached.ExecuteBatch(PointBatch(points, opt), &warm_stats);
  EXPECT_EQ(warm_stats.cache.hits, 1u);
  EXPECT_EQ(warm_stats.cache.rechecks, points.size() - 1);
  EXPECT_EQ(warm_stats.cache.misses, 0u);
  EXPECT_EQ(warm_stats.cache.entries, 1u);
  for (size_t i = 0; i < points.size(); ++i) {
    testutil::ExpectEquivalentResult(
        reference.Execute(PointQuery{points[i], opt}), warm[i],
        "quantized replay " + std::to_string(i));
  }
}

// Bucketed thresholds share a coarse key, but a lookup with different
// options must compute its own answer — never the cached neighbor's.
TEST(CachingEngineTest, OptionChangesNeverServeStaleAnswers) {
  Dataset data = TestDataset();
  QueryEngine backend(data, EngineOptions{2});
  QueryEngine reference(data, EngineOptions{1});
  CachingEngineOptions copt;
  copt.threshold_quantum = 1.0;  // 0.3 and 0.5 share one bucket
  copt.num_shards = 1;
  CachingEngine cached(backend, copt);

  const double q = 125.0;
  QueryOptions low = OptionsFor(Strategy::kVR);
  QueryOptions high = OptionsFor(Strategy::kVR);
  high.params.threshold = 0.5;

  QueryResult first = cached.Execute(PointQuery{q, low});
  QueryResult second = cached.Execute(PointQuery{q, high});
  EXPECT_FALSE(second.stats.served_from_cache);
  testutil::ExpectEquivalentResult(reference.Execute(PointQuery{q, high}),
                                   second, "same-bucket different threshold");
  testutil::ExpectEquivalentResult(reference.Execute(PointQuery{q, low}),
                                   first, "low threshold");
  CacheStats stats = cached.GetCacheStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.rechecks, 1u);  // the 0.5 lookup found the 0.3 entry
}

// Candidate-set requests carry a consumed payload and bypass the cache —
// both executions run on the backend and agree.
TEST(CachingEngineTest, CandidateRequestsBypassTheCache) {
  Dataset data = TestDataset();
  QueryEngine backend(data, EngineOptions{2});
  CachingEngine cached(backend);
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const double q = 100.0;

  auto build_request = [&] {
    FilterResult filtered = backend.executor().Filter(q);
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

// The owning factory: the cache tier keeps its backend alive, and failures
// submitted through the cache surface on their own future without
// poisoning the queue.
TEST(CachingEngineTest, OwningFactoryAndSubmitFailureIsolation) {
  Dataset data = TestDataset();
  std::unique_ptr<CachingEngine> cached = MakeCachingEngine(
      std::make_unique<QueryEngine>(data, EngineOptions{2}));
  const QueryOptions opt = OptionsFor(Strategy::kVR);

  std::future<QueryResult> good = cached->Submit(PointQuery{50.0, opt});
  QueryOptions bad;
  bad.params = {0.0, 0.0};  // threshold must be positive
  std::future<QueryResult> failing = cached->Submit(PointQuery{1.0, bad});
  EXPECT_THROW(failing.get(), std::logic_error);
  QueryResult first = good.get();

  // The queue still serves, and the earlier good answer is now memoized.
  QueryResult again = cached->Submit(PointQuery{50.0, opt}).get();
  EXPECT_TRUE(again.stats.served_from_cache);
  testutil::ExpectEquivalentResult(first, again, "submit after failure");
  EXPECT_GE(cached->SubmitStats().requests, 3u);
}

// The TSan stress test (CI re-runs this file under ThreadSanitizer):
// several threads stream Zipf-skewed Submits at ONE shared CachingEngine
// while the main thread runs batches and bumps the dataset epoch — racing
// Lookup/Insert against wholesale invalidation. Every future must resolve
// to the uncached reference answer.
TEST(CachingEngineTest, ConcurrentSubmitStressOnSharedCache) {
  Dataset data = TestDataset(200);
  QueryEngine backend(data, EngineOptions{4});
  QueryEngine reference(data, EngineOptions{1});
  CachingEngineOptions copt;
  copt.capacity = 16;  // small enough that eviction races too
  copt.num_shards = 4;
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
    cached.BumpEpoch();  // invalidation races the submit streams
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

}  // namespace
}  // namespace pverify
