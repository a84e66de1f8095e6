#include "engine/query_engine.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "counting_new_testutil.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "differential_testutil.h"
#include "engine/caching_engine.h"
#include "engine/scratch.h"

namespace pverify {
namespace {

// Overlap-heavy dataset so verification and refinement both do real work.
Dataset TestDataset(size_t count = 500) {
  return datagen::MakeUniformScatter(count, 250.0, 2.0, /*seed=*/3);
}

std::vector<double> TestQueryPoints(size_t count = 16) {
  return datagen::MakeQueryPoints(count, 0.0, 250.0, /*seed=*/21);
}

QueryOptions OptionsFor(Strategy strategy) {
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = strategy;
  opt.report_probabilities = true;
  return opt;
}

void ExpectIdenticalAnswer(const QueryAnswer& expected,
                           const QueryResult& got, const char* what) {
  EXPECT_EQ(expected.ids, got.ids) << what;
  ASSERT_EQ(expected.candidate_probabilities.size(),
            got.candidate_probabilities.size())
      << what;
  for (size_t i = 0; i < expected.candidate_probabilities.size(); ++i) {
    const AnswerEntry& e = expected.candidate_probabilities[i];
    const AnswerEntry& g = got.candidate_probabilities[i];
    EXPECT_EQ(e.id, g.id) << what << " entry " << i;
    // Bit-identical, not approximately equal: the batched path must run the
    // exact same arithmetic as the sequential one.
    EXPECT_EQ(e.bound.lower, g.bound.lower) << what << " entry " << i;
    EXPECT_EQ(e.bound.upper, g.bound.upper) << what << " entry " << i;
  }
}

// Four-thread batches must answer bit for bit like the sequential executor
// for every strategy; only scheduling may differ. Ported onto the
// differential harness (tests/differential_testutil.h), which demands bit
// identity.
TEST(QueryEngineTest, BatchAtFourThreadsMatchesSequentialAllStrategies) {
  Dataset data = TestDataset();
  testutil::ExecutorReference reference(data);
  EngineOptions eopt;
  eopt.num_threads = 4;
  QueryEngine engine(data, eopt);
  ASSERT_EQ(engine.num_threads(), 4u);

  const std::vector<double> points = TestQueryPoints();
  for (Strategy strategy : {Strategy::kBasic, Strategy::kRefine,
                            Strategy::kVR, Strategy::kMonteCarlo}) {
    const QueryOptions opt = OptionsFor(strategy);
    std::vector<testutil::RequestFactory> stream;
    for (double q : points) {
      stream.push_back([q, opt] { return QueryRequest(PointQuery{q, opt}); });
    }
    testutil::RunDifferentialStream(
        reference, {{std::string("4 threads ") + ToString(strategy).data(),
                     &engine}},
        stream);
  }
}

// The full mixed-kind contract: a randomized stream of point/min/max/knn
// requests answers identically on a 4-thread engine, through ExecuteBatch
// and the async Submit path.
TEST(QueryEngineTest, MixedStreamBitIdenticalAtFourThreads) {
  Dataset data = TestDataset(300);
  testutil::ExecutorReference reference(data);
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<testutil::RequestFactory> stream =
      testutil::MakeMixedKindStream(TestQueryPoints(12), opt);

  EngineOptions eopt;
  eopt.num_threads = 4;
  QueryEngine engine(data, eopt);

  testutil::DifferentialConfig config;
  config.exercise_submit = true;
  testutil::RunDifferentialStream(reference, {{"4 threads", &engine}}, stream,
                                  config);
}

TEST(QueryEngineTest, MixedKindBatchMatchesDirectCalls) {
  Dataset data = TestDataset(200);
  CpnnExecutor sequential(data);
  EngineOptions eopt;
  eopt.num_threads = 4;
  QueryEngine engine(data, eopt);

  QueryOptions opt = OptionsFor(Strategy::kVR);
  const double q = 125.0;

  auto build_candidates = [&] {
    FilterResult filtered = sequential.Filter(q);
    return CandidateSet::Build1D(data, filtered.candidates, q);
  };

  std::vector<QueryRequest> batch;
  batch.push_back(PointQuery{q, opt});
  batch.push_back(MinQuery{opt});
  batch.push_back(MaxQuery{opt});
  batch.push_back(KnnQuery{q, 3, opt});
  batch.push_back(CandidatesQuery(build_candidates(), opt));
  std::vector<QueryResult> results = engine.ExecuteBatch(std::move(batch));
  ASSERT_EQ(results.size(), 5u);

  ExpectIdenticalAnswer(sequential.Execute(q, opt), results[0], "point");
  ExpectIdenticalAnswer(sequential.ExecuteMin(opt), results[1], "min");
  ExpectIdenticalAnswer(sequential.ExecuteMax(opt), results[2], "max");

  CknnAnswer knn = sequential.ExecuteKnn(q, 3, opt.params, opt.integration);
  EXPECT_EQ(knn.ids, results[3].ids);
  ASSERT_TRUE(results[3].knn.has_value());
  ASSERT_EQ(knn.bounds.size(), results[3].knn->bounds.size());
  for (size_t i = 0; i < knn.bounds.size(); ++i) {
    EXPECT_EQ(knn.bounds[i].lower, results[3].knn->bounds[i].lower);
    EXPECT_EQ(knn.bounds[i].upper, results[3].knn->bounds[i].upper);
  }

  ExpectIdenticalAnswer(ExecuteOnCandidates(build_candidates(), opt),
                        results[4], "candidates");
}

TEST(QueryEngineTest, ScratchReusedAcrossHundredQueriesYieldsSameAnswers) {
  Dataset data = TestDataset(300);
  CpnnExecutor exec(data);
  QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<double> points =
      datagen::MakeQueryPoints(100, 0.0, 250.0, /*seed=*/33);

  QueryScratch scratch;
  for (double q : points) {
    QueryAnswer fresh = exec.Execute(q, opt);            // fresh state
    QueryAnswer reused = exec.Execute(q, opt, &scratch);  // borrowed buffers
    EXPECT_EQ(fresh.ids, reused.ids) << "q=" << q;
    ASSERT_EQ(fresh.candidate_probabilities.size(),
              reused.candidate_probabilities.size());
    for (size_t i = 0; i < fresh.candidate_probabilities.size(); ++i) {
      EXPECT_EQ(fresh.candidate_probabilities[i].bound.lower,
                reused.candidate_probabilities[i].bound.lower);
      EXPECT_EQ(fresh.candidate_probabilities[i].bound.upper,
                reused.candidate_probabilities[i].bound.upper);
    }
  }
  EXPECT_EQ(scratch.queries_served, points.size());

  // The arena stops growing once it has seen the workload: replaying the
  // same queries allocates nothing new.
  const size_t high_water = scratch.ApproxBytes();
  EXPECT_GT(high_water, 0u);
  for (double q : points) exec.Execute(q, opt, &scratch);
  EXPECT_EQ(scratch.ApproxBytes(), high_water);
  EXPECT_EQ(scratch.queries_served, 2 * points.size());

  // Candidate-set construction is scratch-backed too: the items buffer and
  // the per-candidate distribution storage were recycled between queries.
  EXPECT_GT(scratch.candidates.ApproxBytes(), 0u);
  EXPECT_FALSE(scratch.candidates.spare.empty());
  EXPECT_GT(scratch.candidates.items.capacity(), 0u);
}

// A warm 1-shard engine adds no allocation to the executor's: the
// scatter/gather shard list and local filter results live in the borrowed
// scratch, not in per-request vectors.
TEST(QueryEngineTest, WarmOneShardPointQueryAllocatesNoMoreThanTheExecutor) {
  Dataset data = TestDataset(300);
  CpnnExecutor exec(data);
  QueryEngine engine(data, EngineOptions{1});
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<double> points =
      datagen::MakeQueryPoints(100, 0.0, 250.0, /*seed=*/43);

  QueryScratch scratch;
  size_t exec_allocations = 0;
  size_t engine_allocations = 0;
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms both
    for (double q : points) {
      QueryRequest request(PointQuery{q, opt});
      size_t before = g_allocations.load();
      QueryAnswer answer = exec.Execute(q, opt, &scratch);
      if (pass == 1) exec_allocations += g_allocations.load() - before;
      before = g_allocations.load();
      QueryResult result = engine.Execute(std::move(request));
      if (pass == 1) engine_allocations += g_allocations.load() - before;
      EXPECT_EQ(answer.ids, result.ids) << "q=" << q;
    }
  }
  EXPECT_GT(exec_allocations, 0u);
  EXPECT_LE(engine_allocations, exec_allocations)
      << "per query: engine "
      << static_cast<double>(engine_allocations) / points.size()
      << ", executor "
      << static_cast<double>(exec_allocations) / points.size();
}

TEST(QueryEngineTest, BatchStatsAggregateThroughputAndStages) {
  Dataset data = TestDataset(300);
  EngineOptions eopt;
  eopt.num_threads = 2;
  QueryEngine engine(data, eopt);

  QueryOptions opt = OptionsFor(Strategy::kVR);
  std::vector<QueryRequest> batch;
  for (double q : TestQueryPoints(12)) {
    batch.push_back(PointQuery{q, opt});
  }
  EngineStats stats;
  std::vector<QueryResult> results =
      engine.ExecuteBatch(std::move(batch), &stats);
  ASSERT_EQ(results.size(), 12u);
  EXPECT_EQ(stats.queries, 12u);
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_GT(stats.wall_ms, 0.0);
  EXPECT_GT(stats.QueriesPerSec(), 0.0);
  EXPECT_GT(stats.totals.candidates, 0u);
  // The VR chain ran, so stage totals carry at least the RS verifier.
  EXPECT_GT(stats.verifier_stages[static_cast<size_t>(StageId::kRS)].runs,
            0u);
  // Phase fractions refer to summed per-query time and stay in [0, 1].
  for (double f : {stats.PhaseFraction(&QueryStats::filter_ms),
                   stats.PhaseFraction(&QueryStats::verify_ms),
                   stats.PhaseFraction(&QueryStats::refine_ms)}) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  EXPECT_GE(engine.ScratchQueriesServed(), 12u);
  EXPECT_GT(engine.ScratchBytes(), 0u);
}

TEST(QueryEngineTest, EmptyBatchAndSingleExecute) {
  Dataset data = TestDataset(50);
  QueryEngine engine(data, EngineOptions{1});
  EngineStats stats;
  EXPECT_TRUE(engine.ExecuteBatch({}, &stats).empty());
  EXPECT_EQ(stats.queries, 0u);

  QueryResult r =
      engine.Execute(PointQuery{10.0, OptionsFor(Strategy::kVR)});
  QueryAnswer expected =
      CpnnExecutor(data).Execute(10.0, OptionsFor(Strategy::kVR));
  EXPECT_EQ(expected.ids, r.ids);
}

TEST(QueryEngineTest, InvalidParamsSurfaceFromBatch) {
  Dataset data = TestDataset(50);
  QueryEngine engine(data, EngineOptions{2});
  QueryOptions bad;
  bad.params = {0.0, 0.0};  // threshold must be positive
  std::vector<QueryRequest> batch;
  batch.push_back(PointQuery{10.0, bad});
  EXPECT_THROW(engine.ExecuteBatch(std::move(batch)), std::logic_error);
}

// Builds each engine composition Submit must behave the same on: one
// shard, three shards, and a cache in front of one shard.
struct NamedFactory {
  const char* name;
  std::function<std::unique_ptr<Engine>(const Dataset&)> make;
};

std::unique_ptr<QueryEngine> TwoThreadEngine(const Dataset& data,
                                             size_t shards) {
  EngineOptions eopt;
  eopt.num_threads = 2;
  eopt.num_shards = shards;
  return std::make_unique<QueryEngine>(data, eopt);
}

std::vector<NamedFactory> SubmitEngines() {
  return {
      {"1 shard",
       [](const Dataset& data) { return TwoThreadEngine(data, 1); }},
      {"3 shards",
       [](const Dataset& data) { return TwoThreadEngine(data, 3); }},
      {"CachingEngine",
       [](const Dataset& data) {
         return std::make_unique<CachingEngine>(TwoThreadEngine(data, 1));
       }},
  };
}

TEST(QueryEngineTest, SubmitResolvesToTheSequentialAnswer) {
  Dataset data = TestDataset(200);
  CpnnExecutor sequential(data);
  QueryOptions opt = OptionsFor(Strategy::kVR);
  std::vector<double> points = TestQueryPoints(8);

  for (const NamedFactory& factory : SubmitEngines()) {
    SCOPED_TRACE(factory.name);
    std::unique_ptr<Engine> engine = factory.make(data);
    std::vector<std::future<QueryResult>> futures;
    for (double q : points) {
      futures.push_back(engine->Submit(PointQuery{q, opt}));
    }
    // An invalid request, in flight among valid ones, fails only its own
    // future with the engine's exception.
    QueryOptions bad;
    bad.params = {0.0, 0.0};
    std::future<QueryResult> failing = engine->Submit(PointQuery{1.0, bad});
    std::future<QueryResult> after =
        engine->Submit(PointQuery{points[0], opt});
    EXPECT_THROW(failing.get(), std::logic_error);
    for (size_t i = 0; i < points.size(); ++i) {
      ExpectIdenticalAnswer(sequential.Execute(points[i], opt),
                            futures[i].get(), "submit");
    }
    ExpectIdenticalAnswer(sequential.Execute(points[0], opt), after.get(),
                          "submit after failure");

    // No queue: every request counts as its own batch.
    SubmitQueueStats stats = engine->SubmitStats();
    EXPECT_EQ(stats.requests, points.size() + 2);
    EXPECT_EQ(stats.batches, stats.requests);
    EXPECT_EQ(stats.max_coalesced, 1u);
  }
}

// Invalid fields are rejected up front by every engine and every entry
// point, before the async path posts anything and before a cache
// fingerprints the request: q = +-inf used to trip a PV_CHECK deep in the
// distance pdf, q = NaN returned an empty answer that a cache then
// memoized, P, Δ and k were checked only inside the executors (whose
// PV_CHECKs stay, as internal invariants), Monte Carlo samples = 0 tripped
// the sampler's PV_CHECK, and a huge sample or split count would hold a
// worker for as long as the client asked.
TEST(QueryEngineTest, InvalidFieldsAreInvalidArguments) {
  Dataset data = datagen::MakeUniformScatter(200, 1000.0);
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto with = [](double threshold, double tolerance) {
    QueryOptions o = OptionsFor(Strategy::kVR);
    o.params = {threshold, tolerance};
    return o;
  };
  auto costing = [](int samples) {
    QueryOptions o = OptionsFor(Strategy::kMonteCarlo);
    o.monte_carlo.samples = samples;
    return o;
  };
  const int big = std::numeric_limits<int>::max();
  const std::vector<std::function<QueryRequest()>> bad = {
      [&] { return QueryRequest(PointQuery{inf, opt}); },
      [&] { return QueryRequest(PointQuery{-inf, opt}); },
      [&] { return QueryRequest(PointQuery{nan, opt}); },
      [&] { return QueryRequest(KnnQuery{inf, 2, opt}); },
      [&] { return QueryRequest(KnnQuery{-inf, 2, opt}); },
      [&] { return QueryRequest(KnnQuery{nan, 2, opt}); },
      [&] { return QueryRequest(Point2DQuery{{nan, 1.0}, opt}); },
      [&] { return QueryRequest(Point2DQuery{{1.0, inf}, opt}); },
      [&] { return QueryRequest(Knn2DQuery{{-inf, 1.0}, 2, opt}); },
      [&] { return QueryRequest(Knn2DQuery{{1.0, nan}, 2, opt}); },
      [&] { return QueryRequest(PointQuery{500.0, with(0.0, 0.01)}); },
      [&] { return QueryRequest(PointQuery{500.0, with(-0.1, 0.01)}); },
      [&] { return QueryRequest(PointQuery{500.0, with(1.5, 0.01)}); },
      [&] { return QueryRequest(PointQuery{500.0, with(nan, 0.01)}); },
      [&] { return QueryRequest(PointQuery{500.0, with(0.3, -0.01)}); },
      [&] { return QueryRequest(PointQuery{500.0, with(0.3, 1.5)}); },
      [&] { return QueryRequest(PointQuery{500.0, with(0.3, nan)}); },
      [&] { return QueryRequest(MinQuery{with(nan, 0.01)}); },
      [&] { return QueryRequest(KnnQuery{500.0, 0, opt}); },
      [&] { return QueryRequest(KnnQuery{500.0, -1, opt}); },
      [&] { return QueryRequest(Knn2DQuery{{1.0, 2.0}, 0, opt}); },
      [&] { return QueryRequest(Knn2DQuery{{1.0, 2.0}, -1, opt}); },
      [&] { return QueryRequest(PointQuery{500.0, costing(0)}); },
      [&] { return QueryRequest(PointQuery{500.0, costing(-1)}); },
      [&] {
        return QueryRequest(
            PointQuery{500.0, costing(kMaxMonteCarloSamples + 1)});
      },
      [&] { return QueryRequest(PointQuery{500.0, costing(big)}); },
      [&] { return QueryRequest(KnnQuery{500.0, 2, costing(0)}); },
      [&] { return QueryRequest(MinQuery{costing(-3)}); },
      [&] { return QueryRequest(Point2DQuery{{1.0, 2.0}, costing(big)}); },
  };
  for (const NamedFactory& factory : SubmitEngines()) {
    SCOPED_TRACE(factory.name);
    std::unique_ptr<Engine> engine = factory.make(data);
    for (size_t i = 0; i < bad.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_THROW(engine->Execute(bad[i]()), std::invalid_argument);
      std::vector<QueryRequest> batch;
      batch.push_back(PointQuery{500.0, opt});
      batch.push_back(bad[i]());
      EXPECT_THROW(engine->ExecuteBatch(std::move(batch)),
                   std::invalid_argument);
      EXPECT_THROW(engine->Submit(bad[i]()).get(), std::invalid_argument);
    }
    // A rejected request never reaches a cache lookup or becomes an entry.
    if (auto* cache = dynamic_cast<CachingEngine*>(engine.get())) {
      EXPECT_EQ(cache->GetCacheStats().misses, 0u);
      EXPECT_EQ(cache->GetCacheStats().entries, 0u);
    }
    // The cap itself is valid.
    QueryOptions at_cap = OptionsFor(Strategy::kVR);
    at_cap.monte_carlo.samples = kMaxMonteCarloSamples;
    EXPECT_NO_THROW(engine->Execute(PointQuery{500.0, at_cap}));
  }
}

// Concurrent Execute callers each get an arena of their own: caller A
// waits inside its query until caller B's query, running meanwhile,
// releases it. With one arena shared under a lock, B could not start until
// A returned, and A's bounded wait would fail.
TEST(ScratchArenasTest, ConcurrentCallersDoNotWaitOnEachOther) {
  ScratchArenas arenas(/*workers=*/1);
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  QueryScratch* a_scratch = nullptr;
  QueryScratch* b_scratch = nullptr;
  std::thread a([&] {
    arenas.OnCaller([&](QueryScratch* scratch) {
      std::unique_lock<std::mutex> lock(mu);
      a_scratch = scratch;
      cv.notify_all();
      EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                              [&] { return released; }))
          << "caller B never ran while caller A held an arena";
      return 0;
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return a_scratch != nullptr; });
  }
  arenas.OnCaller([&](QueryScratch* scratch) {
    std::lock_guard<std::mutex> lock(mu);
    b_scratch = scratch;
    released = true;
    cv.notify_all();
    return 0;
  });
  a.join();
  EXPECT_NE(a_scratch, b_scratch);

  // With nobody holding one, an arena is reused instead of made.
  const size_t bytes = arenas.Bytes();
  for (int i = 0; i < 3; ++i) {
    arenas.OnCaller([&](QueryScratch* scratch) {
      EXPECT_TRUE(scratch == a_scratch || scratch == b_scratch);
      return 0;
    });
  }
  EXPECT_EQ(arenas.Bytes(), bytes);
}

// Two threads issuing Execute hold at most two caller arenas, reused query
// after query: once warm, the scratch footprint stays flat at two arenas
// of the query's size, however many queries follow.
TEST(QueryEngineTest, ConcurrentExecuteKeepsScratchBytesFlat) {
  Dataset data = TestDataset(300);
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const double q = TestQueryPoints(1)[0];
  for (const NamedFactory& factory : SubmitEngines()) {
    SCOPED_TRACE(factory.name);
    std::unique_ptr<Engine> engine = factory.make(data);
    const size_t idle = engine->ScratchBytes();  // the workers' arenas
    // One caller at a time: a single caller arena, warmed to this query.
    QueryResult expected;
    for (int i = 0; i < 10; ++i) expected = engine->Execute(PointQuery{q, opt});
    const size_t arena = engine->ScratchBytes() - idle;
    for (int round = 0; round < 5; ++round) {
      std::vector<std::thread> threads;
      for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&] {
          for (int i = 0; i < 100; ++i) {
            QueryResult r = engine->Execute(PointQuery{q, opt});
            EXPECT_EQ(r.ids, expected.ids);
          }
        });
      }
      for (std::thread& t : threads) t.join();
      EXPECT_LE(engine->ScratchBytes(), idle + 2 * arena) << "round " << round;
    }
  }
}

// Destroying an engine right after a burst of Submits resolves every
// future: the pool runs each posted request before its workers join, and a
// cache tier waits for its forwarded misses.
TEST(QueryEngineTest, DestructionResolvesEverySubmittedFuture) {
  Dataset data = TestDataset(200);
  CpnnExecutor sequential(data);
  QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<double> points = TestQueryPoints(8);
  constexpr size_t kRequests = 64;

  for (const NamedFactory& factory : SubmitEngines()) {
    SCOPED_TRACE(factory.name);
    std::vector<std::future<QueryResult>> futures;
    {
      std::unique_ptr<Engine> engine = factory.make(data);
      for (size_t i = 0; i < kRequests; ++i) {
        futures.push_back(
            engine->Submit(PointQuery{points[i % points.size()], opt}));
      }
    }
    for (size_t i = 0; i < kRequests; ++i) {
      ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << i;
      ExpectIdenticalAnswer(sequential.Execute(points[i % points.size()], opt),
                            futures[i].get(), "submit before destruction");
    }
  }
}

// The async stress test: many threads Submit concurrently while
// ExecuteBatch runs on the same engine. Every future must resolve to the
// sequential-reference answer and nothing may deadlock. (Registered under
// the `engine` CTest label; CI re-runs it under ThreadSanitizer.)
TEST(QueryEngineTest, ConcurrentSubmitAndExecuteBatchStress) {
  Dataset data = TestDataset(200);
  CpnnExecutor sequential(data);
  QueryEngine engine(data, EngineOptions{4});
  QueryOptions opt = OptionsFor(Strategy::kVR);

  const std::vector<double> points = TestQueryPoints(8);
  std::vector<QueryAnswer> expected;
  for (double q : points) expected.push_back(sequential.Execute(q, opt));

  constexpr size_t kThreads = 6;
  constexpr size_t kPerThread = 20;
  std::vector<std::vector<std::future<QueryResult>>> futures(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (size_t i = 0; i < kPerThread; ++i) {
        futures[t].push_back(engine.Submit(
            PointQuery{points[(t + i) % points.size()], opt}));
      }
    });
  }
  go.store(true);
  // Batches race the submissions on the same pool and scratches.
  for (int round = 0; round < 3; ++round) {
    std::vector<QueryRequest> batch;
    for (double q : points) batch.push_back(PointQuery{q, opt});
    std::vector<QueryResult> results = engine.ExecuteBatch(std::move(batch));
    ASSERT_EQ(results.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      ExpectIdenticalAnswer(expected[i], results[i], "batch under stress");
    }
  }
  for (std::thread& th : submitters) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(futures[t].size(), kPerThread);
    for (size_t i = 0; i < kPerThread; ++i) {
      ExpectIdenticalAnswer(expected[(t + i) % points.size()],
                            futures[t][i].get(), "submit under stress");
    }
  }
  EXPECT_EQ(engine.SubmitStats().requests, kThreads * kPerThread);
}

// Pins the CandidatesQuery consumption contract: executing the request
// moves the payload out, and re-submitting the moved-from request is
// rejected with an exception in every build type — never answered over a
// silently empty set. (Copy attempts don't compile at all; the
// compile-time side is pinned in tests/request_test.cc.)
TEST(QueryEngineTest, ConsumedCandidatesRequestCannotBeResubmitted) {
  Dataset data = TestDataset(100);
  CpnnExecutor sequential(data);
  QueryEngine engine(data, EngineOptions{1});
  QueryOptions opt = OptionsFor(Strategy::kVR);
  const double q = 50.0;

  FilterResult filtered = sequential.Filter(q);
  auto build_request = [&] {
    return QueryRequest(CandidatesQuery(
        CandidateSet::Build1D(data, filtered.candidates, q), opt));
  };

  QueryRequest request = build_request();
  EXPECT_TRUE(std::get<CandidatesQuery>(request.query).has_payload());

  QueryResult first = engine.Execute(std::move(request));
  EXPECT_GT(first.stats.candidates, 0u);
  // Moving into Execute consumed the caller's payload.
  EXPECT_FALSE(std::get<CandidatesQuery>(request.query).has_payload());

  // Re-submission of the consumed request is rejected, serially and in a
  // batch, in every build type.
  EXPECT_THROW(engine.Execute(std::move(request)), std::logic_error);
  std::vector<QueryRequest> batch;
  batch.push_back(build_request());
  batch.push_back(std::move(request));
  EXPECT_THROW(engine.ExecuteBatch(std::move(batch)), std::logic_error);

  // Two independently built payloads evaluate identically — the one way
  // to "re-run" a candidate-set request is to build the set again.
  QueryResult a = engine.Execute(build_request());
  QueryResult b = engine.Execute(build_request());
  EXPECT_EQ(first.ids, a.ids);
  EXPECT_EQ(a.ids, b.ids);
}

}  // namespace
}  // namespace pverify
