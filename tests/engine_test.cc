#include "engine/query_engine.h"

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "differential_testutil.h"

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

// Four-thread batches must answer bit for bit like the single-threaded
// reference for every strategy; only scheduling may differ. Ported onto
// the differential harness (tests/differential_testutil.h), which demands
// bit identity.
TEST(QueryEngineTest, BatchAtFourThreadsMatchesSequentialAllStrategies) {
  Dataset data = TestDataset();
  QueryEngine reference(data, EngineOptions{1});
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
// and the coalescing Submit path.
TEST(QueryEngineTest, MixedStreamBitIdenticalAtFourThreads) {
  Dataset data = TestDataset(300);
  QueryEngine reference(data, EngineOptions{1});
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
  ASSERT_FALSE(stats.verifier_stages.empty());
  EXPECT_EQ(stats.verifier_stages[0].name, "RS");
  EXPECT_GT(stats.verifier_stages[0].runs, 0u);
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

TEST(QueryEngineTest, SubmitResolvesToTheSequentialAnswer) {
  Dataset data = TestDataset(200);
  CpnnExecutor sequential(data);
  QueryEngine engine(data, EngineOptions{2});
  QueryOptions opt = OptionsFor(Strategy::kVR);

  std::vector<double> points = TestQueryPoints(8);
  std::vector<std::future<QueryResult>> futures;
  for (double q : points) {
    futures.push_back(engine.Submit(PointQuery{q, opt}));
  }
  for (size_t i = 0; i < points.size(); ++i) {
    ExpectIdenticalAnswer(sequential.Execute(points[i], opt),
                          futures[i].get(), "submit");
  }
  SubmitQueueStats stats = engine.SubmitStats();
  EXPECT_EQ(stats.requests, points.size());
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, stats.requests);
  EXPECT_GE(stats.max_coalesced, 1u);

  // An invalid request resolves its future with the engine's exception
  // instead of tearing down the queue.
  QueryOptions bad;
  bad.params = {0.0, 0.0};
  std::future<QueryResult> failing = engine.Submit(PointQuery{1.0, bad});
  EXPECT_THROW(failing.get(), std::logic_error);
  // The queue still serves afterwards.
  std::future<QueryResult> after =
      engine.Submit(PointQuery{points[0], opt});
  ExpectIdenticalAnswer(sequential.Execute(points[0], opt), after.get(),
                        "submit after failure");
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
  SubmitQueueStats stats = engine.SubmitStats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, stats.requests);
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
