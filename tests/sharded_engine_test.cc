// Engine-grade tests for the sharded scatter/gather engine: bit-identical
// equivalence with the unsharded QueryEngine across shard counts, sharding
// policies and every QueryKind, plus bounds-pruning, batch-stats and async
// Submit behavior on the sharded path.
#include "engine/sharded_engine.h"

#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "differential_testutil.h"

namespace pverify {
namespace {

QueryOptions OptionsFor(Strategy strategy) {
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = strategy;
  opt.report_probabilities = true;
  return opt;
}

std::shared_ptr<const ShardingPolicy> MakePolicy(const std::string& name,
                                                 const Dataset& data) {
  if (name == "hash") return std::make_shared<const HashShardingPolicy>();
  return std::make_shared<const RangeShardingPolicy>(
      RangeShardingPolicy::ForDataset(data));
}

void ExpectIdenticalResult(const QueryResult& expected,
                           const QueryResult& got, const std::string& what) {
  EXPECT_EQ(expected.ids, got.ids) << what;
  ASSERT_EQ(expected.candidate_probabilities.size(),
            got.candidate_probabilities.size())
      << what;
  for (size_t i = 0; i < expected.candidate_probabilities.size(); ++i) {
    const AnswerEntry& e = expected.candidate_probabilities[i];
    const AnswerEntry& g = got.candidate_probabilities[i];
    EXPECT_EQ(e.id, g.id) << what << " entry " << i;
    // Bit-identical, not approximately equal: the sharded scatter/gather
    // must run the exact same arithmetic as the single-engine path.
    EXPECT_EQ(e.bound.lower, g.bound.lower) << what << " entry " << i;
    EXPECT_EQ(e.bound.upper, g.bound.upper) << what << " entry " << i;
  }
  ASSERT_EQ(expected.knn.has_value(), got.knn.has_value()) << what;
  if (expected.knn.has_value()) {
    EXPECT_EQ(expected.knn->ids, got.knn->ids) << what;
    ASSERT_EQ(expected.knn->bounds.size(), got.knn->bounds.size()) << what;
    for (size_t i = 0; i < expected.knn->bounds.size(); ++i) {
      EXPECT_EQ(expected.knn->bounds[i].lower, got.knn->bounds[i].lower)
          << what << " knn bound " << i;
      EXPECT_EQ(expected.knn->bounds[i].upper, got.knn->bounds[i].upper)
          << what << " knn bound " << i;
    }
  }
  EXPECT_EQ(expected.stats.candidates, got.stats.candidates) << what;
}

TEST(ShardedEngineTest, AllKindsBitIdenticalAcrossShardCountsAndPolicies) {
  // Randomized datasets: overlap-heavy uniform scatter and a clustered
  // Long-Beach-like layout, several seeds each.
  std::vector<Dataset> datasets;
  for (uint64_t seed : {3u, 17u, 99u}) {
    datasets.push_back(datagen::MakeUniformScatter(400, 250.0, 2.0, seed));
  }
  {
    datagen::SyntheticConfig config;
    config.count = 400;
    config.domain_hi = 1000.0;
    config.mean_length = 4.0;
    config.num_clusters = 8;
    config.seed = 42;
    datasets.push_back(datagen::MakeSynthetic(config));
  }

  for (size_t d = 0; d < datasets.size(); ++d) {
    const Dataset& data = datasets[d];
    const double domain_hi = d < 3 ? 250.0 : 1000.0;
    const std::vector<double> points =
        datagen::MakeQueryPoints(4, 0.0, domain_hi, /*seed=*/21 + d);
    const QueryOptions opt = OptionsFor(Strategy::kVR);

    QueryEngine reference(data, EngineOptions{2});

    // The randomized mixed-kind stream plus candidate-set requests whose
    // payloads the reference executor rebuilds per invocation (requests
    // are move-only and consumed on execute).
    std::vector<testutil::RequestFactory> stream =
        testutil::MakeMixedKindStream(points, opt, /*seed=*/5 + d);
    const CpnnExecutor& exec = reference.executor();
    for (double q : points) {
      stream.push_back([&exec, q, opt] {
        FilterResult filtered = exec.Filter(q);
        return QueryRequest(CandidatesQuery(
            CandidateSet::Build1D(exec.dataset(), filtered.candidates, q),
            opt));
      });
    }

    // The sharded variants: 1/2/4-way under both sharding policies. All
    // must answer bit-identically to the unsharded reference.
    std::vector<std::unique_ptr<ShardedQueryEngine>> variants;
    std::vector<testutil::NamedEngine> named;
    for (size_t shards : {1u, 2u, 4u}) {
      for (const char* policy : {"hash", "range"}) {
        ShardedEngineOptions sopt;
        sopt.num_shards = shards;
        sopt.policy = MakePolicy(policy, data);
        sopt.num_threads = 2;
        variants.push_back(std::make_unique<ShardedQueryEngine>(data, sopt));
        ASSERT_EQ(variants.back()->num_shards(), shards);
        named.push_back({"dataset " + std::to_string(d) + " shards " +
                             std::to_string(shards) + " policy " + policy,
                         variants.back().get()});
      }
    }
    testutil::RunDifferentialStream(reference, named, stream);
  }
}

TEST(ShardedEngineTest, FourShardSingleExecuteMatchesEveryStrategy) {
  Dataset data = datagen::MakeUniformScatter(300, 250.0, 2.0, /*seed=*/5);
  QueryEngine reference(data, EngineOptions{1});
  ShardedEngineOptions sopt;
  sopt.num_shards = 4;
  sopt.num_threads = 4;
  ShardedQueryEngine sharded(data, sopt);

  for (Strategy strategy : {Strategy::kBasic, Strategy::kRefine,
                            Strategy::kVR, Strategy::kMonteCarlo}) {
    QueryOptions opt = OptionsFor(strategy);
    for (double q : datagen::MakeQueryPoints(5, 0.0, 250.0, /*seed=*/77)) {
      ExpectIdenticalResult(reference.Execute(PointQuery{q, opt}),
                            sharded.Execute(PointQuery{q, opt}),
                            std::string(ToString(strategy)));
    }
  }
}

TEST(ShardedEngineTest, RangeShardingPrunesDistantShards) {
  // Clustered data + range sharding: a query inside one cluster must not
  // scatter candidate collection to every shard.
  datagen::SyntheticConfig config;
  config.count = 600;
  config.domain_hi = 10000.0;
  config.mean_length = 4.0;
  config.num_clusters = 6;
  config.cluster_fraction = 1.0;
  config.seed = 9;
  Dataset data = datagen::MakeSynthetic(config);

  ShardedEngineOptions sopt;
  sopt.num_shards = 8;
  sopt.policy = MakePolicy("range", data);
  sopt.num_threads = 2;
  ShardedQueryEngine sharded(data, sopt);

  QueryEngine reference(data, EngineOptions{1});
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  for (double q : datagen::MakeQueryPoints(6, 0.0, 10000.0, /*seed=*/3)) {
    ExpectIdenticalResult(reference.Execute(PointQuery{q, opt}),
                          sharded.Execute(PointQuery{q, opt}),
                          "pruned point query");
  }
  EXPECT_GT(sharded.ShardsPruned(), 0u);
  EXPECT_GT(sharded.ShardVisits(), 0u);
  // Pruning skipped real work: not every query visited every shard.
  EXPECT_LT(sharded.ShardVisits(), 6u * sharded.num_shards());
}

TEST(ShardedEngineTest, ShardedBatchStatsSumAcrossShards) {
  Dataset data = datagen::MakeUniformScatter(300, 250.0, 2.0, /*seed=*/8);
  ShardedEngineOptions sopt;
  sopt.num_shards = 4;
  sopt.num_threads = 2;
  ShardedQueryEngine sharded(data, sopt);

  const QueryOptions opt = OptionsFor(Strategy::kVR);
  std::vector<QueryRequest> batch;
  for (double q : datagen::MakeQueryPoints(10, 0.0, 250.0, /*seed=*/4)) {
    batch.push_back(PointQuery{q, opt});
  }
  ShardedBatchStats stats;
  std::vector<QueryResult> results =
      sharded.ExecuteBatch(std::move(batch), &stats);
  ASSERT_EQ(results.size(), 10u);

  EXPECT_EQ(stats.gathered.queries, 10u);
  EXPECT_GT(stats.gathered.wall_ms, 0.0);
  EXPECT_GT(stats.gathered.totals.candidates, 0u);
  ASSERT_FALSE(stats.gathered.verifier_stages.empty());

  ASSERT_EQ(stats.per_shard.size(), 4u);
  // scatter_totals is exactly the merge of the per-shard aggregates.
  EngineStats remerged = MergeEngineStats(stats.per_shard);
  EXPECT_EQ(stats.scatter_totals.queries, remerged.queries);
  EXPECT_EQ(stats.scatter_totals.totals.filter_ms,
            remerged.totals.filter_ms);
  EXPECT_EQ(stats.scatter_totals.totals.candidates,
            remerged.totals.candidates);
  // Every query visited at least one shard, and the per-shard query counts
  // sum to the visit count.
  size_t shard_queries = 0;
  for (const EngineStats& ps : stats.per_shard) shard_queries += ps.queries;
  EXPECT_GE(shard_queries, 10u);
  EXPECT_GT(stats.shard_visits, 0u);
  // The candidates the shards contributed cover the gathered candidate
  // total (FinishConstruction may prune a few boundary survivors).
  EXPECT_GE(stats.scatter_totals.totals.candidates,
            stats.gathered.totals.candidates);
  // Rates stay finite even for the scatter-side aggregates (no wall time).
  EXPECT_TRUE(std::isfinite(stats.scatter_totals.QueriesPerSec()));
  EXPECT_TRUE(
      std::isfinite(stats.scatter_totals.PhaseFraction(&QueryStats::filter_ms)));
}

TEST(ShardedEngineTest, AsyncSubmitMatchesReferenceUnderConcurrency) {
  Dataset data = datagen::MakeUniformScatter(200, 250.0, 2.0, /*seed=*/12);
  QueryEngine reference(data, EngineOptions{1});
  ShardedEngineOptions sopt;
  sopt.num_shards = 4;
  sopt.num_threads = 2;
  ShardedQueryEngine sharded(data, sopt);

  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<double> points =
      datagen::MakeQueryPoints(8, 0.0, 250.0, /*seed=*/31);
  std::vector<QueryResult> expected;
  for (double q : points) {
    expected.push_back(reference.Execute(PointQuery{q, opt}));
  }

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 12;
  std::vector<std::vector<std::future<QueryResult>>> futures(kThreads);
  {
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (size_t i = 0; i < kPerThread; ++i) {
          futures[t].push_back(sharded.Submit(
              PointQuery{points[(t + i) % points.size()], opt}));
        }
      });
    }
    // Batches keep running on the same engine while Submits stream in.
    for (int round = 0; round < 3; ++round) {
      std::vector<QueryRequest> batch;
      for (double q : points) batch.push_back(PointQuery{q, opt});
      std::vector<QueryResult> results = sharded.ExecuteBatch(std::move(batch));
      for (size_t i = 0; i < points.size(); ++i) {
        ExpectIdenticalResult(expected[i], results[i], "batch during submit");
      }
    }
    for (std::thread& th : submitters) th.join();
  }
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      ExpectIdenticalResult(expected[(t + i) % points.size()],
                            futures[t][i].get(), "sharded submit");
    }
  }
  SubmitQueueStats qstats = sharded.SubmitStats();
  EXPECT_EQ(qstats.requests, kThreads * kPerThread);
  EXPECT_GE(qstats.batches, 1u);
  EXPECT_LE(qstats.batches, qstats.requests);
}

// Nested scatter: on a 4-thread engine every request's shard loop runs as
// a REAL nested ParallelFor inside batch workers (idle workers steal shard
// tasks); answers must still match the unsharded engine bit for bit.
TEST(ShardedEngineTest, NestedScatterBitIdentical) {
  Dataset data = datagen::MakeUniformScatter(400, 250.0, 2.0, /*seed=*/23);
  QueryEngine reference(data, EngineOptions{2});
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<double> points =
      datagen::MakeQueryPoints(4, 0.0, 250.0, /*seed=*/41);

  std::vector<testutil::RequestFactory> stream =
      testutil::MakeMixedKindStream(points, opt, /*seed=*/23);
  const CpnnExecutor& exec = reference.executor();
  for (double q : points) {
    stream.push_back([&exec, q, opt] {
      FilterResult filtered = exec.Filter(q);
      return QueryRequest(CandidatesQuery(
          CandidateSet::Build1D(exec.dataset(), filtered.candidates, q),
          opt));
    });
  }

  ShardedEngineOptions sopt;
  sopt.num_shards = 4;
  sopt.num_threads = 4;
  ShardedQueryEngine sharded(data, sopt);
  ASSERT_EQ(sharded.num_threads(), 4u);

  // exercise_submit covers the dispatcher-coalesced batches, which run the
  // nested shard scatter too.
  testutil::DifferentialConfig config;
  config.exercise_submit = true;
  testutil::RunDifferentialStream(reference, {{"4 shards", &sharded}}, stream,
                                  config);
}

TEST(ShardedEngineTest, DegenerateShapesMatchUnsharded) {
  const QueryOptions opt = OptionsFor(Strategy::kVR);

  // Empty dataset.
  {
    ShardedQueryEngine sharded(Dataset{}, ShardedEngineOptions{4, nullptr, 2});
    QueryEngine reference(Dataset{}, EngineOptions{1});
    // Requests are move-only, so each engine gets its own freshly built
    // payload rather than a copy.
    const std::vector<std::function<QueryRequest()>> kinds = {
        [&] { return QueryRequest(PointQuery{1.0, opt}); },
        [&] { return QueryRequest(MinQuery{opt}); },
        [&] { return QueryRequest(MaxQuery{opt}); }};
    for (const auto& make : kinds) {
      ExpectIdenticalResult(reference.Execute(make()),
                            sharded.Execute(make()), "empty dataset");
    }
  }

  // More shards than objects: most shards are empty.
  {
    Dataset tiny = datagen::MakeUniformScatter(3, 50.0, 2.0, /*seed=*/2);
    ShardedQueryEngine sharded(tiny, ShardedEngineOptions{8, nullptr, 2});
    QueryEngine reference(tiny, EngineOptions{1});
    for (double q : {0.0, 10.0, 25.0, 49.0}) {
      ExpectIdenticalResult(reference.Execute(PointQuery{q, opt}),
                            sharded.Execute(PointQuery{q, opt}),
                            "tiny dataset");
      ExpectIdenticalResult(reference.Execute(KnnQuery{q, 2, opt}),
                            sharded.Execute(KnnQuery{q, 2, opt}),
                            "tiny knn");
    }
    // k larger than the dataset.
    ExpectIdenticalResult(reference.Execute(KnnQuery{10.0, 7, opt}),
                          sharded.Execute(KnnQuery{10.0, 7, opt}),
                          "k > n");
  }

  // Empty batch: stats stay zero and finite.
  {
    Dataset data = datagen::MakeUniformScatter(20, 50.0, 2.0, /*seed=*/6);
    ShardedQueryEngine sharded(data, ShardedEngineOptions{2, nullptr, 2});
    ShardedBatchStats stats;
    EXPECT_TRUE(sharded.ExecuteBatch({}, &stats).empty());
    EXPECT_EQ(stats.gathered.queries, 0u);
    EXPECT_TRUE(std::isfinite(stats.gathered.QueriesPerSec()));
    EXPECT_TRUE(std::isfinite(stats.gathered.AvgQueryMs()));
    EXPECT_TRUE(
        std::isfinite(stats.gathered.PhaseFraction(&QueryStats::verify_ms)));
  }
}

TEST(ShardedEngineTest, PartitionDisjointCoverAndPolicyDeterminism) {
  Dataset data = datagen::MakeUniformScatter(200, 100.0, 1.5, /*seed=*/14);
  for (const std::string& name : {"hash", "range"}) {
    std::shared_ptr<const ShardingPolicy> policy = MakePolicy(name, data);
    std::vector<Dataset> shards = PartitionDataset(data, 4, *policy);
    ASSERT_EQ(shards.size(), 4u);
    size_t total = 0;
    std::vector<ObjectId> seen;
    for (const Dataset& shard : shards) {
      total += shard.size();
      for (const UncertainObject& obj : shard) seen.push_back(obj.id());
    }
    EXPECT_EQ(total, data.size()) << name;
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
        << name << ": object assigned twice";
    // Deterministic: partitioning again yields the same assignment.
    std::vector<Dataset> again = PartitionDataset(data, 4, *policy);
    for (size_t s = 0; s < 4; ++s) {
      ASSERT_EQ(shards[s].size(), again[s].size()) << name;
      for (size_t i = 0; i < shards[s].size(); ++i) {
        EXPECT_EQ(shards[s][i].id(), again[s][i].id()) << name;
      }
    }
  }
}

}  // namespace
}  // namespace pverify
