// Engine-grade tests for the scatter/gather QueryEngine: bit-identical
// equivalence with the sequential executors (CpnnExecutor, CpnnExecutor2D)
// across shard counts (one included), shard overlap and every QueryKind,
// plus bounds-pruning, batch-stats and async Submit behavior on the
// sharded path.
#include "engine/query_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <string>
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
    // Bit-identical, not approximately equal: the scatter/gather must run
    // the exact same arithmetic as the sequential executor.
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

TEST(ShardedEngineTest, AllKindsBitIdenticalAcrossShardCounts) {
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

    testutil::ExecutorReference reference(data);

    // The randomized mixed-kind stream plus candidate-set requests whose
    // payloads the reference executor rebuilds per invocation (requests
    // are move-only and consumed on execute).
    std::vector<testutil::RequestFactory> stream =
        testutil::MakeMixedKindStream(points, opt, /*seed=*/5 + d);
    const CpnnExecutor& exec = reference.exec();
    for (double q : points) {
      stream.push_back([&exec, q, opt] {
        FilterResult filtered = exec.Filter(q);
        return QueryRequest(CandidatesQuery(
            CandidateSet::Build1D(exec.dataset(), filtered.candidates, q),
            opt));
      });
    }

    // The engine at 1/2/4 shards. All must answer bit-identically to the
    // executors.
    std::vector<std::unique_ptr<QueryEngine>> variants;
    std::vector<testutil::NamedEngine> named;
    for (size_t shards : {1u, 2u, 4u}) {
      EngineOptions eopt;
      eopt.num_shards = shards;
      eopt.num_threads = 2;
      variants.push_back(std::make_unique<QueryEngine>(data, eopt));
      ASSERT_EQ(variants.back()->num_shards(), shards);
      named.push_back({"dataset " + std::to_string(d) + " shards " +
                           std::to_string(shards),
                       variants.back().get()});
    }
    testutil::RunDifferentialStream(reference, named, stream);
  }
}

// Range shards whose objects are about as wide as a stripe: each shard's
// bounds reach well into its neighbours', so phase-0 pruning and the global
// cut run on interleaved shards rather than disjoint ranges.
TEST(ShardedEngineTest, OverlappingRangeShardsBitIdentical) {
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<double> points =
      datagen::MakeQueryPoints(4, 0.0, 1000.0, /*seed=*/57);
  const std::vector<Point2> points2d =
      datagen::MakeQueryPoints2D(4, 0.0, 1000.0, /*seed=*/59);
  std::vector<testutil::RequestFactory> stream2d;
  for (Point2 q : points2d) {
    stream2d.push_back([q, opt] { return QueryRequest(Point2DQuery{q, opt}); });
    stream2d.push_back(
        [q, opt] { return QueryRequest(Knn2DQuery{q, 3, opt}); });
  }

  for (size_t shards : {2u, 4u, 8u}) {
    const double stripe = 1000.0 / static_cast<double>(shards);
    datagen::SyntheticConfig config;
    config.count = 80;
    config.domain_hi = 1000.0;
    config.mean_length = stripe;
    config.max_length = 2.0 * stripe;
    config.num_clusters = 0;
    config.seed = 60 + shards;
    Dataset data = datagen::MakeSynthetic(config);
    datagen::Synthetic2DConfig config2d;
    config2d.count = 60;
    config2d.mean_extent = stripe;
    config2d.max_extent = 2.0 * stripe;
    config2d.seed = 70 + shards;
    Dataset2D data2d = datagen::MakeSynthetic2D(config2d);

    EngineOptions eopt;
    eopt.num_shards = shards;
    eopt.num_threads = 2;
    QueryEngine sharded(data, eopt);
    QueryEngine sharded2d(data2d, eopt);
    const std::string name = std::to_string(shards) + " shards";
    for (size_t s = 0; s + 1 < shards; ++s) {
      const DomainBounds& left = sharded.shard_bounds(s);
      const DomainBounds& right = sharded.shard_bounds(s + 1);
      ASSERT_FALSE(left.empty() || right.empty()) << name;
      EXPECT_GT(left.hi - right.lo, 0.25 * stripe) << name << " shard " << s;
      const Mbr<2>& left2d = sharded2d.shard_bounds2d(s).mbr;
      const Mbr<2>& right2d = sharded2d.shard_bounds2d(s + 1).mbr;
      ASSERT_FALSE(left2d.IsEmpty() || right2d.IsEmpty()) << name;
      EXPECT_GT(left2d.hi[0] - right2d.lo[0], 0.25 * stripe)
          << name << " 2-D shard " << s;
    }

    testutil::ExecutorReference reference(data);
    testutil::RunDifferentialStream(
        reference, {{name, &sharded}},
        testutil::MakeMixedKindStream(points, opt, /*seed=*/shards));
    testutil::ExecutorReference reference2d(data2d);
    testutil::RunDifferentialStream(reference2d, {{name + " 2-D", &sharded2d}},
                                    stream2d);
  }
}

TEST(ShardedEngineTest, SingleExecuteMatchesEveryStrategy) {
  Dataset data = datagen::MakeUniformScatter(300, 250.0, 2.0, /*seed=*/5);
  CpnnExecutor reference(data);
  for (size_t shards : {1u, 4u}) {
    EngineOptions eopt;
    eopt.num_shards = shards;
    eopt.num_threads = 4;
    QueryEngine engine(data, eopt);

    for (Strategy strategy : {Strategy::kBasic, Strategy::kRefine,
                              Strategy::kVR, Strategy::kMonteCarlo}) {
      QueryOptions opt = OptionsFor(strategy);
      for (double q : datagen::MakeQueryPoints(5, 0.0, 250.0, /*seed=*/77)) {
        ExpectIdenticalResult(
            ToQueryResult(reference.Execute(q, opt)),
            engine.Execute(PointQuery{q, opt}),
            std::to_string(shards) + " shards " +
                std::string(ToString(strategy)));
      }
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

  EngineOptions eopt;
  eopt.num_shards = 8;
  eopt.num_threads = 2;
  QueryEngine sharded(data, eopt);

  CpnnExecutor reference(data);
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  for (double q : datagen::MakeQueryPoints(6, 0.0, 10000.0, /*seed=*/3)) {
    ExpectIdenticalResult(ToQueryResult(reference.Execute(q, opt)),
                          sharded.Execute(PointQuery{q, opt}),
                          "pruned point query");
  }
  EXPECT_GT(sharded.ShardsPruned(), 0u);
  EXPECT_GT(sharded.ShardVisits(), 0u);
  // Pruning skipped real work: not every query visited every shard.
  EXPECT_LT(sharded.ShardVisits(), 6u * sharded.num_shards());
}

TEST(ShardedEngineTest, AsyncSubmitMatchesReferenceUnderConcurrency) {
  Dataset data = datagen::MakeUniformScatter(200, 250.0, 2.0, /*seed=*/12);
  CpnnExecutor reference(data);
  EngineOptions eopt;
  eopt.num_shards = 4;
  eopt.num_threads = 2;
  QueryEngine sharded(data, eopt);

  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<double> points =
      datagen::MakeQueryPoints(8, 0.0, 250.0, /*seed=*/31);
  std::vector<QueryResult> expected;
  for (double q : points) {
    expected.push_back(ToQueryResult(reference.Execute(q, opt)));
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
  EXPECT_EQ(sharded.SubmitStats().requests, kThreads * kPerThread);
}

// Four threads, four shards: batched and submitted requests run on pool
// workers concurrently, each scattering over its own shards on the worker
// that runs it; answers must still match the executors bit for bit.
TEST(ShardedEngineTest, NestedScatterBitIdentical) {
  Dataset data = datagen::MakeUniformScatter(400, 250.0, 2.0, /*seed=*/23);
  testutil::ExecutorReference reference(data);
  const QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<double> points =
      datagen::MakeQueryPoints(4, 0.0, 250.0, /*seed=*/41);

  std::vector<testutil::RequestFactory> stream =
      testutil::MakeMixedKindStream(points, opt, /*seed=*/23);
  const CpnnExecutor& exec = reference.exec();
  for (double q : points) {
    stream.push_back([&exec, q, opt] {
      FilterResult filtered = exec.Filter(q);
      return QueryRequest(CandidatesQuery(
          CandidateSet::Build1D(exec.dataset(), filtered.candidates, q),
          opt));
    });
  }

  EngineOptions eopt;
  eopt.num_shards = 4;
  eopt.num_threads = 4;
  QueryEngine sharded(data, eopt);
  ASSERT_EQ(sharded.num_threads(), 4u);

  // exercise_submit covers requests posted one by one to the pool, which
  // run the shard scatter on a worker too.
  testutil::DifferentialConfig config;
  config.exercise_submit = true;
  testutil::RunDifferentialStream(reference, {{"4 shards", &sharded}}, stream,
                                  config);
}

// Queries at and next to every internal shard boundary: there the home
// shard's local cut admits a neighbour, whose local filter and survivors
// must merge into exactly the executors' answer. Every request runs through
// Execute on this thread and through Submit on the pool.
TEST(ShardedEngineTest, ShardBoundaryQueriesMatchExecutors) {
  constexpr size_t kShards = 4;
  constexpr double kDomain = 1000.0;
  auto policy = std::make_shared<const RangeShardingPolicy>(0.0, kDomain);
  datagen::Synthetic2DConfig config2d;
  config2d.count = 48;
  config2d.domain = kDomain;
  config2d.mean_extent = 20.0;
  config2d.seed = 29;
  // Dense shards, except that the last 1-D shard and the last 2-D stripe
  // keep only two objects: a k-NN homed there needs its neighbours'
  // objects to reach k, so its cap must come from the bounds MAXDIST walk.
  std::vector<Dataset> parts = PartitionDataset(
      datagen::MakeUniformScatter(64, kDomain, 10.0, /*seed=*/19), kShards,
      *policy);
  std::vector<Dataset2D> parts2d = PartitionDataset2D(
      datagen::MakeSynthetic2D(config2d), kShards, *policy);
  Dataset data;
  Dataset2D data2d;
  int k_big = 0;  // more objects than any shard holds
  for (size_t s = 0; s < kShards; ++s) {
    const size_t keep = s == 3 ? 2 : parts[s].size();
    const size_t keep2d = s == 3 ? 2 : parts2d[s].size();
    ASSERT_GE(parts[s].size(), keep);
    ASSERT_GE(parts2d[s].size(), keep2d);
    data.insert(data.end(), parts[s].begin(), parts[s].begin() + keep);
    data2d.insert(data2d.end(), parts2d[s].begin(),
                  parts2d[s].begin() + keep2d);
    k_big = std::max(k_big, static_cast<int>(std::max(keep, keep2d)) + 1);
  }

  testutil::ExecutorReference reference(data, data2d);
  QueryEngine sharded(data, data2d, EngineOptions{4, kShards, policy});
  ASSERT_EQ(sharded.num_threads(), 4u);

  const QueryOptions opt = OptionsFor(Strategy::kVR);
  std::vector<testutil::RequestFactory> stream = {
      [opt] { return QueryRequest(MinQuery{opt}); },
      [opt] { return QueryRequest(MaxQuery{opt}); }};
  const double y = 0.5 * kDomain;
  for (size_t s = 1; s < kShards; ++s) {
    const double b = kDomain * static_cast<double>(s) / kShards;
    const double fmin = reference.exec().Filter(b).fmin;
    const double fmin2d = reference.exec2d().Filter(Point2{b, y}).fmin;
    for (double f : {0.0, 1e-9, -1e-9, 0.5, -0.5, 2.0, -2.0}) {
      // The 1e-9 offsets are absolute; the others scale f_min.
      const bool absolute = std::abs(f) < 1.0e-3;
      const double q = b + (absolute ? f : f * fmin);
      const Point2 q2{b + (absolute ? f : f * fmin2d), y};
      stream.push_back([q, opt] { return QueryRequest(PointQuery{q, opt}); });
      stream.push_back(
          [q2, opt] { return QueryRequest(Point2DQuery{q2, opt}); });
      for (int k : {1, 3, k_big}) {
        stream.push_back(
            [q, k, opt] { return QueryRequest(KnnQuery{q, k, opt}); });
        stream.push_back(
            [q2, k, opt] { return QueryRequest(Knn2DQuery{q2, k, opt}); });
      }
    }
  }

  std::vector<std::future<QueryResult>> submitted;
  for (const testutil::RequestFactory& make : stream) {
    submitted.push_back(sharded.Submit(make()));
  }
  for (size_t i = 0; i < stream.size(); ++i) {
    const QueryResult expected = reference.Execute(stream[i]());
    const std::string what = "request " + std::to_string(i);
    testutil::ExpectEquivalentResult(expected, sharded.Execute(stream[i]()),
                                     what + " execute");
    testutil::ExpectEquivalentResult(expected, submitted[i].get(),
                                     what + " submit");
  }
  // The boundary queries did reach a second shard.
  EXPECT_GT(sharded.ShardFilters(), 2 * stream.size());
}

// A 1-D point query in the middle of an interior shard: the home shard's
// f_min is far below the distance to either neighbour's bounds, so that
// shard's filter is the only one that runs.
TEST(ShardedEngineTest, MidShardPointQueryFiltersOnlyItsHomeShard) {
  Dataset data = datagen::MakeUniformScatter(400, 1000.0, 2.0, /*seed=*/7);
  auto policy = std::make_shared<const RangeShardingPolicy>(0.0, 1000.0);
  QueryEngine sharded(data, EngineOptions{4, 4, policy});
  CpnnExecutor reference(data);
  const QueryOptions opt = OptionsFor(Strategy::kVR);

  ExpectIdenticalResult(ToQueryResult(reference.Execute(375.0, opt)),
                        sharded.Execute(PointQuery{375.0, opt}),
                        "mid-shard point query");
  EXPECT_EQ(sharded.ShardVisits(), 1u);
  EXPECT_EQ(sharded.ShardsPruned(), 3u);
  EXPECT_EQ(sharded.ShardFilters(), 1u);
}

TEST(ShardedEngineTest, DegenerateShapesMatchExecutors) {
  const QueryOptions opt = OptionsFor(Strategy::kVR);

  // Empty dataset.
  for (size_t shards : {1u, 4u}) {
    QueryEngine engine(Dataset{}, EngineOptions{2, shards});
    testutil::ExecutorReference reference{Dataset{}};
    // Requests are move-only, so each side gets its own freshly built
    // payload rather than a copy.
    const std::vector<std::function<QueryRequest()>> kinds = {
        [&] { return QueryRequest(PointQuery{1.0, opt}); },
        [&] { return QueryRequest(MinQuery{opt}); },
        [&] { return QueryRequest(MaxQuery{opt}); }};
    for (const auto& make : kinds) {
      ExpectIdenticalResult(reference.Execute(make()), engine.Execute(make()),
                            std::to_string(shards) + " shards, no data");
    }
  }

  // More shards than objects: most shards are empty.
  Dataset tiny = datagen::MakeUniformScatter(3, 50.0, 2.0, /*seed=*/2);
  testutil::ExecutorReference reference(tiny);
  for (size_t shards : {1u, 8u}) {
    QueryEngine engine(tiny, EngineOptions{2, shards});
    const std::string what = std::to_string(shards) + " shards, tiny ";
    for (double q : {0.0, 10.0, 25.0, 49.0}) {
      ExpectIdenticalResult(reference.Execute(PointQuery{q, opt}),
                            engine.Execute(PointQuery{q, opt}),
                            what + "point");
      ExpectIdenticalResult(reference.Execute(KnnQuery{q, 2, opt}),
                            engine.Execute(KnnQuery{q, 2, opt}),
                            what + "knn");
    }
    // k larger than the dataset.
    ExpectIdenticalResult(reference.Execute(KnnQuery{10.0, 7, opt}),
                          engine.Execute(KnnQuery{10.0, 7, opt}),
                          what + "k > n");
  }

  // Empty batch: stats stay zero and finite.
  {
    Dataset data = datagen::MakeUniformScatter(20, 50.0, 2.0, /*seed=*/6);
    QueryEngine sharded(data, EngineOptions{2, 2});
    EngineStats stats;
    EXPECT_TRUE(sharded.ExecuteBatch({}, &stats).empty());
    EXPECT_EQ(stats.queries, 0u);
    EXPECT_TRUE(std::isfinite(stats.QueriesPerSec()));
    EXPECT_TRUE(std::isfinite(stats.AvgQueryMs()));
    EXPECT_TRUE(std::isfinite(stats.PhaseFraction(&QueryStats::verify_ms)));
  }
}

TEST(ShardedEngineTest, PartitionDisjointCoverAndPolicyDeterminism) {
  Dataset data = datagen::MakeUniformScatter(200, 100.0, 1.5, /*seed=*/14);
  const RangeShardingPolicy policy = RangeShardingPolicy::ForDataset(data);
  std::vector<Dataset> shards = PartitionDataset(data, 4, policy);
  ASSERT_EQ(shards.size(), 4u);
  size_t total = 0;
  std::vector<ObjectId> seen;
  for (const Dataset& shard : shards) {
    total += shard.size();
    for (const UncertainObject& obj : shard) seen.push_back(obj.id());
  }
  EXPECT_EQ(total, data.size());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "object assigned twice";
  // Deterministic: partitioning again yields the same assignment.
  std::vector<Dataset> again = PartitionDataset(data, 4, policy);
  for (size_t s = 0; s < 4; ++s) {
    ASSERT_EQ(shards[s].size(), again[s].size());
    for (size_t i = 0; i < shards[s].size(); ++i) {
      EXPECT_EQ(shards[s][i].id(), again[s][i].id());
    }
  }
}

}  // namespace
}  // namespace pverify
