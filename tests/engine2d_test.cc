// Engine-native 2-D C-PNN tests: QueryKind::kPoint2D pinned bit-identical
// to CpnnExecutor2D::Execute, sharded-vs-unsharded 2-D equivalence across
// shard counts, a property test that 2-D shard pruning never
// drops a shard that could contribute, and scratch-footprint stability over
// a 100+-query 2-D batch.
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"
#include "engine/sharded_engine.h"
#include "spatial/bounds.h"
#include "spatial/filter.h"

namespace pverify {
namespace {

Dataset2D TestDataset2D(size_t count = 300, uint64_t seed = 21) {
  datagen::Synthetic2DConfig config;
  config.count = count;
  config.mean_extent = 30.0;
  config.max_extent = 120.0;
  config.seed = seed;
  return datagen::MakeSynthetic2D(config);
}

// Well-separated Gaussian clusters along the diagonal (the datagen
// clustered generator's default placement): range (x-stripe) sharding
// keeps each cluster in its own shard, so bounds-based pruning has teeth.
Dataset2D ClusteredDataset2D() {
  datagen::Synthetic2DClusteredConfig config;
  config.count = 160;
  config.domain = 10000.0;
  config.num_clusters = 4;
  config.cluster_stddev = 150.0;
  config.mean_extent = 4.0;
  config.max_extent = 12.0;
  config.seed = 77;
  return datagen::MakeSynthetic2DClustered(config);
}

QueryOptions OptionsFor(Strategy strategy) {
  QueryOptions opt;
  opt.params = {0.25, 0.01};
  opt.strategy = strategy;
  opt.report_probabilities = true;
  return opt;
}

// Bit-identical, not approximately equal: the engine-native 2-D path must
// run the exact same arithmetic as the executor. `Expected` is QueryAnswer
// (executor reference) or QueryResult (engine reference) — both expose the
// same answer fields.
template <typename Expected>
void ExpectIdentical(const Expected& expected, const QueryResult& got,
               const std::string& what) {
  EXPECT_EQ(expected.ids, got.ids) << what;
  ASSERT_EQ(expected.candidate_probabilities.size(),
            got.candidate_probabilities.size())
      << what;
  for (size_t i = 0; i < expected.candidate_probabilities.size(); ++i) {
    const AnswerEntry& e = expected.candidate_probabilities[i];
    const AnswerEntry& g = got.candidate_probabilities[i];
    EXPECT_EQ(e.id, g.id) << what << " entry " << i;
    EXPECT_EQ(e.bound.lower, g.bound.lower) << what << " entry " << i;
    EXPECT_EQ(e.bound.upper, g.bound.upper) << what << " entry " << i;
  }
  EXPECT_EQ(expected.stats.candidates, got.stats.candidates) << what;
}

TEST(Engine2DTest, BatchedPoint2DBitIdenticalToExecutorAllStrategies) {
  Dataset2D data = TestDataset2D();
  CpnnExecutor2D sequential(data);
  EngineOptions eopt;
  eopt.num_threads = 4;
  QueryEngine engine(data, eopt);
  ASSERT_NE(engine.executor2d(), nullptr);

  const std::vector<Point2> points =
      datagen::MakeQueryPoints2D(12, 0.0, 1000.0, /*seed=*/5);
  for (Strategy strategy : {Strategy::kBasic, Strategy::kRefine,
                            Strategy::kVR, Strategy::kMonteCarlo}) {
    QueryOptions opt = OptionsFor(strategy);
    std::vector<QueryRequest> batch;
    for (Point2 p : points) batch.push_back(Point2DQuery{p, opt});
    std::vector<QueryResult> results = engine.ExecuteBatch(std::move(batch));
    ASSERT_EQ(results.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      QueryAnswer expected = sequential.Execute(points[i], opt);
      ExpectIdentical(expected, results[i],
                      std::string(ToString(strategy)) + " query " +
                          std::to_string(i));
    }
  }
}

TEST(Engine2DTest, SubmitAndSerialExecuteMatchExecutor) {
  Dataset2D data = TestDataset2D(200, /*seed=*/9);
  CpnnExecutor2D sequential(data);
  QueryEngine engine(data, EngineOptions{2});
  QueryOptions opt = OptionsFor(Strategy::kVR);

  const std::vector<Point2> points =
      datagen::MakeQueryPoints2D(8, 0.0, 1000.0, /*seed=*/17);
  std::vector<std::future<QueryResult>> futures;
  for (Point2 p : points) {
    futures.push_back(engine.Submit(Point2DQuery{p, opt}));
  }
  for (size_t i = 0; i < points.size(); ++i) {
    ExpectIdentical(sequential.Execute(points[i], opt),
                    futures[i].get(), "submit " + std::to_string(i));
  }
  ExpectIdentical(sequential.Execute(points[0], opt),
                  engine.Execute(Point2DQuery{points[0], opt}),
                  "serial execute");
}

TEST(Engine2DTest, DualModeEngineServesMixedBatches) {
  Dataset data1d = datagen::MakeUniformScatter(200, 250.0, 2.0, /*seed=*/3);
  Dataset2D data2d = TestDataset2D(150, /*seed=*/33);
  CpnnExecutor ref1d(data1d);
  CpnnExecutor2D ref2d(data2d);
  QueryEngine engine(data1d, data2d, EngineOptions{4});

  QueryOptions opt = OptionsFor(Strategy::kVR);
  std::vector<QueryRequest> batch;
  batch.push_back(PointQuery{125.0, opt});
  batch.push_back(Point2DQuery{{500.0, 500.0}, opt});
  batch.push_back(MinQuery{opt});
  batch.push_back(Point2DQuery{{120.0, 880.0}, opt});
  std::vector<QueryResult> results = engine.ExecuteBatch(std::move(batch));
  ASSERT_EQ(results.size(), 4u);
  ExpectIdentical(ref1d.Execute(125.0, opt), results[0], "1-D point");
  ExpectIdentical(ref2d.Execute({500.0, 500.0}, opt), results[1],
                  "2-D point");
  ExpectIdentical(ref1d.ExecuteMin(opt), results[2], "min");
  ExpectIdentical(ref2d.Execute({120.0, 880.0}, opt), results[3],
                  "2-D point 2");
}

TEST(Engine2DTest, Point2DWithoutDatasetThrows) {
  Dataset data1d = datagen::MakeUniformScatter(50, 100.0, 2.0, /*seed=*/4);
  QueryOptions opt = OptionsFor(Strategy::kVR);

  QueryEngine engine(data1d, EngineOptions{1});
  EXPECT_EQ(engine.executor2d(), nullptr);
  EXPECT_THROW(engine.Execute(Point2DQuery{{1.0, 1.0}, opt}),
               std::logic_error);

  ShardedQueryEngine sharded(data1d, ShardedEngineOptions{2, nullptr, 2});
  EXPECT_THROW(sharded.Execute(Point2DQuery{{1.0, 1.0}, opt}),
               std::logic_error);
}

// A 2-D dataset that happens to be empty is served (empty answers), and the
// sharded and unsharded engines agree — including the dual-mode ctors.
TEST(Engine2DTest, EmptyDataset2DServesEmptyAnswersConsistently) {
  Dataset data1d = datagen::MakeUniformScatter(50, 100.0, 2.0, /*seed=*/4);
  QueryOptions opt = OptionsFor(Strategy::kVR);
  auto request = [&] { return QueryRequest(Point2DQuery{{1.0, 1.0}, opt}); };

  QueryEngine unsharded(Dataset2D{}, EngineOptions{1});
  QueryResult expected = unsharded.Execute(request());
  EXPECT_TRUE(expected.ids.empty());
  EXPECT_EQ(expected.stats.candidates, 0u);

  QueryEngine dual(data1d, Dataset2D{}, EngineOptions{1});
  ExpectIdentical(expected, dual.Execute(request()), "dual unsharded");

  ShardedQueryEngine sharded(Dataset2D{}, ShardedEngineOptions{2, nullptr, 2});
  ExpectIdentical(expected, sharded.Execute(request()), "sharded 2-D");

  ShardedQueryEngine sharded_dual(data1d, Dataset2D{},
                                  ShardedEngineOptions{2, nullptr, 2});
  ExpectIdentical(expected, sharded_dual.Execute(request()),
                  "sharded dual");
}

// Recycling without arena-backed construction (the sharded gather path)
// must not grow the scratch pools unboundedly: the spare-distribution pool
// is capped at the arena's own take demand, which is zero here.
TEST(Engine2DTest, ShardedGatherDoesNotGrowScratchUnboundedly) {
  Dataset2D data = TestDataset2D(200, /*seed=*/37);
  ShardedEngineOptions sopt;
  sopt.num_shards = 2;
  sopt.num_threads = 1;
  ShardedQueryEngine sharded(data, sopt);
  QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<Point2> points =
      datagen::MakeQueryPoints2D(40, 0.0, 1000.0, /*seed=*/53);

  auto run_batch = [&] {
    std::vector<QueryRequest> batch;
    for (Point2 p : points) batch.push_back(Point2DQuery{p, opt});
    std::vector<QueryResult> results = sharded.ExecuteBatch(std::move(batch));
    ASSERT_EQ(results.size(), points.size());
  };
  run_batch();
  run_batch();
  const size_t after_two = sharded.ScratchBytes();
  run_batch();
  run_batch();
  EXPECT_EQ(sharded.ScratchBytes(), after_two);
  EXPECT_EQ(sharded.ScratchQueriesServed(), 4 * points.size());
}

TEST(Engine2DTest, ShardedPoint2DBitIdenticalAcrossShardCounts) {
  std::vector<Dataset2D> datasets;
  datasets.push_back(TestDataset2D(300, /*seed=*/21));
  datasets.push_back(TestDataset2D(300, /*seed=*/99));
  datasets.push_back(ClusteredDataset2D());

  for (size_t d = 0; d < datasets.size(); ++d) {
    const Dataset2D& data = datasets[d];
    const double domain_hi = d < 2 ? 1000.0 : 10000.0;
    const std::vector<Point2> points =
        datagen::MakeQueryPoints2D(5, 0.0, domain_hi, /*seed=*/41 + d);
    const QueryOptions opt = OptionsFor(Strategy::kVR);

    QueryEngine reference(data, EngineOptions{2});
    std::vector<QueryRequest> ref_batch;
    for (Point2 p : points) ref_batch.push_back(Point2DQuery{p, opt});
    std::vector<QueryResult> expected =
        reference.ExecuteBatch(std::move(ref_batch));

    for (size_t shards : {1u, 2u, 4u}) {
      ShardedEngineOptions sopt;
      sopt.num_shards = shards;
      sopt.num_threads = 2;
      ShardedQueryEngine sharded(data, sopt);
      ASSERT_EQ(sharded.num_shards(), shards);

      std::vector<QueryRequest> batch;
      for (Point2 p : points) batch.push_back(Point2DQuery{p, opt});
      std::vector<QueryResult> got = sharded.ExecuteBatch(std::move(batch));
      ASSERT_EQ(expected.size(), got.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ExpectIdentical(expected[i], got[i],
                        "dataset " + std::to_string(d) + " shards " +
                            std::to_string(shards) + " query " +
                            std::to_string(i));
      }
      // Single Execute and async Submit run the same scatter/gather.
      ExpectIdentical(expected[0],
                      sharded.Execute(Point2DQuery{points[0], opt}),
                      "single execute");
      std::future<QueryResult> f =
          sharded.Submit(Point2DQuery{points[1], opt});
      ExpectIdentical(expected[1], f.get(), "async submit");
    }
  }
}

TEST(Engine2DTest, RangeSharding2DPrunesDistantShards) {
  Dataset2D data = ClusteredDataset2D();
  ShardedEngineOptions sopt;
  sopt.num_shards = 8;
  sopt.num_threads = 2;
  ShardedQueryEngine sharded(data, sopt);
  QueryEngine reference(data, EngineOptions{1});

  const QueryOptions opt = OptionsFor(Strategy::kVR);
  // Queries inside the clusters (the generator places them at 1250, 3750,
  // 6250, 8750 on the diagonal): each should touch its own neighborhood
  // only, not every shard.
  std::vector<Point2> points = {{1230.0, 1270.0}, {3770.0, 3730.0},
                                {6260.0, 6240.0}, {8730.0, 8770.0}};
  for (Point2 p : points) {
    ExpectIdentical(reference.Execute(Point2DQuery{p, opt}),
                    sharded.Execute(Point2DQuery{p, opt}),
                    "pruned 2-D point query");
  }
  EXPECT_GT(sharded.ShardsPruned(), 0u);
  EXPECT_GT(sharded.ShardVisits(), 0u);
  EXPECT_LT(sharded.ShardVisits(), points.size() * sharded.num_shards());
}

// The pruning-safety property: a shard skipped by the Mbr-based cap (its
// MINDIST exceeds the home shard's local f_min, the home shard being the
// one with data and the smallest MINDIST) must not contain any object that
// could contribute to the answer — no object passing the global-f_min
// filter cut — and the shard bounds must sandwich every contained object's
// exact distances.
TEST(Engine2DTest, Point2DPruningNeverDropsContributingShard) {
  std::vector<Dataset2D> datasets;
  datasets.push_back(TestDataset2D(250, /*seed=*/55));
  datasets.push_back(ClusteredDataset2D());

  for (size_t d = 0; d < datasets.size(); ++d) {
    const Dataset2D& data = datasets[d];
    const double domain_hi = d == 0 ? 1000.0 : 10000.0;
    const std::vector<Point2> points =
        datagen::MakeQueryPoints2D(20, 0.0, domain_hi, /*seed=*/7 + d);

    for (size_t shards : {2u, 4u, 8u}) {
      ShardedEngineOptions sopt;
      sopt.num_shards = shards;
      sopt.num_threads = 1;
      ShardedQueryEngine engine(data, sopt);

      // Bounds sandwich every contained object's exact distances.
      for (size_t s = 0; s < engine.num_shards(); ++s) {
        const ShardBounds2D& b = engine.shard_bounds2d(s);
        const Dataset2D& part = engine.shard_executor2d(s)->dataset();
        for (Point2 q : points) {
          for (const UncertainObject2D& obj : part) {
            EXPECT_LE(MbrMinDistToBounds2D(q, b), obj.MinDist(q) + 1e-9);
            EXPECT_GE(MbrMaxDistToBounds2D(q, b), obj.MaxDist(q) - 1e-9);
          }
        }
      }

      for (Point2 q : points) {
        const double fmin = FilterKByScan2D(data, q, 1).fmin;
        // Replicate the engine's pruning decision from its public bounds
        // and shard executors.
        size_t home = engine.num_shards();
        for (size_t s = 0; s < engine.num_shards(); ++s) {
          const ShardBounds2D& b = engine.shard_bounds2d(s);
          if (b.empty()) continue;
          if (home == engine.num_shards() ||
              MbrMinDistToBounds2D(q, b) <
                  MbrMinDistToBounds2D(q, engine.shard_bounds2d(home))) {
            home = s;
          }
        }
        ASSERT_LT(home, engine.num_shards());
        const double cap = engine.shard_executor2d(home)->Filter(q).fmin;
        for (size_t s = 0; s < engine.num_shards(); ++s) {
          const ShardBounds2D& b = engine.shard_bounds2d(s);
          if (b.empty()) continue;
          const bool pruned =
              MbrMinDistToBounds2D(q, b) > cap + kFilterBoundarySlack;
          if (!pruned) continue;
          const Dataset2D& part = engine.shard_executor2d(s)->dataset();
          for (const UncertainObject2D& obj : part) {
            // No pruned object survives the global filter cut — the shard
            // could not have contributed a candidate (and, since MinDist <=
            // MaxDist, could not have lowered f_min either).
            EXPECT_GT(obj.MinDist(q), fmin + kFilterBoundarySlack)
                << "shards " << shards << " dropped a contributing shard";
          }
        }
      }
    }
  }
}

TEST(Engine2DTest, ScratchBackedExecutorAnswersBitIdenticalToFresh) {
  Dataset2D data = TestDataset2D(200, /*seed=*/13);
  CpnnExecutor2D exec(data);
  QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<Point2> points =
      datagen::MakeQueryPoints2D(40, 0.0, 1000.0, /*seed=*/61);

  QueryScratch scratch;
  for (Point2 q : points) {
    QueryAnswer fresh = exec.Execute(q, opt);             // fresh buffers
    QueryAnswer reused = exec.Execute(q, opt, &scratch);  // borrowed buffers
    EXPECT_EQ(fresh.ids, reused.ids);
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
  // The candidate arena is engaged: distribution storage was recycled.
  EXPECT_GT(scratch.candidates.ApproxBytes(), 0u);
  EXPECT_FALSE(scratch.candidates.spare.empty());
}

// Acceptance pin: a 100+-query 2-D batch reaches a stable scratch footprint
// — replaying the whole batch allocates nothing new (no per-query growth).
TEST(Engine2DTest, HundredQuery2DBatchReachesStableScratchFootprint) {
  Dataset2D data = TestDataset2D(250, /*seed=*/29);
  QueryEngine engine(data, EngineOptions{1});  // one worker, one scratch
  QueryOptions opt = OptionsFor(Strategy::kVR);
  const std::vector<Point2> points =
      datagen::MakeQueryPoints2D(120, 0.0, 1000.0, /*seed=*/71);

  auto run_batch = [&] {
    std::vector<QueryRequest> batch;
    batch.reserve(points.size());
    for (Point2 p : points) batch.push_back(Point2DQuery{p, opt});
    std::vector<QueryResult> results = engine.ExecuteBatch(std::move(batch));
    ASSERT_EQ(results.size(), points.size());
  };

  // Warm up until the arena capacities reach the workload's high-water
  // mark (largest-capacity-first recycling converges in a few passes).
  size_t passes = 0;
  size_t high_water = 0;
  for (int pass = 0; pass < 6; ++pass) {
    run_batch();
    ++passes;
    const size_t bytes = engine.ScratchBytes();
    if (bytes == high_water) break;
    high_water = bytes;
  }
  EXPECT_GT(high_water, 0u);
  // Replaying the same 120 queries grows nothing.
  run_batch();
  EXPECT_EQ(engine.ScratchBytes(), high_water);
  run_batch();
  EXPECT_EQ(engine.ScratchBytes(), high_water);
  passes += 2;
  EXPECT_EQ(engine.ScratchQueriesServed(), passes * points.size());
}

}  // namespace
}  // namespace pverify
