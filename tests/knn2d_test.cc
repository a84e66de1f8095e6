// 2-D constrained k-NN through the engine stack: CpnnExecutor2D::ExecuteKnn
// vs. the scan filter's invariants, Knn2DQuery pinned bit-identical to the
// executor through QueryEngine (batch/submit/serial), and the
// KnnScatterPolicy<2> instantiation pinned bit-identical to the executor
// at 1/2/4 shards, at interior and domain-edge query points.
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query.h"
#include "core/query2d.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"
#include "spatial/filter.h"

namespace pverify {
namespace {

Dataset2D TestDataset2D(size_t count = 240, uint64_t seed = 31) {
  datagen::Synthetic2DConfig config;
  config.count = count;
  config.mean_extent = 30.0;
  config.max_extent = 120.0;
  config.seed = seed;
  return datagen::MakeSynthetic2D(config);
}

Dataset2D ClusteredDataset2D() {
  datagen::Synthetic2DClusteredConfig config;
  config.count = 160;
  config.domain = 10000.0;
  config.num_clusters = 4;
  config.cluster_stddev = 150.0;
  config.mean_extent = 4.0;
  config.max_extent = 12.0;
  config.seed = 51;
  return datagen::MakeSynthetic2DClustered(config);
}

QueryOptions TestOptions() {
  QueryOptions opt;
  opt.params = {0.2, 0.01};
  return opt;
}

// Bit-identical, not approximately equal: every path must run the exact
// same arithmetic as CpnnExecutor2D::ExecuteKnn.
void ExpectIdenticalKnn(const CknnAnswer& expected, const QueryResult& got,
                        const std::string& what) {
  EXPECT_EQ(expected.ids, got.ids) << what;
  ASSERT_TRUE(got.knn.has_value()) << what;
  EXPECT_EQ(expected.ids, got.knn->ids) << what;
  ASSERT_EQ(expected.bounds.size(), got.knn->bounds.size()) << what;
  for (size_t i = 0; i < expected.bounds.size(); ++i) {
    EXPECT_EQ(expected.bounds[i].lower, got.knn->bounds[i].lower)
        << what << " bound " << i;
    EXPECT_EQ(expected.bounds[i].upper, got.knn->bounds[i].upper)
        << what << " bound " << i;
  }
  EXPECT_EQ(expected.bounds.size(), got.stats.candidates) << what;
}

TEST(Knn2DTest, FilterKByScan2DInvariants) {
  Dataset2D data = TestDataset2D();
  const Point2 q{500.0, 500.0};
  for (int k : {1, 2, 5, 17}) {
    FilterResult filtered = FilterKByScan2D(data, q, k);
    // fmin is the k-th smallest far point: at least k objects lie fully
    // within it, and every candidate's near point does not exceed it.
    size_t within = 0;
    for (const UncertainObject2D& obj : data) {
      if (obj.MaxDist(q) <= filtered.fmin) ++within;
    }
    EXPECT_GE(within, static_cast<size_t>(k)) << "k=" << k;
    EXPECT_GE(filtered.candidates.size(), static_cast<size_t>(k));
    for (uint32_t idx : filtered.candidates) {
      EXPECT_LE(data[idx].MinDist(q), filtered.fmin + kFilterBoundarySlack);
    }
    // k = 1 degenerates to the plain PNN filter.
    if (k == 1) {
      FilterResult pnn = PnnFilter2D(data).Filter(q);
      EXPECT_EQ(pnn.fmin, filtered.fmin);
      EXPECT_EQ(pnn.candidates, filtered.candidates);
    }
  }
}

TEST(Knn2DTest, EngineKnn2DBitIdenticalToExecutorBatchSubmitSerial) {
  Dataset2D data = TestDataset2D();
  CpnnExecutor2D sequential(data);
  EngineOptions eopt;
  eopt.num_threads = 4;
  QueryEngine engine(data, eopt);
  const QueryOptions opt = TestOptions();
  const std::vector<Point2> points =
      datagen::MakeQueryPoints2D(8, 0.0, 1000.0, /*seed=*/13);

  std::vector<QueryRequest> batch;
  for (Point2 p : points) batch.push_back(Knn2DQuery{p, 3, opt});
  std::vector<QueryResult> results = engine.ExecuteBatch(std::move(batch));
  ASSERT_EQ(results.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    CknnAnswer expected =
        sequential.ExecuteKnn(points[i], 3, opt.params, opt.integration);
    ExpectIdenticalKnn(expected, results[i],
                       "batch query " + std::to_string(i));
  }

  std::vector<std::future<QueryResult>> futures;
  for (Point2 p : points) {
    futures.push_back(engine.Submit(Knn2DQuery{p, 2, opt}));
  }
  for (size_t i = 0; i < points.size(); ++i) {
    CknnAnswer expected =
        sequential.ExecuteKnn(points[i], 2, opt.params, opt.integration);
    ExpectIdenticalKnn(expected, futures[i].get(),
                       "submit query " + std::to_string(i));
  }

  CknnAnswer expected =
      sequential.ExecuteKnn(points[0], 5, opt.params, opt.integration);
  ExpectIdenticalKnn(expected, engine.Execute(Knn2DQuery{points[0], 5, opt}),
                     "serial execute");
}

TEST(Knn2DTest, ShardedKnn2DBitIdenticalAcrossShardCounts) {
  for (bool clustered : {false, true}) {
    Dataset2D data = clustered ? ClusteredDataset2D() : TestDataset2D();
    const double domain = clustered ? 10000.0 : 1000.0;
    CpnnExecutor2D sequential(data);
    const QueryOptions opt = TestOptions();
    std::vector<Point2> points =
        datagen::MakeQueryPoints2D(6, 0.0, domain, /*seed=*/7);
    // Domain corners and points beyond the edges, where f^(k) is large and
    // the candidate sets span several shards.
    for (Point2 edge : {Point2{0.0, 0.0}, Point2{domain, domain},
                        Point2{-0.05 * domain, 0.5 * domain},
                        Point2{1.2 * domain, 1.2 * domain}}) {
      points.push_back(edge);
    }

    for (size_t shards : {1u, 2u, 4u}) {
      EngineOptions eopt;
      eopt.num_shards = shards;
      eopt.num_threads = 2;
      QueryEngine sharded(data, eopt);

      for (int k : {1, 3, 7}) {
        std::vector<QueryRequest> batch;
        for (Point2 p : points) batch.push_back(Knn2DQuery{p, k, opt});
        std::vector<QueryResult> results =
            sharded.ExecuteBatch(std::move(batch));
        for (size_t i = 0; i < points.size(); ++i) {
          CknnAnswer expected = sequential.ExecuteKnn(
              points[i], k, opt.params, opt.integration);
          ExpectIdenticalKnn(expected, results[i],
                             std::string(clustered ? "clustered" : "uniform") +
                                 " shards " + std::to_string(shards) + " k " +
                                 std::to_string(k) + " query " +
                                 std::to_string(i));
        }
      }
    }
  }
}

TEST(Knn2DTest, KLargerThanDatasetKeepsEveryObject) {
  Dataset2D data = TestDataset2D(12, /*seed=*/3);
  CpnnExecutor2D sequential(data);
  const QueryOptions opt = TestOptions();
  EngineOptions eopt;
  eopt.num_shards = 4;
  eopt.num_threads = 2;
  QueryEngine sharded(data, eopt);
  const Point2 q{400.0, 600.0};
  CknnAnswer expected =
      sequential.ExecuteKnn(q, 50, opt.params, opt.integration);
  EXPECT_EQ(expected.bounds.size(), data.size());
  ExpectIdenticalKnn(expected, sharded.Execute(Knn2DQuery{q, 50, opt}),
                     "k beyond dataset");
}

TEST(Knn2DTest, NotANumberQueryIsRejectedByEnginesAnsweredEmptyByExecutors) {
  // The engine rejects a NaN q before it reaches a filter, at one shard and
  // at 8 (8 range shards over 5 objects leave some shards without data). The core executors still answer it empty: a NaN q compares false
  // with every distance, so their filters find no candidates.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const QueryOptions opt = TestOptions();
  Dataset data1d;
  for (ObjectId id = 0; id < 5; ++id) {
    data1d.emplace_back(id, MakeUniformPdf(10.0 * id, 10.0 * id + 4.0));
  }
  const Dataset2D data2d = TestDataset2D(5, /*seed=*/9);
  const CpnnExecutor executor(data1d);
  const CpnnExecutor2D executor2d(data2d);
  for (size_t shards : {1u, 8u}) {
    EngineOptions eopt;
    eopt.num_shards = shards;
    eopt.num_threads = 2;
    QueryEngine engine(data1d, data2d, eopt);
    for (int k : {1, 3, 5, 9}) {
      const std::string what =
          "shards " + std::to_string(shards) + " k " + std::to_string(k);
      EXPECT_THROW(engine.Execute(KnnQuery{nan, k, opt}),
                   std::invalid_argument)
          << "1-D " << what;
      EXPECT_TRUE(
          executor.ExecuteKnn(nan, k, opt.params, opt.integration)
              .bounds.empty())
          << "executor 1-D " << what;
      for (Point2 q : {Point2{nan, nan}, Point2{nan, 300.0}}) {
        EXPECT_THROW(engine.Execute(Knn2DQuery{q, k, opt}),
                     std::invalid_argument)
            << "2-D " << what;
        const CknnAnswer answer =
            executor2d.ExecuteKnn(q, k, opt.params, opt.integration);
        EXPECT_TRUE(answer.ids.empty()) << "executor 2-D " << what;
        EXPECT_TRUE(answer.bounds.empty()) << "executor 2-D " << what;
      }
    }
  }
}

TEST(Knn2DTest, Knn2DWithoutDatasetThrows) {
  Dataset data1d;
  data1d.emplace_back(1, MakeUniformPdf(0.0, 1.0));
  for (size_t shards : {1u, 2u}) {
    QueryEngine engine(data1d, EngineOptions{1, shards});
    EXPECT_THROW(engine.Execute(Knn2DQuery{{0.0, 0.0}, 2, TestOptions()}),
                 std::exception);
  }
}

TEST(Knn2DTest, EmptyDataset2DAnswersEmpty) {
  for (size_t shards : {1u, 2u}) {
    QueryEngine engine(Dataset2D{}, EngineOptions{1, shards});
    QueryResult result =
        engine.Execute(Knn2DQuery{{1.0, 2.0}, 3, TestOptions()});
    EXPECT_TRUE(result.ids.empty());
    ASSERT_TRUE(result.knn.has_value());
    EXPECT_TRUE(result.knn->bounds.empty());
  }
}

}  // namespace
}  // namespace pverify
