#include "datagen/synthetic.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/partition.h"
#include "datagen/workload.h"

namespace pverify {
namespace {

TEST(SyntheticTest, RespectsCountAndDomain) {
  datagen::SyntheticConfig config;
  config.count = 1234;
  config.domain_lo = 10.0;
  config.domain_hi = 500.0;
  Dataset data = datagen::MakeSynthetic(config);
  ASSERT_EQ(data.size(), 1234u);
  for (const UncertainObject& obj : data) {
    EXPECT_GE(obj.lo(), 10.0);
    EXPECT_LE(obj.hi(), 500.0);
    EXPECT_LT(obj.lo(), obj.hi());
  }
}

TEST(SyntheticTest, IdsAreSequential) {
  Dataset data = datagen::MakeUniformScatter(100);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].id(), static_cast<ObjectId>(i));
  }
}

TEST(SyntheticTest, DeterministicPerSeed) {
  datagen::SyntheticConfig config;
  config.count = 50;
  config.seed = 99;
  Dataset a = datagen::MakeSynthetic(config);
  Dataset b = datagen::MakeSynthetic(config);
  config.seed = 100;
  Dataset c = datagen::MakeSynthetic(config);
  ASSERT_EQ(a.size(), b.size());
  bool all_equal = true;
  bool differs_from_c = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].lo() != b[i].lo() || a[i].hi() != b[i].hi()) all_equal = false;
    if (a[i].lo() != c[i].lo()) differs_from_c = true;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(differs_from_c);
}

TEST(SyntheticTest, PdfKindsApplied) {
  datagen::SyntheticConfig config;
  config.count = 10;
  config.pdf = datagen::PdfKind::kGaussian;
  config.gaussian_bars = 300;
  Dataset data = datagen::MakeSynthetic(config);
  for (const UncertainObject& obj : data) {
    EXPECT_EQ(obj.pdf().name(), "gaussian");
    EXPECT_EQ(obj.pdf().num_bars(), 300u);
  }
  config.pdf = datagen::PdfKind::kUniform;
  data = datagen::MakeSynthetic(config);
  for (const UncertainObject& obj : data) {
    EXPECT_EQ(obj.pdf().name(), "uniform");
  }
  config.pdf = datagen::PdfKind::kMixed;
  data = datagen::MakeSynthetic(config);
  EXPECT_EQ(data[0].pdf().name(), "uniform");
  EXPECT_EQ(data[1].pdf().name(), "gaussian");
  EXPECT_EQ(data[2].pdf().name(), "triangular");
}

TEST(SyntheticTest, LongBeachLikeDefaults) {
  Dataset data = datagen::MakeLongBeachLike();
  EXPECT_EQ(data.size(), 53144u);  // paper §V-A cardinality
  double max_hi = 0.0;
  for (const UncertainObject& obj : data) max_hi = std::max(max_hi, obj.hi());
  EXPECT_LE(max_hi, 10000.0);
}

TEST(SyntheticTest, AverageCandidateSetNearPaper) {
  // The paper reports ~96 candidates on average after filtering. Our
  // synthetic stand-in should be in the same regime (tens to ~200).
  Dataset data = datagen::MakeLongBeachLike();
  CpnnExecutor exec(data);
  auto queries = datagen::MakeQueryPoints(30, 0.0, 10000.0, 55);
  double total = 0.0;
  for (double q : queries) total += exec.Filter(q).candidates.size();
  double avg = total / queries.size();
  EXPECT_GE(avg, 20.0);
  EXPECT_LE(avg, 300.0);
}

TEST(Synthetic2DTest, RegionsInsideDomain) {
  datagen::Synthetic2DConfig config;
  config.count = 300;
  Dataset2D data = datagen::MakeSynthetic2D(config);
  ASSERT_EQ(data.size(), 300u);
  size_t circles = 0;
  for (const UncertainObject2D& obj : data) {
    EXPECT_GT(obj.Area(), 0.0);
    if (!obj.is_rect()) ++circles;
  }
  EXPECT_GT(circles, 50u);
  EXPECT_LT(circles, 250u);
}

TEST(Synthetic2DClusteredTest, ObjectsConcentrateAroundDiagonalCenters) {
  datagen::Synthetic2DClusteredConfig config;
  config.count = 400;
  config.domain = 10000.0;
  config.num_clusters = 4;
  config.cluster_stddev = 150.0;
  Dataset2D data = datagen::MakeSynthetic2DClustered(config);
  ASSERT_EQ(data.size(), 400u);

  // Default centers sit at domain*(i+0.5)/4 on the diagonal. Every object
  // must lie within a few stddevs of SOME center (clamped to the domain),
  // i.e. the scatter is genuinely clustered, not uniform.
  const double centers[] = {1250.0, 3750.0, 6250.0, 8750.0};
  size_t ids = 0;
  for (const UncertainObject2D& obj : data) {
    EXPECT_EQ(obj.id(), static_cast<ObjectId>(ids++));
    EXPECT_GT(obj.Area(), 0.0);
    double best = 1e18;
    for (double c : centers) {
      best = std::min(best, obj.MinDist({c, c}));
    }
    // 6 stddevs of center noise plus the largest extent.
    EXPECT_LT(best, 6.0 * config.cluster_stddev + config.max_extent)
        << "object " << obj.id() << " is not near any cluster";
  }

  // Deterministic per seed, different across seeds.
  Dataset2D again = datagen::MakeSynthetic2DClustered(config);
  ASSERT_EQ(again.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].MinDist({0.0, 0.0}), again[i].MinDist({0.0, 0.0}));
  }
  config.seed += 1;
  Dataset2D other = datagen::MakeSynthetic2DClustered(config);
  bool all_equal = true;
  for (size_t i = 0; i < data.size(); ++i) {
    if (data[i].MinDist({0.0, 0.0}) != other[i].MinDist({0.0, 0.0})) {
      all_equal = false;
      break;
    }
  }
  EXPECT_FALSE(all_equal);

  // Explicit centers are honored.
  datagen::Synthetic2DClusteredConfig pinned = config;
  pinned.centers = {{100.0, 9000.0}};
  pinned.cluster_stddev = 10.0;
  Dataset2D one_cluster = datagen::MakeSynthetic2DClustered(pinned);
  for (const UncertainObject2D& obj : one_cluster) {
    EXPECT_LT(obj.MinDist({100.0, 9000.0}),
              6.0 * pinned.cluster_stddev + pinned.max_extent);
  }
}

TEST(WorkloadTest, QueryPointsInRange) {
  auto pts = datagen::MakeQueryPoints(500, 3.0, 7.0, 1);
  ASSERT_EQ(pts.size(), 500u);
  for (double p : pts) {
    EXPECT_GE(p, 3.0);
    EXPECT_LT(p, 7.0);
  }
}

TEST(WorkloadTest, ZipfPointsStayInDomainAndAreDeterministic) {
  datagen::ZipfConfig config;
  auto a = datagen::MakeQueryPointsZipf(400, 2.0, 12.0, config, 5);
  auto b = datagen::MakeQueryPointsZipf(400, 2.0, 12.0, config, 5);
  auto c = datagen::MakeQueryPointsZipf(400, 2.0, 12.0, config, 6);
  ASSERT_EQ(a.size(), 400u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (double p : a) {
    EXPECT_GE(p, 2.0);
    EXPECT_LE(p, 12.0);
  }
}

TEST(WorkloadTest, ZipfPointsConcentrateOnTheHotHotspot) {
  // With exponent 1 and 16 hotspots the rank-0 center's weight is
  // 1/H_16 ≈ 0.296 of all draws — far above the uniform 1/16. Attribute
  // each point to its nearest center (the scatter stddev is 1% of the
  // domain, so attribution is essentially exact) and check both the skew
  // and that the tail hotspots still receive queries.
  datagen::ZipfConfig config;
  config.num_hotspots = 16;
  config.exponent = 1.0;
  config.spread_fraction = 0.002;
  const double lo = 0.0, hi = 10000.0;
  const size_t n = 4000;
  auto pts = datagen::MakeQueryPointsZipf(n, lo, hi, config, 77);

  // Centers are the first num_hotspots draws from the same seeded stream.
  Rng rng(77);
  std::vector<double> centers(config.num_hotspots);
  for (double& c : centers) c = rng.Uniform(lo, hi);

  std::vector<size_t> hits(config.num_hotspots, 0);
  for (double p : pts) {
    size_t best = 0;
    for (size_t h = 1; h < centers.size(); ++h) {
      if (std::abs(p - centers[h]) < std::abs(p - centers[best])) best = h;
    }
    ++hits[best];
  }
  const double top = static_cast<double>(hits[0]) / static_cast<double>(n);
  EXPECT_GT(top, 0.2) << "rank-0 hotspot should absorb ~30% of queries";
  EXPECT_LT(top, 0.45);
  size_t touched = 0;
  for (size_t h : hits) touched += h > 0 ? 1 : 0;
  EXPECT_GE(touched, 12u) << "the Zipf tail should still be sampled";
}

TEST(WorkloadTest, Zipf2DPointsStayInDomainAndSkew) {
  datagen::ZipfConfig config;
  config.num_hotspots = 8;
  config.exponent = 1.2;
  config.spread_fraction = 0.002;
  const double lo = 0.0, hi = 1000.0;
  const size_t n = 3000;
  auto pts = datagen::MakeQueryPointsZipf2D(n, lo, hi, config, 21);
  ASSERT_EQ(pts.size(), n);
  for (const Point2& p : pts) {
    EXPECT_GE(p.x, lo);
    EXPECT_LE(p.x, hi);
    EXPECT_GE(p.y, lo);
    EXPECT_LE(p.y, hi);
  }

  Rng rng(21);
  std::vector<Point2> centers(config.num_hotspots);
  for (Point2& c : centers) {
    c.x = rng.Uniform(lo, hi);
    c.y = rng.Uniform(lo, hi);
  }
  std::vector<size_t> hits(config.num_hotspots, 0);
  for (const Point2& p : pts) {
    size_t best = 0;
    double best_d = 1e300;
    for (size_t h = 0; h < centers.size(); ++h) {
      const double dx = p.x - centers[h].x;
      const double dy = p.y - centers[h].y;
      const double d = dx * dx + dy * dy;
      if (d < best_d) {
        best_d = d;
        best = h;
      }
    }
    ++hits[best];
  }
  // Rank 0 carries weight 1/Σ(r+1)^-1.2 ≈ 0.38 at H=8, s=1.2.
  const double top = static_cast<double>(hits[0]) / static_cast<double>(n);
  EXPECT_GT(top, 0.25);
  // Deterministic per seed.
  auto again = datagen::MakeQueryPointsZipf2D(n, lo, hi, config, 21);
  ASSERT_EQ(again.size(), pts.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(pts[i].x, again[i].x);
    EXPECT_EQ(pts[i].y, again[i].y);
  }
}

TEST(WorkloadTest, ZipfExponentZeroDegeneratesToUniformOverHotspots) {
  datagen::ZipfConfig config;
  config.num_hotspots = 4;
  config.exponent = 0.0;
  config.spread_fraction = 0.001;
  const size_t n = 4000;
  auto pts = datagen::MakeQueryPointsZipf(n, 0.0, 1000.0, config, 9);
  Rng rng(9);
  std::vector<double> centers(config.num_hotspots);
  for (double& c : centers) c = rng.Uniform(0.0, 1000.0);
  std::vector<size_t> hits(config.num_hotspots, 0);
  for (double p : pts) {
    size_t best = 0;
    for (size_t h = 1; h < centers.size(); ++h) {
      if (std::abs(p - centers[h]) < std::abs(p - centers[best])) best = h;
    }
    ++hits[best];
  }
  for (size_t h : hits) {
    const double share = static_cast<double>(h) / static_cast<double>(n);
    EXPECT_GT(share, 0.15);  // uniform share is 0.25
    EXPECT_LT(share, 0.35);
  }
}

TEST(WorkloadTest, RunWorkloadAggregates) {
  Dataset data = datagen::MakeUniformScatter(500, 100.0, 1.0, 2);
  CpnnExecutor exec(data);
  auto queries = datagen::MakeQueryPoints(10, 0.0, 100.0, 3);
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;
  datagen::WorkloadResult result = datagen::RunWorkload(exec, queries, opt);
  EXPECT_EQ(result.queries, 10u);
  EXPECT_GT(result.AvgCandidates(), 0.0);
  EXPECT_GE(result.AvgTotalMs(), 0.0);
  EXPECT_GE(result.FractionFinishedAfterVerify(), 0.0);
  EXPECT_LE(result.FractionFinishedAfterVerify(), 1.0);
}

// Partitioning moves every object into exactly one shard: the ids and the
// total count survive, each shard keeps the input's relative order, and a
// single shard (or every object landing in one) is the input vector itself.
TEST(PartitionTest, MovesObjectsPreservingIdsCountAndOrder) {
  const Dataset original =
      datagen::MakeUniformScatter(300, 1000.0, 5.0, /*seed=*/8);
  const RangeShardingPolicy policy = RangeShardingPolicy::ForDataset(original);
  for (size_t shards : {1u, 2u, 4u}) {
    Dataset data = original;
    const UncertainObject* storage = data.data();
    std::vector<Dataset> parts =
        PartitionDataset(std::move(data), shards, policy);
    ASSERT_EQ(parts.size(), shards);
    if (shards == 1) {
      EXPECT_EQ(parts[0].data(), storage);
    }
    std::vector<ObjectId> ids;
    for (size_t s = 0; s < shards; ++s) {
      // Input order within the shard: the positions in `original` rise.
      size_t last = 0;
      for (size_t i = 0; i < parts[s].size(); ++i) {
        const UncertainObject& obj = parts[s][i];
        EXPECT_EQ(policy.ShardOf(obj, shards), s);
        const size_t at = static_cast<size_t>(obj.id());
        ASSERT_LT(at, original.size());
        EXPECT_EQ(original[at].id(), obj.id());
        EXPECT_EQ(original[at].lo(), obj.lo());
        EXPECT_EQ(original[at].hi(), obj.hi());
        if (i > 0) {
          EXPECT_GT(at, last) << shards << " shards, shard " << s;
        }
        last = at;
        ids.push_back(obj.id());
      }
    }
    EXPECT_EQ(ids.size(), original.size()) << shards << " shards";
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  }

  // Every object in one shard: that shard is the input vector.
  Dataset data = original;
  const UncertainObject* storage = data.data();
  std::vector<Dataset> parts = PartitionDataset(
      std::move(data), 4, RangeShardingPolicy(5000.0, 6000.0));
  EXPECT_EQ(parts[0].data(), storage);
  EXPECT_EQ(parts[0].size(), original.size());
  for (size_t s = 1; s < 4; ++s) EXPECT_TRUE(parts[s].empty());
}

TEST(PartitionTest, Moves2DObjectsPreservingIdsCountAndOrder) {
  datagen::Synthetic2DConfig config;
  config.count = 200;
  config.seed = 12;
  const Dataset2D original = datagen::MakeSynthetic2D(config);
  const RangeShardingPolicy policy =
      RangeShardingPolicy::ForDataset2D(original);
  for (size_t shards : {1u, 2u, 4u}) {
    Dataset2D data = original;
    const UncertainObject2D* storage = data.data();
    std::vector<Dataset2D> parts =
        PartitionDataset2D(std::move(data), shards, policy);
    ASSERT_EQ(parts.size(), shards);
    if (shards == 1) {
      EXPECT_EQ(parts[0].data(), storage);
    }
    size_t total = 0;
    for (size_t s = 0; s < shards; ++s) {
      size_t last = 0;
      for (size_t i = 0; i < parts[s].size(); ++i) {
        const UncertainObject2D& obj = parts[s][i];
        EXPECT_EQ(policy.ShardOf2D(obj, shards), s);
        const size_t at = static_cast<size_t>(obj.id());
        ASSERT_LT(at, original.size());
        EXPECT_EQ(original[at].id(), obj.id());
        if (i > 0) {
          EXPECT_GT(at, last) << shards << " shards, shard " << s;
        }
        last = at;
      }
      total += parts[s].size();
    }
    EXPECT_EQ(total, original.size()) << shards << " shards";
  }
}

}  // namespace
}  // namespace pverify
