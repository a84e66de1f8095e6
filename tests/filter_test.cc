#include "spatial/filter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/synthetic.h"

namespace pverify {
namespace {

Dataset SmallDataset() {
  Dataset data;
  data.emplace_back(0, MakeUniformPdf(0.0, 2.0));
  data.emplace_back(1, MakeUniformPdf(1.0, 3.0));
  data.emplace_back(2, MakeUniformPdf(10.0, 12.0));
  data.emplace_back(3, MakeUniformPdf(4.0, 5.0));
  return data;
}

TEST(FilterTest, FminIsSmallestFarPoint) {
  Dataset data = SmallDataset();
  PnnFilter filter(data);
  FilterResult r = filter.Filter(1.5);
  // Far points from q=1.5: obj0 max(1.5,0.5)=1.5; obj1 max(0.5,1.5)=1.5;
  // obj2 10.5; obj3 3.5. f_min = 1.5.
  EXPECT_NEAR(r.fmin, 1.5, 1e-12);
  // Candidates: mindist <= 1.5 → obj0 (0), obj1 (0), obj3 (2.5 > 1.5 no),
  // obj2 (8.5 no).
  EXPECT_EQ(r.candidates, (std::vector<uint32_t>{0, 1}));
}

TEST(FilterTest, DistantObjectPruned) {
  Dataset data = SmallDataset();
  PnnFilter filter(data);
  FilterResult r = filter.Filter(11.0);
  // q=11: obj2 far = max(1,1) = 1 → fmin=1; only obj2 within distance 1.
  EXPECT_NEAR(r.fmin, 1.0, 1e-12);
  EXPECT_EQ(r.candidates, (std::vector<uint32_t>{2}));
}

TEST(FilterTest, MatchesScanOnSyntheticData) {
  Dataset data = datagen::MakeUniformScatter(3000, 1000.0, 2.0, 5);
  PnnFilter filter(data);
  Rng rng(17);
  for (int t = 0; t < 30; ++t) {
    double q = rng.Uniform(-50.0, 1050.0);
    FilterResult via_tree = filter.Filter(q);
    FilterResult via_scan = FilterKByScan(data, q, 1);
    EXPECT_NEAR(via_tree.fmin, via_scan.fmin, 1e-9) << "q=" << q;
    EXPECT_EQ(std::set<uint32_t>(via_tree.candidates.begin(),
                                 via_tree.candidates.end()),
              std::set<uint32_t>(via_scan.candidates.begin(),
                                 via_scan.candidates.end()))
        << "q=" << q;
  }
}

TEST(FilterTest, CandidateSetNeverEmpty) {
  // The object realizing f_min always survives its own bound.
  Dataset data = datagen::MakeUniformScatter(500, 100.0, 1.0, 3);
  PnnFilter filter(data);
  Rng rng(23);
  for (int t = 0; t < 20; ++t) {
    FilterResult r = filter.Filter(rng.Uniform(0.0, 100.0));
    EXPECT_GE(r.candidates.size(), 1u);
  }
}

TEST(FilterTest, SingleObjectDataset) {
  Dataset data;
  data.emplace_back(42, MakeUniformPdf(5.0, 7.0));
  PnnFilter filter(data);
  FilterResult r = filter.Filter(0.0);
  EXPECT_NEAR(r.fmin, 7.0, 1e-12);
  EXPECT_EQ(r.candidates, (std::vector<uint32_t>{0}));
}

TEST(Filter2DTest, MatchesScan) {
  Dataset2D data = datagen::MakeSynthetic2D({.count = 800, .seed = 9});
  PnnFilter2D filter(data);
  Rng rng(31);
  for (int t = 0; t < 15; ++t) {
    Point2 q{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    FilterResult via_tree = filter.Filter(q);
    FilterResult via_scan = FilterKByScan2D(data, q, 1);
    EXPECT_NEAR(via_tree.fmin, via_scan.fmin, 1e-9);
    EXPECT_EQ(std::set<uint32_t>(via_tree.candidates.begin(),
                                 via_tree.candidates.end()),
              std::set<uint32_t>(via_scan.candidates.begin(),
                                 via_scan.candidates.end()));
  }
}

TEST(Filter2DTest, CircleFarPointTighterThanMbr) {
  // A large circle's MBR corner distance exceeds its true far point; the 2-D
  // filter must use the exact region distance.
  Dataset2D data;
  data.emplace_back(0, Circle2{0.0, 0.0, 10.0});
  data.emplace_back(1, Rect2{30.0, 30.0, 31.0, 31.0});
  PnnFilter2D filter(data);
  FilterResult r = filter.Filter({0.0, 0.0});
  EXPECT_NEAR(r.fmin, 10.0, 1e-9);  // not 10·√2
  EXPECT_EQ(r.candidates, (std::vector<uint32_t>{0}));
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// The ks the oracle property covers for a dataset of n objects.
std::vector<int> OracleKs(size_t n) {
  std::vector<int> ks = {1, 3, 8};
  const int size = static_cast<int>(n);
  for (int k : {size - 1, size, size + 5}) {
    if (k >= 1) ks.push_back(k);
  }
  return ks;
}

// The indexed cut equals the scan's, and the far and near points it hands
// on (to the sharded k-NN scatter) are the objects' own.
template <typename Objects, typename Point>
void ExpectSameCut(const KnnFilterResult& indexed, const FilterResult& scan,
                   const Objects& objects, Point q, const std::string& what) {
  EXPECT_EQ(Bits(indexed.fmin), Bits(scan.fmin)) << what;
  EXPECT_EQ(indexed.candidates, scan.candidates) << what;
  ASSERT_EQ(indexed.fars.size(), indexed.candidates.size()) << what;
  ASSERT_EQ(indexed.nears.size(), indexed.candidates.size()) << what;
  for (size_t i = 0; i < indexed.candidates.size(); ++i) {
    const auto& obj = objects[indexed.candidates[i]];
    EXPECT_EQ(Bits(indexed.fars[i]), Bits(obj.MaxDist(q))) << what;
    EXPECT_EQ(Bits(indexed.nears[i]), Bits(obj.MinDist(q))) << what;
  }
}

// Uniform scatter plus duplicated intervals (tied far points) and intervals
// of width 2^-30 (a 1-D pdf cannot have zero width).
Dataset OracleDataset1D(uint64_t seed) {
  Dataset data = datagen::MakeUniformScatter(300, 1000.0, 6.0, seed);
  Rng rng(seed + 100);
  const size_t base = data.size();
  for (ObjectId id = 0; id < 40; ++id) {
    const UncertainObject& twin = data[rng.UniformInt(0, base - 1)];
    data.emplace_back(static_cast<ObjectId>(base) + id,
                      MakeUniformPdf(twin.lo(), twin.hi()));
  }
  for (ObjectId id = 40; id < 60; ++id) {
    const double lo = rng.Uniform(0.0, 1000.0);
    data.emplace_back(static_cast<ObjectId>(base) + id,
                      MakeUniformPdf(lo, lo + 1.0 / (1 << 30)));
  }
  return data;
}

TEST(KnnFilterOracleTest, IndexedMatchesScan1D) {
  for (uint64_t seed : {3ULL, 4ULL}) {
    const Dataset data = OracleDataset1D(seed);
    const PnnFilter filter(data);
    double lo = data.front().lo();
    double hi = data.front().hi();
    for (const UncertainObject& obj : data) {
      lo = std::min(lo, obj.lo());
      hi = std::max(hi, obj.hi());
    }
    Rng rng(seed);
    std::vector<double> points = {lo, hi, lo - 0.5, hi + 0.5, lo - 5000.0,
                                  hi + 5000.0, data[7].lo(), data[9].hi()};
    for (int t = 0; t < 6; ++t) points.push_back(rng.Uniform(lo, hi));
    for (double q : points) {
      for (int k : OracleKs(data.size())) {
        ExpectSameCut(filter.FilterK(q, k), FilterKByScan(data, q, k), data, q,
                      "seed " + std::to_string(seed) + " q " +
                          std::to_string(q) + " k " + std::to_string(k));
      }
    }
  }
}

// Rectangles and disks plus duplicated regions, concentric disks (tied far
// points along every ray) and zero-width rectangles (segments and points).
Dataset2D OracleDataset2D(uint64_t seed) {
  Dataset2D data = datagen::MakeSynthetic2D({.count = 250, .seed = seed});
  Rng rng(seed + 100);
  const size_t base = data.size();
  for (ObjectId id = 0; id < 30; ++id) {
    const UncertainObject2D& twin = data[rng.UniformInt(0, base - 1)];
    const ObjectId dup = static_cast<ObjectId>(base) + id;
    if (twin.is_rect()) {
      data.emplace_back(dup, twin.rect());
    } else {
      data.emplace_back(dup, twin.circle());
    }
  }
  for (ObjectId id = 30; id < 50; ++id) {
    const double x = rng.Uniform(0.0, 1000.0);
    const double y = rng.Uniform(0.0, 1000.0);
    const ObjectId obj = static_cast<ObjectId>(base) + id;
    switch (id % 3) {
      case 0:
        data.emplace_back(obj, Rect2{x, y, x, y});
        break;
      case 1:
        data.emplace_back(obj, Rect2{x, y, x, y + 10.0});
        break;
      default:
        data.emplace_back(obj, Circle2{500.0, 500.0, 5.0 * (id - 29)});
        break;
    }
  }
  return data;
}

TEST(KnnFilterOracleTest, IndexedMatchesScan2D) {
  for (uint64_t seed : {5ULL, 6ULL}) {
    const Dataset2D data = OracleDataset2D(seed);
    const PnnFilter2D filter(data);
    Rng rng(seed);
    std::vector<Point2> points = {{0.0, 0.0},       {1000.0, 1000.0},
                                  {0.0, 1000.0},    {-40.0, 500.0},
                                  {500.0, 1040.0},  {-3000.0, -3000.0},
                                  {500.0, 500.0},   {4000.0, 200.0}};
    for (int t = 0; t < 6; ++t) {
      points.push_back({rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)});
    }
    for (Point2 q : points) {
      for (int k : OracleKs(data.size())) {
        ExpectSameCut(
            filter.FilterK(q, k), FilterKByScan2D(data, q, k), data, q,
            "seed " + std::to_string(seed) + " q (" + std::to_string(q.x) +
                ", " + std::to_string(q.y) + ") k " + std::to_string(k));
      }
    }
  }
}

TEST(KnnFilterOracleTest, EmptyAndTinyDatasets) {
  const Dataset empty;
  const PnnFilter filter(empty);
  for (int k : {1, 3}) {
    ExpectSameCut(filter.FilterK(5.0, k), FilterKByScan(empty, 5.0, k), empty,
                  5.0, "empty 1-D");
  }
  const Dataset2D empty2d;
  const PnnFilter2D filter2d(empty2d);
  ExpectSameCut(filter2d.FilterK({1.0, 2.0}, 2),
                FilterKByScan2D(empty2d, {1.0, 2.0}, 2), empty2d,
                Point2{1.0, 2.0}, "empty 2-D");

  // Every object identical: all far points tie.
  Dataset same;
  for (ObjectId id = 0; id < 5; ++id) {
    same.emplace_back(id, MakeUniformPdf(2.0, 4.0));
  }
  const PnnFilter same_filter(same);
  for (double q : {0.0, 3.0, 9.0}) {
    for (int k : OracleKs(same.size())) {
      ExpectSameCut(same_filter.FilterK(q, k), FilterKByScan(same, q, k), same,
                    q, "identical objects k " + std::to_string(k));
    }
  }
  EXPECT_THROW(same_filter.FilterK(3.0, 0), std::logic_error);
}

TEST(KnnFilterOracleTest, NotANumberQueryHasNoCandidates) {
  // No distance compares true with a NaN q: the scan finds a NaN f^(k) and
  // no candidates, and the index's probe comes back empty.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Dataset data = OracleDataset1D(3);
  const PnnFilter filter(data);
  for (int k : OracleKs(data.size())) {
    const FilterResult scan = FilterKByScan(data, nan, k);
    const KnnFilterResult indexed = filter.FilterK(nan, k);
    EXPECT_TRUE(std::isnan(scan.fmin));
    EXPECT_TRUE(std::isnan(indexed.fmin)) << "k " << k;
    EXPECT_TRUE(scan.candidates.empty());
    EXPECT_TRUE(indexed.candidates.empty()) << "k " << k;
  }
  const Dataset2D data2d = OracleDataset2D(5);
  const PnnFilter2D filter2d(data2d);
  for (Point2 q : {Point2{nan, nan}, Point2{nan, 500.0}, Point2{500.0, nan}}) {
    for (int k : OracleKs(data2d.size())) {
      const FilterResult scan = FilterKByScan2D(data2d, q, k);
      const KnnFilterResult indexed = filter2d.FilterK(q, k);
      EXPECT_TRUE(std::isnan(scan.fmin));
      EXPECT_TRUE(std::isnan(indexed.fmin)) << "k " << k;
      EXPECT_TRUE(scan.candidates.empty());
      EXPECT_TRUE(indexed.candidates.empty()) << "k " << k;
    }
  }
}

}  // namespace
}  // namespace pverify
