#include "spatial/rtree.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "counting_new_testutil.h"
#include "spatial/mbr.h"

namespace pverify {
namespace {

TEST(MbrTest, Metrics1D) {
  Mbr<1> m = MakeInterval(2.0, 5.0);
  EXPECT_DOUBLE_EQ(m.MinDist({0.0}), 2.0);
  EXPECT_DOUBLE_EQ(m.MinDist({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.MinDist({9.0}), 4.0);
  EXPECT_DOUBLE_EQ(m.MaxDist({0.0}), 5.0);
  EXPECT_DOUBLE_EQ(m.MaxDist({3.0}), 2.0);
  EXPECT_DOUBLE_EQ(m.MaxDist({4.0}), 2.0);
}

TEST(MbrTest, Metrics2D) {
  Mbr<2> m = MakeBox(0.0, 0.0, 4.0, 2.0);
  EXPECT_DOUBLE_EQ(m.MinDist({{-3.0, 0.0}}), 3.0);
  EXPECT_DOUBLE_EQ(m.MinDist({{2.0, 1.0}}), 0.0);
  EXPECT_DOUBLE_EQ(m.MaxDist({{0.0, 0.0}}), std::hypot(4.0, 2.0));
}

TEST(MbrTest, ExpandAndContains) {
  Mbr<2> m = Mbr<2>::Empty();
  EXPECT_TRUE(m.IsEmpty());
  m.Expand(MakeBox(0, 0, 1, 1));
  m.Expand(MakeBox(2, -1, 3, 0.5));
  EXPECT_DOUBLE_EQ(m.lo[0], 0.0);
  EXPECT_DOUBLE_EQ(m.hi[0], 3.0);
  EXPECT_DOUBLE_EQ(m.lo[1], -1.0);
  EXPECT_DOUBLE_EQ(m.hi[1], 1.0);
  EXPECT_TRUE(m.Contains(MakeBox(0, 0, 1, 1)));
  EXPECT_FALSE(m.Contains(MakeBox(10, 10, 11, 11)));
}

std::vector<RTree<1>::Entry> RandomIntervals(int n, Rng& rng) {
  std::vector<RTree<1>::Entry> entries;
  for (int i = 0; i < n; ++i) {
    double lo = rng.Uniform(0.0, 1000.0);
    double hi = lo + rng.Uniform(0.01, 20.0);
    entries.push_back({MakeInterval(lo, hi), static_cast<uint32_t>(i)});
  }
  return entries;
}

TEST(RTreeTest, EmptyTree) {
  RTree<1> tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Height(), 0);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_TRUE(std::isinf(tree.MinFarPoint({5.0})));
  std::vector<uint32_t> out;
  tree.WithinDistance({5.0}, 10.0, &out);
  EXPECT_TRUE(out.empty());
}

TEST(RTreeTest, BulkLoadMaintainsInvariants) {
  Rng rng(2);
  auto entries = RandomIntervals(2000, rng);
  auto tree = RTree<1>::BulkLoadSTR(entries);
  EXPECT_EQ(tree.size(), 2000u);
  EXPECT_TRUE(tree.CheckInvariants());
  // STR packs nodes full: expect near-minimal node count.
  EXPECT_LE(tree.NodeCount(), 2000u / 16 + 16);
}

class RTreeQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeQueryTest, RangeQueryMatchesBruteForce1D) {
  Rng rng(GetParam());
  auto entries = RandomIntervals(300, rng);
  auto tree = RTree<1>::BulkLoadSTR(entries);
  for (int t = 0; t < 20; ++t) {
    double lo = rng.Uniform(-50.0, 1050.0);
    double hi = lo + rng.Uniform(0.0, 100.0);
    Mbr<1> region = MakeInterval(lo, hi);
    std::vector<uint32_t> got;
    tree.Intersecting(region, &got);
    std::set<uint32_t> expect;
    for (const auto& e : entries) {
      if (e.mbr.Intersects(region)) expect.insert(e.value);
    }
    EXPECT_EQ(std::set<uint32_t>(got.begin(), got.end()), expect);
  }
}

TEST_P(RTreeQueryTest, MinFarPointMatchesBruteForce) {
  Rng rng(GetParam() + 100);
  auto entries = RandomIntervals(400, rng);
  auto tree = RTree<1>::BulkLoadSTR(entries);
  for (int t = 0; t < 25; ++t) {
    std::array<double, 1> q = {rng.Uniform(-100.0, 1100.0)};
    double expect = std::numeric_limits<double>::infinity();
    for (const auto& e : entries) {
      expect = std::min(expect, e.mbr.MaxDist(q));
    }
    EXPECT_NEAR(tree.MinFarPoint(q), expect, 1e-9);
  }
}

TEST_P(RTreeQueryTest, WithinDistanceMatchesBruteForce) {
  Rng rng(GetParam() + 200);
  auto entries = RandomIntervals(400, rng);
  auto tree = RTree<1>::BulkLoadSTR(entries);
  for (int t = 0; t < 15; ++t) {
    std::array<double, 1> q = {rng.Uniform(0.0, 1000.0)};
    double radius = rng.Uniform(0.0, 60.0);
    std::vector<uint32_t> got;
    tree.WithinDistance(q, radius, &got);
    std::set<uint32_t> expect;
    for (const auto& e : entries) {
      if (e.mbr.MinDist(q) <= radius) expect.insert(e.value);
    }
    EXPECT_EQ(std::set<uint32_t>(got.begin(), got.end()), expect);
  }
}

TEST_P(RTreeQueryTest, NearestByMinDistMatchesBruteForce) {
  Rng rng(GetParam() + 300);
  auto entries = RandomIntervals(200, rng);
  auto tree = RTree<1>::BulkLoadSTR(entries);
  std::array<double, 1> q = {rng.Uniform(0.0, 1000.0)};
  const size_t k = 10;
  std::vector<uint32_t> got;
  tree.NearestByMinDist(q, k, &got);
  ASSERT_EQ(got.size(), k);
  // Distances must be non-decreasing and match the brute-force k-th value.
  std::vector<double> dists;
  for (const auto& e : entries) dists.push_back(e.mbr.MinDist(q));
  std::sort(dists.begin(), dists.end());
  double prev = -1.0;
  for (size_t i = 0; i < k; ++i) {
    double d = entries[got[i]].mbr.MinDist(q);
    EXPECT_GE(d, prev - 1e-12);
    EXPECT_NEAR(d, dists[i], 1e-9);
    prev = d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RTreeQueryTest, ::testing::Range(0, 8));

TEST(RTree2DTest, QueriesMatchBruteForce) {
  Rng rng(77);
  std::vector<RTree<2>::Entry> entries;
  for (uint32_t i = 0; i < 500; ++i) {
    double x = rng.Uniform(0.0, 500.0);
    double y = rng.Uniform(0.0, 500.0);
    entries.push_back(
        {MakeBox(x, y, x + rng.Uniform(0.1, 20.0), y + rng.Uniform(0.1, 20.0)),
         i});
  }
  auto tree = RTree<2>::BulkLoadSTR(entries);
  EXPECT_TRUE(tree.CheckInvariants());
  for (int t = 0; t < 20; ++t) {
    std::array<double, 2> q = {rng.Uniform(0.0, 500.0),
                               rng.Uniform(0.0, 500.0)};
    double expect_fmin = std::numeric_limits<double>::infinity();
    for (const auto& e : entries) {
      expect_fmin = std::min(expect_fmin, e.mbr.MaxDist(q));
    }
    EXPECT_NEAR(tree.MinFarPoint(q), expect_fmin, 1e-9);

    double radius = rng.Uniform(5.0, 80.0);
    std::set<uint32_t> expect;
    for (const auto& e : entries) {
      if (e.mbr.MinDist(q) <= radius) expect.insert(e.value);
    }
    std::vector<uint32_t> got;
    tree.WithinDistance(q, radius, &got);
    EXPECT_EQ(std::set<uint32_t>(got.begin(), got.end()), expect);
  }
}

TEST(RTreeTest, DuplicateMbrsSupported) {
  std::vector<RTree<1>::Entry> entries;
  for (uint32_t i = 0; i < 100; ++i) {
    entries.push_back({MakeInterval(1.0, 2.0), i});
  }
  auto tree = RTree<1>::BulkLoadSTR(std::move(entries));
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_TRUE(tree.CheckInvariants());
  std::vector<uint32_t> got;
  tree.Intersecting(MakeInterval(1.5, 1.6), &got);
  EXPECT_EQ(got.size(), 100u);
}

// --- Table-driven brute-force differential over every search ------------

enum class Shape { kRandom, kZeroWidth, kIdentical };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kRandom:
      return "random";
    case Shape::kZeroWidth:
      return "zero-width";
    case Shape::kIdentical:
      return "identical";
  }
  return "?";
}

// n entries over [0, 1000]^Dim: random extents, zero extents (points), or
// every entry the same box.
template <int Dim>
std::vector<typename RTree<Dim>::Entry> MakeEntries(Shape shape, size_t n,
                                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<typename RTree<Dim>::Entry> entries;
  for (uint32_t i = 0; i < n; ++i) {
    Mbr<Dim> m;
    for (int d = 0; d < Dim; ++d) {
      switch (shape) {
        case Shape::kRandom:
          m.lo[d] = rng.Uniform(0.0, 1000.0);
          m.hi[d] = m.lo[d] + rng.Uniform(0.0, 30.0);
          break;
        case Shape::kZeroWidth:
          m.lo[d] = m.hi[d] = rng.Uniform(0.0, 1000.0);
          break;
        case Shape::kIdentical:
          m.lo[d] = 400.0;
          m.hi[d] = 410.0;
          break;
      }
    }
    entries.push_back({m, i});
  }
  return entries;
}

// Query points inside the data, on its edges (the domain bounds and an
// entry's own corner) and far outside it.
template <int Dim>
std::vector<std::array<double, Dim>> QueryPoints(
    const std::vector<typename RTree<Dim>::Entry>& entries) {
  Mbr<Dim> domain = Mbr<Dim>::Empty();
  for (const auto& e : entries) domain.Expand(e.mbr);
  if (entries.empty()) {
    domain.lo.fill(0.0);
    domain.hi.fill(1000.0);
  }
  std::array<double, Dim> mid, lo = domain.lo, hi = domain.hi, far_lo,
                               far_hi;
  for (int d = 0; d < Dim; ++d) {
    mid[d] = 0.5 * (domain.lo[d] + domain.hi[d]);
    far_lo[d] = domain.lo[d] - 1e6;
    far_hi[d] = domain.hi[d] + 1e6;
  }
  std::vector<std::array<double, Dim>> points = {mid, lo, hi, far_lo, far_hi};
  if (!entries.empty()) points.push_back(entries[entries.size() / 2].mbr.lo);
  return points;
}

std::vector<uint32_t> Sorted(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

template <int Dim>
void ExpectSearchesMatchBruteForce(Shape shape, size_t n) {
  const auto entries = MakeEntries<Dim>(shape, n, 1000 + n);
  const RTree<Dim> tree = RTree<Dim>::BulkLoadSTR(entries);
  const std::string what = std::to_string(Dim) + "-D " + ShapeName(shape) +
                           " n=" + std::to_string(n);
  ASSERT_EQ(tree.size(), n) << what;
  EXPECT_TRUE(tree.CheckInvariants()) << what;
  EXPECT_LE(tree.Height(), RTree<Dim>::kMaxHeight) << what;

  for (const auto& q : QueryPoints<Dim>(entries)) {
    // MinFarPoint: the exact minimum, bit for bit.
    double fmin = std::numeric_limits<double>::infinity();
    for (const auto& e : entries) fmin = std::min(fmin, e.mbr.MaxDist(q));
    EXPECT_EQ(tree.MinFarPoint(q), fmin) << what;

    // WithinDistance at 0, at f_min (a radius some entry's far point
    // meets exactly), at an entry's own MINDIST and at infinity.
    std::vector<double> radii = {0.0, fmin,
                                 std::numeric_limits<double>::infinity()};
    if (!entries.empty()) {
      radii.push_back(entries[n / 3].mbr.MinDist(q));
    }
    for (double radius : radii) {
      std::vector<uint32_t> expect;
      for (const auto& e : entries) {
        if (e.mbr.MinDist(q) <= radius) expect.push_back(e.value);
      }
      std::vector<uint32_t> got = {7777};  // results are appended
      tree.WithinDistance(q, radius, &got);
      ASSERT_FALSE(got.empty());
      EXPECT_EQ(got.front(), 7777u) << what;
      got.erase(got.begin());
      EXPECT_EQ(Sorted(got), expect) << what << " radius " << radius;
    }

    // Intersecting: the degenerate box at q and a box around it.
    for (double half : {0.0, 25.0}) {
      Mbr<Dim> region;
      for (int d = 0; d < Dim; ++d) {
        region.lo[d] = q[d] - half;
        region.hi[d] = q[d] + half;
      }
      std::vector<uint32_t> expect;
      for (const auto& e : entries) {
        if (e.mbr.Intersects(region)) expect.push_back(e.value);
      }
      std::vector<uint32_t> got;
      tree.Intersecting(region, &got);
      EXPECT_EQ(Sorted(got), expect) << what << " half " << half;
    }

    // NearestByMinDist: nearest first, with the brute-force distances.
    std::vector<double> dists;
    for (const auto& e : entries) dists.push_back(e.mbr.MinDist(q));
    std::sort(dists.begin(), dists.end());
    for (size_t k : {size_t{1}, size_t{16}, n + 3}) {
      std::vector<uint32_t> got;
      tree.NearestByMinDist(q, k, &got);
      ASSERT_EQ(got.size(), std::min(k, n)) << what << " k " << k;
      EXPECT_EQ(std::set<uint32_t>(got.begin(), got.end()).size(),
                got.size())
          << what;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(entries[got[i]].mbr.MinDist(q), dists[i])
            << what << " k " << k << " rank " << i;
      }
    }
  }
}

TEST(RTreeDifferentialTest, EverySearchMatchesBruteForce) {
  for (Shape shape : {Shape::kRandom, Shape::kZeroWidth, Shape::kIdentical}) {
    for (size_t n : {0, 1, 15, 16, 17, 256, 257, 4097}) {
      ExpectSearchesMatchBruteForce<1>(shape, n);
      ExpectSearchesMatchBruteForce<2>(shape, n);
    }
  }
}

TEST(RTreeDifferentialTest, PackingFillsLevels) {
  // STR packs every node full but the last of its level: 4097 entries make
  // 257 leaves, 17 nodes above them and then 2 and 1 — height 4.
  const RTree<1> tree =
      RTree<1>::BulkLoadSTR(MakeEntries<1>(Shape::kRandom, 4097, 5));
  EXPECT_EQ(tree.Height(), 4);
  EXPECT_EQ(tree.NodeCount(), 257u + 17u + 2u + 1u);
  const RTree<2> one =
      RTree<2>::BulkLoadSTR(MakeEntries<2>(Shape::kRandom, 1, 5));
  EXPECT_EQ(one.Height(), 1);
  EXPECT_EQ(one.NodeCount(), 1u);
}

// The filter's two searches keep their traversal state on the stack: once
// the output vector holds enough room, a query allocates nothing.
TEST(RTreeAllocationTest, WarmFilterSearchesAllocateNothing) {
  const auto entries1 = MakeEntries<1>(Shape::kRandom, 4097, 11);
  const auto entries2 = MakeEntries<2>(Shape::kRandom, 4097, 12);
  const RTree<1> tree1 = RTree<1>::BulkLoadSTR(entries1);
  const RTree<2> tree2 = RTree<2>::BulkLoadSTR(entries2);
  std::vector<uint32_t> out;
  out.reserve(4097);
  Rng rng(13);
  for (int t = 0; t < 50; ++t) {
    const double x = rng.Uniform(-100.0, 1100.0);
    const double y = rng.Uniform(-100.0, 1100.0);
    const size_t before = g_allocations.load();
    out.clear();
    const double f1 = tree1.MinFarPoint({x});
    tree1.WithinDistance({x}, f1 + 1e-12, &out);
    const double f2 = tree2.MinFarPoint({x, y});
    tree2.WithinDistance({x, y}, f2 + 1e-12, &out);
    tree1.Intersecting(MakeInterval(x, x + 50.0), &out);
    EXPECT_EQ(g_allocations.load() - before, 0u) << "query " << t;
    EXPECT_FALSE(out.empty());
  }
}

}  // namespace
}  // namespace pverify
