// Pins the batched StepFunction evaluator (IntegralToSorted's merge scan)
// and DistanceDistribution::CdfSorted bit-identical to a scalar
// IntegralTo/Cdf loop — the contract that lets the subregion table build
// use the merge scan unconditionally in every build configuration and
// kernel flavor.
#include "common/piecewise.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "uncertain/distance_distribution.h"
#include "uncertain/pdf.h"

namespace pverify {
namespace {

// Random step function with `pieces` pieces on roughly [0, pieces * 0.5].
StepFunction MakeRandomStep(Rng& rng, int pieces) {
  std::vector<double> breaks;
  double x = rng.Uniform(-1.0, 1.0);
  breaks.push_back(x);
  for (int i = 0; i < pieces; ++i) {
    x += rng.Uniform(0.01, 1.0);
    breaks.push_back(x);
  }
  std::vector<double> values;
  for (int i = 0; i < pieces; ++i) {
    // A sprinkle of zero-height pieces exercises flat cdf stretches.
    values.push_back(rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.0, 2.0));
  }
  return StepFunction(std::move(breaks), std::move(values));
}

// Sorted batch of query points straddling the support: below, inside
// (including exact breakpoints and duplicates), above.
std::vector<double> MakeSortedBatch(Rng& rng, const StepFunction& f,
                                    size_t n) {
  const double lo = f.support_lo();
  const double hi = f.support_hi();
  std::vector<double> xs;
  xs.reserve(n + 8);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.Uniform(-0.2, 1.2);  // 40% mass out of support
    xs.push_back(lo + u * (hi - lo));
  }
  // Exact breakpoints are the interesting boundary cases of the cursor
  // advance (upper_bound semantics: x on a breakpoint belongs to the piece
  // starting there).
  for (double b : f.breaks()) {
    if (xs.size() >= n + 8) break;
    xs.push_back(b);
  }
  xs.push_back(lo);
  xs.push_back(hi);
  std::sort(xs.begin(), xs.end());
  // Duplicates: repeat a few entries in place.
  if (xs.size() > 4) {
    xs[1] = xs[0];
    xs[xs.size() / 2] = xs[xs.size() / 2 - 1];
  }
  return xs;
}

TEST(PiecewiseBatchTest, SortedMatchesScalarBitForBit) {
  Rng rng(2026);
  for (int pieces : {1, 2, 7, 64, 300}) {
    for (int rep = 0; rep < 8; ++rep) {
      StepFunction f = MakeRandomStep(rng, pieces);
      std::vector<double> xs = MakeSortedBatch(rng, f, 257);
      std::vector<double> got(xs.size(), -1.0);
      f.IntegralToSorted(xs.data(), xs.size(), got.data());
      for (size_t i = 0; i < xs.size(); ++i) {
        ASSERT_EQ(got[i], f.IntegralTo(xs[i]))
            << "pieces=" << pieces << " rep=" << rep << " i=" << i
            << " x=" << xs[i];
      }
    }
  }
}

TEST(PiecewiseBatchTest, EmptyFunctionYieldsZeros) {
  StepFunction f;
  const double xs[] = {-1.0, 0.0, 2.5};
  double out[] = {9.0, 9.0, 9.0};
  f.IntegralToSorted(xs, 3, out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(out[2], 0.0);
}

TEST(PiecewiseBatchTest, ZeroLengthBatchIsANoop) {
  StepFunction f = StepFunction::Constant(0.0, 1.0, 1.0);
  f.IntegralToSorted(nullptr, 0, nullptr);
}

TEST(PiecewiseBatchTest, OutMayAliasXs) {
  Rng rng(11);
  StepFunction f = MakeRandomStep(rng, 17);
  std::vector<double> xs = MakeSortedBatch(rng, f, 64);
  std::vector<double> expect(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) expect[i] = f.IntegralTo(xs[i]);
  std::vector<double> inout = xs;
  f.IntegralToSorted(inout.data(), inout.size(), inout.data());
  EXPECT_EQ(inout, expect);
}

TEST(PiecewiseBatchTest, CdfSortedMatchesCdfOnDistanceDistribution) {
  // End-to-end through the type the subregion table consumes, with the
  // Gaussian histogram pdf (300 pieces) the benches use.
  Rng rng(23);
  const Pdf pdf = MakeGaussianPdf(2.0, 6.0);
  const DistanceDistribution dist = DistanceDistribution::From1D(pdf, 1.5);
  std::vector<double> rs = MakeSortedBatch(rng, dist.pdf(), 300);
  std::vector<double> got(rs.size());
  dist.CdfSorted(rs.data(), rs.size(), got.data());
  for (size_t i = 0; i < rs.size(); ++i) {
    ASSERT_EQ(got[i], dist.Cdf(rs[i])) << "i=" << i << " r=" << rs[i];
  }
}

}  // namespace
}  // namespace pverify
