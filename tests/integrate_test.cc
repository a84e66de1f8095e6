#include "common/integrate.h"

#include <cmath>

#include <gtest/gtest.h>

namespace pverify {
namespace {

TEST(GaussLegendreTest, ExactForPolynomials) {
  // n-node Gauss-Legendre is exact for degree 2n−1.
  auto poly3 = [](double x) { return 2.0 * x * x * x - x + 1.0; };
  // ∫_0^2 (2x³ − x + 1) dx = 8 − 2 + 2 = 8.
  EXPECT_NEAR(GaussLegendre(poly3, 0.0, 2.0, 2), 8.0, 1e-12);

  auto poly7 = [](double x) { return std::pow(x, 7); };
  // ∫_0^1 x⁷ dx = 1/8.
  EXPECT_NEAR(GaussLegendre(poly7, 0.0, 1.0, 4), 0.125, 1e-12);

  auto poly15 = [](double x) { return std::pow(x, 15); };
  EXPECT_NEAR(GaussLegendre(poly15, 0.0, 1.0, 8), 1.0 / 16.0, 1e-12);

  auto poly31 = [](double x) { return std::pow(x, 31); };
  EXPECT_NEAR(GaussLegendre(poly31, 0.0, 1.0, 16), 1.0 / 32.0, 1e-11);
}

TEST(GaussLegendreTest, TranscendentalAccuracy) {
  auto f = [](double x) { return std::sin(x); };
  EXPECT_NEAR(GaussLegendre(f, 0.0, M_PI, 16), 2.0, 1e-10);
  auto g = [](double x) { return std::exp(-x * x); };
  EXPECT_NEAR(GaussLegendre(g, -3.0, 3.0, 16), std::sqrt(M_PI), 1e-4);
}

TEST(GaussLegendreTest, EmptyOrReversedInterval) {
  auto f = [](double x) { return x; };
  EXPECT_DOUBLE_EQ(GaussLegendre(f, 1.0, 1.0, 8), 0.0);
  EXPECT_DOUBLE_EQ(GaussLegendre(f, 2.0, 1.0, 8), 0.0);
}

TEST(GaussLegendreTest, UnsupportedOrdersRoundUp) {
  auto poly5 = [](double x) { return std::pow(x, 5); };
  // 3 rounds up to 4 nodes, which integrates degree 7 exactly.
  EXPECT_NEAR(GaussLegendre(poly5, 0.0, 1.0, 3), 1.0 / 6.0, 1e-12);
  // Anything above 16 caps at 16.
  EXPECT_NEAR(GaussLegendre(poly5, 0.0, 1.0, 64), 1.0 / 6.0, 1e-12);
}

TEST(IntegrateWithBreakpointsTest, SplitsAtKinks) {
  // |x − 1| has a kink at 1; single-panel Gauss misses it, split is exact.
  auto f = [](double x) { return std::abs(x - 1.0); };
  std::vector<double> breaks = {1.0};
  // ∫_0^2 |x−1| dx = 1.
  EXPECT_NEAR(IntegrateWithBreakpoints(f, 0.0, 2.0, breaks, 4), 1.0, 1e-12);
}

TEST(IntegrateWithBreakpointsTest, IgnoresBreakpointsOutsideRange) {
  auto f = [](double x) { return x; };
  std::vector<double> breaks = {-5.0, 0.5, 7.0};
  EXPECT_NEAR(IntegrateWithBreakpoints(f, 0.0, 1.0, breaks, 4), 0.5, 1e-12);
}

TEST(IntegrateWithBreakpointsTest, StepIntegrandExact) {
  auto f = [](double x) { return x < 2.0 ? 1.0 : 3.0; };
  std::vector<double> breaks = {2.0};
  // ∫_0^4 = 2·1 + 2·3 = 8.
  EXPECT_NEAR(IntegrateWithBreakpoints(f, 0.0, 4.0, breaks, 2), 8.0, 1e-12);
}

}  // namespace
}  // namespace pverify
