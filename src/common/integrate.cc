#include "common/integrate.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace pverify {
namespace {

// Nodes/weights from Abramowitz & Stegun, full precision.
constexpr std::array<double, 2> kNodes2 = {-0.5773502691896257,
                                           0.5773502691896257};
constexpr std::array<double, 2> kWeights2 = {1.0, 1.0};

constexpr std::array<double, 4> kNodes4 = {
    -0.8611363115940526, -0.3399810435848563, 0.3399810435848563,
    0.8611363115940526};
constexpr std::array<double, 4> kWeights4 = {
    0.3478548451374538, 0.6521451548625461, 0.6521451548625461,
    0.3478548451374538};

constexpr std::array<double, 8> kNodes8 = {
    -0.9602898564975363, -0.7966664774136267, -0.5255324099163290,
    -0.1834346424956498, 0.1834346424956498,  0.5255324099163290,
    0.7966664774136267,  0.9602898564975363};
constexpr std::array<double, 8> kWeights8 = {
    0.1012285362903763, 0.2223810344533745, 0.3137066458778873,
    0.3626837833783620, 0.3626837833783620, 0.3137066458778873,
    0.2223810344533745, 0.1012285362903763};

constexpr std::array<double, 16> kNodes16 = {
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.7554044083550030, -0.6178762444026438, -0.4580167776572274,
    -0.2816035507792589, -0.0950125098376374, 0.0950125098376374,
    0.2816035507792589,  0.4580167776572274,  0.6178762444026438,
    0.7554044083550030,  0.8656312023878318,  0.9445750230732326,
    0.9894009349916499};
constexpr std::array<double, 16> kWeights16 = {
    0.0271524594117541, 0.0622535239386479, 0.0951585116824928,
    0.1246289712555339, 0.1495959888165767, 0.1691565193950025,
    0.1826034150449236, 0.1894506104550685, 0.1894506104550685,
    0.1826034150449236, 0.1691565193950025, 0.1495959888165767,
    0.1246289712555339, 0.0951585116824928, 0.0622535239386479,
    0.0271524594117541};

}  // namespace

GaussRule GaussLegendreRule(int points) {
  if (points <= 2) return {kNodes2.data(), kWeights2.data(), 2};
  if (points <= 4) return {kNodes4.data(), kWeights4.data(), 4};
  if (points <= 8) return {kNodes8.data(), kWeights8.data(), 8};
  return {kNodes16.data(), kWeights16.data(), 16};
}

double GaussLegendre(const std::function<double(double)>& f, double a,
                     double b, int points) {
  if (b <= a) return 0.0;
  const GaussRule rule = GaussLegendreRule(points);
  const double mid = 0.5 * (a + b);
  const double half = 0.5 * (b - a);
  double sum = 0.0;
  for (int i = 0; i < rule.n; ++i) {
    sum += rule.weights[i] * f(mid + half * rule.nodes[i]);
  }
  return sum * half;
}

double IntegrateWithBreakpoints(const std::function<double(double)>& f,
                                double a, double b,
                                const std::vector<double>& breakpoints,
                                int points) {
  if (b <= a) return 0.0;
  double total = 0.0;
  double prev = a;
  auto it = std::upper_bound(breakpoints.begin(), breakpoints.end(), a);
  for (; it != breakpoints.end() && *it < b; ++it) {
    if (*it > prev) {
      total += GaussLegendre(f, prev, *it, points);
      prev = *it;
    }
  }
  total += GaussLegendre(f, prev, b, points);
  return total;
}

}  // namespace pverify
