// Piecewise-constant step functions with O(log n) point queries and exact
// integrals.
//
// This is the numeric backbone of pverify: uncertainty pdfs are represented
// as step functions (histograms), so distance pdfs obtained by folding around
// a query point stay step functions, and distance cdfs are their exact
// piecewise-linear integrals. All verifier math (subregion probabilities
// s_ij, cdf values D_i(e_j)) reduces to queries on this class.
#ifndef PVERIFY_COMMON_PIECEWISE_H_
#define PVERIFY_COMMON_PIECEWISE_H_

#include <cstddef>
#include <vector>

namespace pverify {

/// A non-negative step function with bounded support.
///
/// The function is described by n+1 strictly increasing breakpoints
/// x_0 < x_1 < ... < x_n and n values v_0..v_{n-1}; it evaluates to v_i on
/// [x_i, x_{i+1}) and to 0 outside [x_0, x_n]. Cumulative integrals are
/// precomputed so Value() and IntegralTo() are O(log n).
class StepFunction {
 public:
  StepFunction() = default;

  /// Builds from breakpoints and per-piece values. Requires breaks strictly
  /// increasing, values.size() + 1 == breaks.size(), values non-negative.
  StepFunction(std::vector<double> breaks, std::vector<double> values);

  /// Rebuilds this function in place from raw ranges, reusing the existing
  /// vectors' capacity: same validation and cumulative-integral arithmetic
  /// as the constructor, but no allocation once the capacities cover the
  /// piece count. `breaks` must hold `pieces` + 1 entries.
  void Assign(const double* breaks, const double* values, size_t pieces);

  /// Convenience: single piece of the given height on [lo, hi].
  static StepFunction Constant(double lo, double hi, double height);

  /// True when the function has no pieces (identically zero).
  bool empty() const { return values_.empty(); }

  size_t num_pieces() const { return values_.size(); }
  double support_lo() const { return breaks_.empty() ? 0.0 : breaks_.front(); }
  double support_hi() const { return breaks_.empty() ? 0.0 : breaks_.back(); }

  const std::vector<double>& breaks() const { return breaks_; }
  const std::vector<double>& values() const { return values_; }

  /// Function value at x (0 outside the support; right-continuous inside,
  /// except the last breakpoint which evaluates to the last piece's value).
  double Value(double x) const;

  /// Integral from the start of the support to x, clamped to the support.
  /// This is the exact piecewise-linear antiderivative.
  double IntegralTo(double x) const;

  /// Batched IntegralTo over a sorted (non-decreasing) batch of query
  /// points: out[i] = IntegralTo(xs[i]). One merge-scan over the
  /// breakpoints evaluates the whole batch in O(num_pieces + n) — no
  /// binary searches — performing for every point the exact arithmetic of
  /// the scalar IntegralTo, so results are bit-identical to a per-point
  /// loop. Duplicate and out-of-support points are fine; `out` may alias
  /// `xs`.
  void IntegralToSorted(const double* xs, size_t n, double* out) const;

  /// Integral over [a, b] (exact; a may exceed b, in which case returns 0).
  double IntegralBetween(double a, double b) const;

  /// Total integral over the support.
  double TotalMass() const { return cum_.empty() ? 0.0 : cum_.back(); }

  /// Smallest x with IntegralTo(x) >= p. Requires 0 <= p <= TotalMass().
  /// Used for inverse-cdf sampling by the Monte-Carlo baseline.
  double InverseIntegral(double p) const;

  /// Returns a copy scaled by the (non-negative) factor.
  StepFunction Scaled(double factor) const;

  /// Returns a copy scaled so TotalMass() == 1. Requires positive mass.
  StepFunction Normalized() const;

  /// Index of the piece containing x; requires x within the support.
  size_t PieceIndex(double x) const;

  /// Approximate heap footprint of the owned vectors (capacity, not size).
  size_t ApproxBytes() const {
    return (breaks_.capacity() + values_.capacity() + cum_.capacity()) *
           sizeof(double);
  }

 private:
  void ValidateAndBuildCum();

  std::vector<double> breaks_;  // n+1 breakpoints
  std::vector<double> values_;  // n piece heights
  std::vector<double> cum_;     // n+1 cumulative integrals; cum_[0] == 0
};

/// Merges two sorted breakpoint lists, dropping near-duplicates (within eps).
std::vector<double> MergeBreakpoints(const std::vector<double>& a,
                                     const std::vector<double>& b,
                                     double eps = 1e-12);

/// Sorts, then removes entries closer than eps to their predecessor.
std::vector<double> SortedUnique(std::vector<double> xs, double eps = 1e-12);

/// In-place SortedUnique: same semantics, no allocation — for hot paths
/// that reuse the vector's capacity across calls.
void SortedUniqueInPlace(std::vector<double>& xs, double eps = 1e-12);

}  // namespace pverify

#endif  // PVERIFY_COMMON_PIECEWISE_H_
