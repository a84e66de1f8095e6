#include "common/piecewise.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pverify {

StepFunction::StepFunction(std::vector<double> breaks,
                           std::vector<double> values)
    : breaks_(std::move(breaks)), values_(std::move(values)) {
  ValidateAndBuildCum();
}

void StepFunction::Assign(const double* breaks, const double* values,
                          size_t pieces) {
  breaks_.assign(breaks, breaks + pieces + 1);
  values_.assign(values, values + pieces);
  ValidateAndBuildCum();
}

void StepFunction::ValidateAndBuildCum() {
  PV_CHECK_MSG(breaks_.size() == values_.size() + 1,
               "breaks must have one more entry than values");
  PV_CHECK_MSG(breaks_.size() >= 2, "need at least one piece");
  for (size_t i = 0; i + 1 < breaks_.size(); ++i) {
    PV_CHECK_MSG(breaks_[i] < breaks_[i + 1],
                 "breakpoints must be strictly increasing");
  }
  for (double v : values_) {
    PV_CHECK_MSG(v >= 0.0 && std::isfinite(v),
                 "piece values must be finite and non-negative");
  }
  cum_.resize(breaks_.size());
  cum_[0] = 0.0;
  for (size_t i = 0; i < values_.size(); ++i) {
    cum_[i + 1] = cum_[i] + values_[i] * (breaks_[i + 1] - breaks_[i]);
  }
}

StepFunction StepFunction::Constant(double lo, double hi, double height) {
  return StepFunction({lo, hi}, {height});
}

size_t StepFunction::PieceIndex(double x) const {
  PV_DCHECK(!empty());
  PV_DCHECK(x >= breaks_.front() && x <= breaks_.back());
  // upper_bound gives the first break > x; the piece index is one less.
  auto it = std::upper_bound(breaks_.begin(), breaks_.end(), x);
  size_t idx = static_cast<size_t>(it - breaks_.begin());
  if (idx == 0) return 0;
  if (idx >= breaks_.size()) return values_.size() - 1;
  return idx - 1;
}

double StepFunction::Value(double x) const {
  if (empty() || x < breaks_.front() || x > breaks_.back()) return 0.0;
  return values_[PieceIndex(x)];
}

double StepFunction::IntegralTo(double x) const {
  if (empty() || x <= breaks_.front()) return 0.0;
  if (x >= breaks_.back()) return cum_.back();
  size_t i = PieceIndex(x);
  return cum_[i] + values_[i] * (x - breaks_[i]);
}

void StepFunction::IntegralToSorted(const double* xs, size_t n,
                                    double* out) const {
  if (empty()) {
    for (size_t i = 0; i < n; ++i) out[i] = 0.0;
    return;
  }
  const double lo = breaks_.front();
  const double hi = breaks_.back();
  const double total = cum_.back();
  // Merge scan: the piece cursor only ever advances, so the batch costs
  // O(num_pieces + n) instead of n binary searches. For each x the cursor
  // lands on the same piece index PieceIndex(x) would return, and the
  // interpolation below is the scalar IntegralTo arithmetic verbatim —
  // hence bit-identical results.
  size_t p = 0;
  const size_t last_piece = values_.size() - 1;
  double prev_x = -std::numeric_limits<double>::infinity();
  (void)prev_x;  // Only read by the DCHECK below; NDEBUG builds discard it.
  for (size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    // Tracked in a local (not re-read from xs[i-1]) so `out` may alias `xs`.
    PV_DCHECK(x >= prev_x);
    prev_x = x;
    if (x <= lo) {
      out[i] = 0.0;
      continue;
    }
    if (x >= hi) {
      out[i] = total;
      continue;
    }
    while (p < last_piece && breaks_[p + 1] <= x) ++p;
    out[i] = cum_[p] + values_[p] * (x - breaks_[p]);
  }
}

double StepFunction::IntegralBetween(double a, double b) const {
  if (b <= a) return 0.0;
  return IntegralTo(b) - IntegralTo(a);
}

double StepFunction::InverseIntegral(double p) const {
  PV_CHECK_MSG(!empty(), "inverse of empty function");
  PV_CHECK_MSG(p >= 0.0 && p <= cum_.back() * (1.0 + 1e-12) + 1e-15,
               "probability outside total mass");
  p = std::min(p, cum_.back());
  auto it = std::lower_bound(cum_.begin(), cum_.end(), p);
  size_t idx = static_cast<size_t>(it - cum_.begin());
  if (idx == 0) return breaks_.front();
  size_t piece = idx - 1;
  // Skip zero-height pieces: land on the left edge of the next mass.
  if (values_[piece] <= 0.0) return breaks_[idx];
  return breaks_[piece] + (p - cum_[piece]) / values_[piece];
}

StepFunction StepFunction::Scaled(double factor) const {
  PV_CHECK_MSG(factor >= 0.0, "negative scale factor");
  std::vector<double> vals = values_;
  for (double& v : vals) v *= factor;
  return StepFunction(breaks_, std::move(vals));
}

StepFunction StepFunction::Normalized() const {
  double mass = TotalMass();
  PV_CHECK_MSG(mass > 0.0, "cannot normalize zero-mass function");
  return Scaled(1.0 / mass);
}

std::vector<double> SortedUnique(std::vector<double> xs, double eps) {
  SortedUniqueInPlace(xs, eps);
  return xs;
}

void SortedUniqueInPlace(std::vector<double>& xs, double eps) {
  std::sort(xs.begin(), xs.end());
  size_t kept = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (kept == 0 || xs[i] - xs[kept - 1] > eps) xs[kept++] = xs[i];
  }
  xs.resize(kept);
}

std::vector<double> MergeBreakpoints(const std::vector<double>& a,
                                     const std::vector<double>& b,
                                     double eps) {
  std::vector<double> merged;
  merged.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(merged));
  return SortedUnique(std::move(merged), eps);
}

}  // namespace pverify
