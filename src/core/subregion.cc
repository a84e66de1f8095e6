#include "core/subregion.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/piecewise.h"

namespace pverify {

SubregionTable SubregionTable::Build(const CandidateSet& candidates) {
  SubregionTable table;
  BuildInto(candidates, &table);
  return table;
}

void SubregionTable::BuildInto(const CandidateSet& candidates,
                               SubregionTable* out) {
  PV_CHECK_MSG(!candidates.empty(), "subregion table needs candidates");
  SubregionTable& table = *out;
  const size_t n = candidates.size();
  table.n_ = n;

  const double fmin = candidates.fmin();
  const double fmax = candidates.fmax();

  // Gather end-points strictly below f_min: near points and distance-pdf
  // change points (paper: circled values in Fig. 7). Everything inside
  // [f_min, f_max] belongs to the undivided rightmost subregion. The points
  // are collected straight into endpoints_ so a reused table performs no
  // allocation once its capacity has grown to the workload's high-water
  // mark.
  std::vector<double>& pts = table.endpoints_;
  pts.clear();
  for (size_t i = 0; i < n; ++i) {
    const Candidate& c = candidates[i];
    for (double b : c.dist.breakpoints()) {
      if (b < fmin - 1e-12) pts.push_back(b);
    }
  }
  pts.push_back(fmin);
  // In place: the out-of-place SortedUnique would allocate a fresh vector
  // per query and drop the reused capacity.
  SortedUniqueInPlace(pts, 1e-12);

  // endpoints_ = e_0 < e_1 < ... < e_{M-1} = f_min, then e_M = f_max.
  table.endpoints_.push_back(fmax);
  const size_t m = table.endpoints_.size() - 1;  // number of subregions
  PV_CHECK_MSG(m >= 1, "at least the rightmost subregion must exist");
  table.m_ = m;
  table.s_stride_ = PadStride<double>(m);
  table.cdf_stride_ = PadStride<double>(m + 1);

  // Every logical entry is written below; only the padding is zeroed, so
  // padded s-entries never participate.
  table.s_.resize(n * table.s_stride_);
  table.cdf_.resize(n * table.cdf_stride_);
  table.count_.assign(m, 0);
  table.y_.assign(m + 1, 1.0);

  for (size_t i = 0; i < n; ++i) {
    const DistanceDistribution& dist = candidates[i].dist;
    double* cdf_row = table.cdf_.data() + i * table.cdf_stride_;
    double* s_row = table.s_.data() + i * table.s_stride_;
    // endpoints_ is sorted, so one merge-scan over the distance pdf's
    // pieces fills the whole row in O(pieces + M) — no per-point binary
    // searches, bit-identical to the pointwise Cdf loop it replaces (see
    // StepFunction::IntegralToSorted).
    dist.CdfSorted(table.endpoints_.data(), m + 1, cdf_row);
    std::fill(cdf_row + m + 1, cdf_row + table.cdf_stride_, 0.0);
    for (size_t j = 0; j < m; ++j) {
      double sij = cdf_row[j + 1] - cdf_row[j];
      sij = std::max(0.0, sij);
      s_row[j] = sij;
      if (sij > kEps) ++table.count_[j];
    }
    std::fill(s_row + m, s_row + table.s_stride_, 0.0);
  }

  // Y_j product, candidate-outer so the inner loop streams one contiguous
  // cdf row. Per j this multiplies the same factors in the same (k-)order
  // as the subregion-outer formulation, so the result is bit-identical.
  double* y = table.y_.data();
  for (size_t k = 0; k < n; ++k) {
    const double* cdf_row = table.cdf_.data() + k * table.cdf_stride_;
    for (size_t j = 0; j <= m; ++j) y[j] *= 1.0 - cdf_row[j];
  }
}

double SubregionTable::ProductExcluding(size_t i, size_t j) const {
  PV_DCHECK(i < n_ && j <= m_);
  const double di = cdf(i, j);
  const double factor = 1.0 - di;
  // Divide out i's factor when it is not too small to divide by and Y_j
  // has not underflowed.
  if (factor > 1e-8 && y_[j] > 0.0) {
    return std::min(1.0, y_[j] / factor);
  }
  // Fallback: i's factor is ~0 (or Y_j underflowed); recompute directly.
  double prod = 1.0;
  for (size_t k = 0; k < n_; ++k) {
    if (k == i) continue;
    prod *= 1.0 - cdf(k, j);
    if (prod == 0.0) break;
  }
  return prod;
}

}  // namespace pverify
