#include "core/refine.h"

#include <algorithm>

#include "common/check.h"
#include "core/classifier.h"
#include "core/scratch.h"

namespace pverify {

double ExactSubregionProbability(const SubregionTable& table, size_t i,
                                 size_t j, std::vector<double>* coeffs) {
  PV_CHECK_MSG(j + 1 < table.num_subregions(),
               "q_ij is taken from the table only below f_min");
  PV_CHECK_MSG(table.s(i, j) > SubregionTable::kEps,
               "q_ij undefined when s_ij is zero");
  std::vector<double> local;
  std::vector<double>& buf = coeffs != nullptr ? *coeffs : local;
  const size_t n = table.num_candidates();
  if (buf.size() < n) buf.resize(n);
  double* b = buf.data();

  // Π_{k≠i} (u_k (1 − t) + v_k t) with u_k = 1 − D_k(e_j) and
  // v_k = 1 − D_k(e_{j+1}). Factors with u_k == v_k are constants; the
  // rest build b_0..b_d, the normalised Bernstein coefficients of their
  // degree-d product: multiplying by (u (1 − t) + v t) maps b_m to
  // ((d + 1 − m) u b_m + m v b_{m−1}) / (d + 1).
  double constant = 1.0;
  size_t d = 0;
  b[0] = 1.0;
  for (size_t k = 0; k < n; ++k) {
    if (k == i) continue;
    const double u = 1.0 - table.cdf(k, j);
    const double v = 1.0 - table.cdf(k, j + 1);
    if (u == v) {
      constant *= u;
      if (constant == 0.0) return 0.0;
      continue;
    }
    const double uu = u / static_cast<double>(d + 1);
    const double vv = v / static_cast<double>(d + 1);
    b[d + 1] = v * b[d];
    // Downward, so b[m − 1] is still the old coefficient when b[m] reads
    // it; `up` = d + 1 − m and `down` = m count in exact integers.
    double up = 1.0;
    double down = static_cast<double>(d);
    for (size_t m = d; m > 0; --m) {
      b[m] = up * uu * b[m] + down * vv * b[m - 1];
      up += 1.0;
      down -= 1.0;
    }
    b[0] *= u;
    ++d;
  }
  double sum = 0.0;
  for (size_t m = 0; m <= d; ++m) sum += b[m];
  return std::clamp(constant * sum / static_cast<double>(d + 1), 0.0, 1.0);
}

RefineStats IncrementalRefine(VerificationContext& ctx,
                              const CpnnParams& params,
                              const IntegrationOptions& /*integration*/,
                              RefineOrder order, QueryScratch* scratch) {
  RefineStats stats;
  const SubregionTable& tbl = *ctx.table;
  const size_t m = tbl.num_subregions();
  CandidateSet& cands = *ctx.candidates;

  // Subregion-ordering and coefficient workspaces, shared across
  // candidates (and across queries when a scratch lends them).
  std::vector<size_t> local_js;
  std::vector<double> local_coeffs;
  std::vector<size_t>& js = scratch ? scratch->refine_order : local_js;
  std::vector<double>& coeffs = scratch ? scratch->refine_coeffs
                                        : local_coeffs;

  for (size_t i = 0; i < cands.size(); ++i) {
    Candidate& cand = cands[i];
    if (cand.label != Label::kUnknown) continue;
    ++stats.refined_candidates;

    // Subregions with mass for this candidate, excluding the rightmost.
    // The candidate's SoA rows are hoisted once; the collapse loop below
    // rewrites single entries of them, and each RefreshBound re-runs the
    // Eq. 4 pass over the full contiguous rows.
    const double* s_row = tbl.SRow(i);
    double* ql_row = ctx.QLowRow(i);
    double* qu_row = ctx.QUpRow(i);
    js.clear();
    for (size_t j = 0; j + 1 < m; ++j) {
      if (s_row[j] > SubregionTable::kEps) js.push_back(j);
    }
    stats.subregions_available += js.size();
    if (order == RefineOrder::kBySubregionProbability) {
      // Ties keep ascending j, as a stable sort would, without the stable
      // sort's temporary buffer.
      std::sort(js.begin(), js.end(), [&](size_t a, size_t b) {
        return s_row[a] > s_row[b] || (s_row[a] == s_row[b] && a < b);
      });
    }

    for (size_t j : js) {
      double q = ExactSubregionProbability(tbl, i, j, &coeffs);
      ++stats.subregion_integrations;
      ql_row[j] = q;
      qu_row[j] = q;
      ctx.RefreshBound(i);
      cand.label = Classify(cand.bound, params);
      if (cand.label != Label::kUnknown) break;
    }
    if (cand.label == Label::kUnknown) {
      // All subregions are exact now; the bound has collapsed to the exact
      // probability and Definition 1 always decides a zero-width bound.
      cand.label = Classify(cand.bound, params);
      PV_DCHECK(cand.label != Label::kUnknown);
    }
  }
  return stats;
}

}  // namespace pverify
