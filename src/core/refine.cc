#include "core/refine.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/integrate.h"
#include "core/classifier.h"
#include "core/scratch.h"

namespace pverify {

double NnProductIntegrand(const CandidateSet& cands, size_t i, double r) {
  double v = cands[i].dist.Density(r);
  if (v == 0.0) return 0.0;
  for (size_t k = 0; k < cands.size(); ++k) {
    if (k == i) continue;
    v *= 1.0 - cands[k].dist.Cdf(r);
    if (v == 0.0) break;
  }
  return v;
}

double ExactSubregionProbability(const VerificationContext& ctx, size_t i,
                                 size_t j, const IntegrationOptions& options) {
  const SubregionTable& tbl = *ctx.table;
  PV_CHECK_MSG(j + 1 < tbl.num_subregions() || tbl.num_subregions() == 1,
               "the rightmost subregion needs no integration");
  const double sij = tbl.s(i, j);
  PV_CHECK_MSG(sij > SubregionTable::kEps,
               "q_ij undefined when s_ij is zero");
  const CandidateSet& cands = *ctx.candidates;
  const double a = tbl.endpoint(j);
  const double b = tbl.endpoint(j + 1);
  const int splits = std::max(1, options.splits_per_subregion);
  double integral = 0.0;
  double prev = a;
  for (int s = 1; s <= splits; ++s) {
    double next = a + (b - a) * s / splits;
    integral += GaussLegendre(
        [&cands, i](double r) { return NnProductIntegrand(cands, i, r); },
        prev, next, options.gauss_points);
    prev = next;
  }
  return std::clamp(integral / sij, 0.0, 1.0);
}

RefineStats IncrementalRefine(VerificationContext& ctx,
                              const CpnnParams& params,
                              const IntegrationOptions& options,
                              RefineOrder order, QueryScratch* scratch) {
  RefineStats stats;
  const SubregionTable& tbl = *ctx.table;
  const size_t m = tbl.num_subregions();
  CandidateSet& cands = *ctx.candidates;

  // Subregion-ordering workspace, shared across candidates (and across
  // queries when a scratch lends it).
  std::vector<size_t> local_js;
  std::vector<size_t>& js = scratch ? scratch->refine_order : local_js;

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
      std::stable_sort(js.begin(), js.end(), [&](size_t a, size_t b) {
        return s_row[a] > s_row[b];
      });
    }

    for (size_t j : js) {
      double q = ExactSubregionProbability(ctx, i, j, options);
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
