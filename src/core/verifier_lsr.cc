// The Lower-Subregion (L-SR) verifier — paper §IV-C, Lemma 2.
//
// For candidate X_i confined to subregion S_j (j < M), the qualification
// probability is at least
//
//   q_ij.l = (1/c_j) · Π_{k≠i, D_k(e_j)>0} (1 − D_k(e_j))
//
// — the probability that no other candidate falls below e_j (event E) times
// the 1/c_j symmetry floor of Lemma 3 (distance pdfs are constant inside a
// subregion by construction, so candidates inside S_j are exchangeable).
// Summing s_ij·q_ij.l over the non-rightmost subregions (Eq. 4) lower-bounds
// p_i. The Y_j products let the whole pass run in O(|C|·M).
#include "core/verifier.h"

namespace pverify {

void LsrVerifier::Apply(VerificationContext& ctx) {
  const SubregionTable& tbl = *ctx.table;
  const size_t m = tbl.num_subregions();
  CandidateSet& cands = *ctx.candidates;
  for (size_t i = 0; i < cands.size(); ++i) {
    if (cands[i].label != Label::kUnknown) continue;
    for (size_t j = 0; j + 1 < m; ++j) {
      if (!tbl.Participates(i, j)) continue;
      const int cj = tbl.count(j);
      const double pr_e = tbl.ProductExcluding(i, j);
      const double qlow = pr_e / static_cast<double>(cj);
      double& slot = ctx.QLow(i, j);
      if (qlow > slot) slot = qlow;
    }
  }
  ctx.RefreshAllBounds();
}

}  // namespace pverify
