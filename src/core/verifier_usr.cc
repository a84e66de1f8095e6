// The Upper-Subregion (U-SR) verifier — paper §IV-C Eq. 5, Appendix I.
//
// Conditioned on R_i ∈ S_j, split on F = "every other candidate is at or
// beyond e_{j+1}". If F holds X_i is certainly the NN; otherwise some other
// candidate shares S_j with X_i (given E) and exchangeability caps the NN
// probability at 1/2. Hence
//
//   q_ij.u = ½ · (Pr(F) + Pr(E))
//          = ½ · ( Π_{k≠i}(1 − D_k(e_{j+1})) + Π_{k≠i}(1 − D_k(e_j)) ).
//
// Both products reuse the precomputed Y_j values (Eq. 11), so the pass is
// O(|C|·M).
#include "core/verifier.h"

namespace pverify {

void UsrVerifier::Apply(VerificationContext& ctx) {
  const SubregionTable& tbl = *ctx.table;
  const size_t m = tbl.num_subregions();
  CandidateSet& cands = *ctx.candidates;
  for (size_t i = 0; i < cands.size(); ++i) {
    if (cands[i].label != Label::kUnknown) continue;
    double pr_e = tbl.ProductExcluding(i, 0);  // at e_0 this is 1 for all i
    for (size_t j = 0; j + 1 < m; ++j) {
      const double pr_f = tbl.ProductExcluding(i, j + 1);
      if (tbl.Participates(i, j)) {
        const double qup = 0.5 * (pr_f + pr_e);
        double& slot = ctx.QUp(i, j);
        if (qup < slot) slot = qup;
      }
      pr_e = pr_f;  // e_{j+1} becomes the next subregion's left end-point
    }
  }
  ctx.RefreshAllBounds();
}

}  // namespace pverify
