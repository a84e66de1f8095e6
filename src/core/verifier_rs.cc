// The Rightmost-Subregion (RS) verifier — paper §IV-B.
//
// Any candidate whose distance falls beyond f_min cannot be the nearest
// neighbor (some object's far point equals f_min), so the probability mass a
// candidate places in the rightmost subregion S_M = [f_min, f_max] bounds
// its qualification probability from above: p_i.u <= 1 − s_iM (Lemma 1).
#include "core/verifier.h"

namespace pverify {

void RsVerifier::Apply(VerificationContext& ctx) {
  const SubregionTable& tbl = *ctx.table;
  const size_t m = tbl.num_subregions();
  CandidateSet& cands = *ctx.candidates;
  for (size_t i = 0; i < cands.size(); ++i) {
    if (cands[i].label != Label::kUnknown) continue;
    const double s_im = tbl.SRow(i)[m - 1];
    cands[i].bound.Tighten(0.0, 1.0 - s_im);
  }
}

}  // namespace pverify
