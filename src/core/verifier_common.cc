#include <algorithm>

#include "core/verifier.h"

namespace pverify {
namespace {

/// The Eq. 4 accumulation over candidate i's rows. The sums run strictly in
/// j order, so the bounds are reproducible bit for bit.
inline void RefreshOne(VerificationContext& ctx, size_t i, size_t m) {
  const double* s_row = ctx.table->SRow(i);
  const double* ql_row = ctx.QLowRow(i);
  const double* qu_row = ctx.QUpRow(i);
  double lower = 0.0;
  double upper = 0.0;
  for (size_t j = 0; j < m; ++j) {
    const double sij = s_row[j];
    if (sij <= SubregionTable::kEps) continue;
    lower += sij * ql_row[j];
    upper += sij * qu_row[j];
  }
  // The subregion probabilities of a proper distance distribution sum to 1,
  // but guard against discretization residue pushing the sums out of range.
  lower = std::min(1.0, std::max(0.0, lower));
  upper = std::min(1.0, std::max(lower, upper));
  (*ctx.candidates)[i].bound.Tighten(lower, upper);
}

}  // namespace

void VerificationContext::RefreshBound(size_t i) {
  RefreshOne(*this, i, table->num_subregions());
}

void VerificationContext::RefreshAllBounds() {
  const size_t m = table->num_subregions();
  CandidateSet& cands = *candidates;
  for (size_t i = 0; i < cands.size(); ++i) {
    if (cands[i].label != Label::kUnknown) continue;
    RefreshOne(*this, i, m);
  }
}

namespace {
RsVerifier rs_verifier;
LsrVerifier lsr_verifier;
UsrVerifier usr_verifier;
}  // namespace

Verifier* const kDefaultVerifierChain[kNumStages] = {
    &rs_verifier, &lsr_verifier, &usr_verifier};

}  // namespace pverify
