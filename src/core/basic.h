// The Basic evaluation method (paper §V-A): computes exact qualification
// probabilities for the whole candidate set by numerically integrating
//
//   p_i = ∫_{n_i}^{min(f_i, f_min)} d_i(r) · Π_{k≠i} (1 − D_k(r)) dr
//
// with the formula of Cheng et al. [5]. This is the expensive baseline the
// verifiers are designed to avoid; it also powers the plain (unconstrained)
// PNN API, which reports every candidate's probability, and it is the
// independent oracle for refinement's table-driven q_ij (core/refine.h):
// it integrates over pdf and cdf lookups, not over the subregion table.
#ifndef PVERIFY_CORE_BASIC_H_
#define PVERIFY_CORE_BASIC_H_

#include <vector>

#include "core/candidate.h"
#include "core/refine.h"

namespace pverify {

/// Exact qualification probability of candidate i (index into the set).
double ExactQualificationProbability(const CandidateSet& candidates, size_t i,
                                     const IntegrationOptions& options);

/// Exact qualification probabilities of every candidate, in set order.
/// The probabilities of a full candidate set sum to 1 (up to quadrature
/// error) — a property the tests assert.
std::vector<double> ComputeExactProbabilities(
    const CandidateSet& candidates, const IntegrationOptions& options);

}  // namespace pverify

#endif  // PVERIFY_CORE_BASIC_H_
