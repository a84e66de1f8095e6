// Incremental refinement (paper §IV-D).
//
// Candidates still unknown after verification have their per-subregion
// qualification probabilities computed exactly, one subregion at a time:
// after each integration the bound [q_ij.l, q_ij.u] collapses to the exact
// q_ij, the candidate's probability bound is refreshed and the classifier is
// consulted — so most candidates are decided long before every subregion is
// integrated, and each integration covers a subregion rather than the whole
// uncertainty region.
//
// Each q_ij is read straight from the subregion table, with no quadrature.
// Below f_min every distance pdf is constant on S_j = [e_j, e_{j+1}] (the
// invariant of core/subregion.h), so with r = e_j + t·(e_{j+1} − e_j) every
// D_k is linear in t and d_i = s_ij / (e_{j+1} − e_j) cancels against the
// 1/s_ij:
//
//   q_ij = ∫₀¹ Π_{k≠i} ((1 − D_k(e_j))(1 − t) + (1 − D_k(e_{j+1})) t) dt.
//
// Candidates whose cdf does not move on S_j multiply in as constants; the
// others form a polynomial in t that is accumulated in the normalised
// Bernstein basis (b_m ≥ 0, every b_m ≤ 1), so no participant count can
// overflow it, and a degree-D polynomial integrates to Σ_m b_m / (D + 1).
// The exact-probability oracle of core/basic.h integrates the same
// integrand independently, by Gauss-Legendre over pdf and cdf lookups.
#ifndef PVERIFY_CORE_REFINE_H_
#define PVERIFY_CORE_REFINE_H_

#include <cstddef>
#include <vector>

#include "core/subregion.h"
#include "core/verifier.h"

namespace pverify {

/// Order in which a candidate's subregions are refined.
enum class RefineOrder {
  /// Largest subregion probability s_ij first (collapses the widest bound
  /// slice first; the library default).
  kBySubregionProbability,
  /// Left-to-right e_0 → f_min (the natural sweep; kept for ablation).
  kLeftToRight,
};

/// Statistics of one refinement pass.
struct RefineStats {
  size_t refined_candidates = 0;    ///< candidates processed
  size_t subregion_integrations = 0;  ///< exact q_ij computations performed
  size_t subregions_available = 0;  ///< total subregions of those candidates
};

/// Quadrature configuration of the exact-probability oracles (core/basic.h)
/// and the k-NN integration (core/knn.h). Refinement reads none of it.
struct IntegrationOptions {
  /// Gauss-Legendre nodes per integration segment (2, 4, 8 or 16).
  int gauss_points = 16;
};

/// Exact conditional qualification probability q_ij of candidate i in
/// subregion j: (1/s_ij) ∫_{S_j} d_i(r) Π_{k≠i} (1 − D_k(r)) dr, computed
/// from the table's cdf values in O(c_j²). Requires s_ij > 0 and
/// j + 1 < M (the pdfs are constant only below f_min). `coeffs` lends the
/// polynomial's coefficient buffer; null means a local one.
double ExactSubregionProbability(const SubregionTable& table, size_t i,
                                 size_t j,
                                 std::vector<double>* coeffs = nullptr);

struct QueryScratch;

/// Runs incremental refinement over every still-unknown candidate. On
/// return no candidate is labeled kUnknown. A non-null `scratch` lends the
/// subregion-ordering and coefficient workspaces, so a warm refinement
/// allocates nothing. `integration` is not read (the q_ij are exact); it
/// keeps the signature existing callers such as bench/pvbench build
/// against.
RefineStats IncrementalRefine(VerificationContext& ctx,
                              const CpnnParams& params,
                              const IntegrationOptions& integration,
                              RefineOrder order =
                                  RefineOrder::kBySubregionProbability,
                              QueryScratch* scratch = nullptr);

}  // namespace pverify

#endif  // PVERIFY_CORE_REFINE_H_
