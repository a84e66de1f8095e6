// Incremental refinement (paper §IV-D).
//
// Candidates still unknown after verification have their per-subregion
// qualification probabilities computed exactly, one subregion at a time:
// after each integration the bound [q_ij.l, q_ij.u] collapses to the exact
// q_ij, the candidate's probability bound is refreshed and the classifier is
// consulted — so most candidates are decided long before every subregion is
// integrated, and each integration covers a subregion rather than the whole
// uncertainty region.
#ifndef PVERIFY_CORE_REFINE_H_
#define PVERIFY_CORE_REFINE_H_

#include <cstdint>

#include "core/verifier.h"

namespace pverify {

/// Quadrature configuration for exact probability computation.
struct IntegrationOptions {
  /// Gauss-Legendre nodes per integration segment (2, 4, 8 or 16).
  int gauss_points = 16;
  /// Extra splits per subregion; the integrand is a degree-(c_j − 1)
  /// polynomial inside a subregion, so one 16-node segment is exact up to
  /// c_j = 32 and additional splits keep larger candidate sets accurate.
  int splits_per_subregion = 2;
};

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

/// Exact conditional qualification probability q_ij of candidate i in
/// subregion j: (1/s_ij) ∫_{S_j} d_i(r) Π_{k≠i} (1 − D_k(r)) dr.
/// Requires s_ij > 0 and j < M−1 (the rightmost subregion is identically 0).
double ExactSubregionProbability(const VerificationContext& ctx, size_t i,
                                 size_t j, const IntegrationOptions& options);

/// The NN integrand d_i(r) · Π_{k≠i} (1 − D_k(r)) (paper Eq. 2), shared by
/// refinement and the exact-probability paths of core/basic.h. Stops
/// multiplying once the product reaches zero.
double NnProductIntegrand(const CandidateSet& cands, size_t i, double r);

struct QueryScratch;

/// Runs incremental refinement over every still-unknown candidate. On
/// return no candidate is labeled kUnknown. A non-null `scratch` lends the
/// subregion-ordering workspace so repeated queries stop allocating.
RefineStats IncrementalRefine(VerificationContext& ctx,
                              const CpnnParams& params,
                              const IntegrationOptions& options,
                              RefineOrder order =
                                  RefineOrder::kBySubregionProbability,
                              QueryScratch* scratch = nullptr);

}  // namespace pverify

#endif  // PVERIFY_CORE_REFINE_H_
