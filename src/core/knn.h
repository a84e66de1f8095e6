// Probabilistic k-NN extension (the paper's §VI future work).
//
// The k-NN qualification probability of candidate X_i is
//
//   p_i^(k) = ∫ d_i(r) · P[at most k−1 of the other R_j are below r] dr,
//
// where the inner probability is a Poisson-binomial tail over the other
// candidates' distance cdfs, evaluated with the standard O(|C|·k) dynamic
// program. Three pruning devices generalize the PNN machinery:
//
//  * k-th far point: with f^(k) the k-th smallest far point, any candidate
//    whose distance exceeds f^(k) certainly has k closer objects, so the
//    integration stops there and mass beyond it bounds p_i^(k) from above —
//    the k-NN analogue of the RS verifier.
//  * filtering: objects with near point beyond f^(k) are dropped outright.
//    The executors find them on their R-tree (PnnFilter::FilterK): the k
//    entries nearest to q bound f^(k) from above, one ball probe within
//    that bound returns a superset, and the objects' own distances cut it
//    to exactly the scan's f^(k) and candidate set (FilterKByScan is the
//    test oracle). The sharded engine runs the same filter per shard.
//  * progressive refinement: the integral accumulates segment by segment,
//    maintaining the bound [partial, partial + unintegrated mass]; the
//    Definition 1 classifier decides most candidates long before the
//    integral completes — the k-NN analogue of incremental refinement.
//
// Evaluation is one segment-major sweep over the global breakpoints (every
// candidate's pdf breakpoints, merged within 1e-12). Each candidate still
// integrates [near, min(far, f^(k))] with per-segment Gauss-Legendre, in
// order, with its own partial sums, early exit and counters; the sweep
// only shares work. At each node of a shared segment the cdf row D_j(r) is
// computed once, for the candidates whose near point lies below r, and
// every candidate on that segment reads it. The Poisson-binomial DP is
// specialised on k − 1 (up to 8, else sized at run time), and candidates
// share the DP over the row entries before their own. A candidate whose
// first or last segment endpoint was merged away integrates that segment
// on its own. Results are bit-identical to integrating each candidate
// separately: the same nodes, the same DP order, the same sums.
#ifndef PVERIFY_CORE_KNN_H_
#define PVERIFY_CORE_KNN_H_

#include <vector>

#include "core/candidate.h"
#include "core/refine.h"
#include "core/types.h"

namespace pverify {

/// k-th smallest far point of the candidate set (k >= 1). Requires
/// k <= |C|.
double KthFarPoint(const CandidateSet& candidates, int k);

/// Exact k-NN qualification probabilities (Poisson-binomial integration).
/// k = 1 reduces to the PNN probabilities.
std::vector<double> ComputeKnnProbabilities(const CandidateSet& candidates,
                                            int k,
                                            const IntegrationOptions& options);

/// Answer of a constrained k-NN query (threshold/tolerance semantics of
/// Definition 1 applied to p_i^(k)).
struct CknnAnswer {
  std::vector<ObjectId> ids;
  /// Final probability bound per candidate (candidate-set order);
  /// zero-width iff the probability was integrated to completion.
  std::vector<ProbabilityBound> bounds;
  size_t pruned_by_bound = 0;   ///< rejected by the RS-style bound alone
  size_t early_decided = 0;     ///< decided before the integral completed
  size_t segments_evaluated = 0;  ///< quadrature segments actually computed
};

/// Evaluates a constrained probabilistic k-NN query over the candidate set:
/// RS-style bound first, then progressive integration with Definition 1
/// classification after every segment.
CknnAnswer EvaluateCknn(const CandidateSet& candidates, int k,
                        const CpnnParams& params,
                        const IntegrationOptions& options);

}  // namespace pverify

#endif  // PVERIFY_CORE_KNN_H_
