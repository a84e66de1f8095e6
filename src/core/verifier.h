// Probabilistic verifier interface and the verification context shared by
// the verifier chain (paper §IV).
//
// A verifier inspects the subregion table and tightens the probability
// bounds of still-unknown candidates; the classifier then re-labels them.
// Verifiers additionally record per-subregion qualification-probability
// bounds [q_ij.l, q_ij.u] in the context so that incremental refinement
// (§IV-D) can collapse them one subregion at a time.
//
// Like SubregionTable, the context stores q_ij.l / q_ij.u as row-major SoA:
// one cache-line-aligned padded row per candidate, with the row stride
// computed once at Reset() rather than re-derived per access. The bound
// recomputation (Eq. 4) runs as one batched pass over those rows.
#ifndef PVERIFY_CORE_VERIFIER_H_
#define PVERIFY_CORE_VERIFIER_H_

#include "common/aligned.h"
#include "core/candidate.h"
#include "core/stats.h"
#include "core/subregion.h"
#include "core/types.h"

namespace pverify {

/// Mutable state threaded through the verifier chain and into refinement.
struct VerificationContext {
  /// An empty context; Reset() must run before any verifier touches it.
  /// Default-constructible so a QueryScratch can hold one across queries.
  VerificationContext() = default;

  VerificationContext(CandidateSet* cands, const SubregionTable* tbl) {
    Reset(cands, tbl);
  }

  /// Re-targets the context at a (new) candidate set and subregion table,
  /// reinitializing the n×M bound arrays. assign() reuses the vectors'
  /// capacity, so a context reset across queries stops allocating once the
  /// buffers reach the workload's high-water mark.
  void Reset(CandidateSet* cands, const SubregionTable* tbl) {
    candidates = cands;
    table = tbl;
    const size_t n = tbl->num_candidates();
    const size_t m = tbl->num_subregions();
    stride_ = PadStride<double>(m);
    qlow.assign(n * stride_, 0.0);
    qup.assign(n * stride_, 1.0);
    // The rightmost subregion carries zero qualification probability
    // (paper: "the probability of any object in S_M must be zero").
    for (size_t i = 0; i < n; ++i) qup[i * stride_ + (m - 1)] = 0.0;
  }

  double& QLow(size_t i, size_t j) { return qlow[i * stride_ + j]; }
  double& QUp(size_t i, size_t j) { return qup[i * stride_ + j]; }
  double QLow(size_t i, size_t j) const { return qlow[i * stride_ + j]; }
  double QUp(size_t i, size_t j) const { return qup[i * stride_ + j]; }

  /// Candidate i's contiguous per-subregion bound rows (padded; see
  /// common/aligned.h). The verifier passes' unit-stride access path.
  double* QLowRow(size_t i) { return qlow.data() + i * stride_; }
  double* QUpRow(size_t i) { return qup.data() + i * stride_; }
  const double* QLowRow(size_t i) const { return qlow.data() + i * stride_; }
  const double* QUpRow(size_t i) const { return qup.data() + i * stride_; }

  /// Padded length of each q-bound row.
  size_t stride() const { return stride_; }

  /// Recomputes candidate i's probability bound from the per-subregion
  /// bounds (Eq. 4 and its upper-bound analogue) and tightens it.
  void RefreshBound(size_t i);

  /// Batched RefreshBound over every still-unknown candidate. The verifier
  /// passes update all rows first and refresh once, which keeps the Eq. 4
  /// reduction streaming over contiguous SoA rows instead of interleaving
  /// with the (branchy) per-subregion tightening.
  void RefreshAllBounds();

  CandidateSet* candidates = nullptr;     // not owned
  const SubregionTable* table = nullptr;  // not owned
  AlignedVector<double> qlow;  // n rows × stride(): q_ij.l, logical width M
  AlignedVector<double> qup;   // n rows × stride(): q_ij.u, logical width M

 private:
  size_t stride_ = 0;
};

/// Base class for the probabilistic verifiers of §IV. Verifiers are
/// stateless: every bound they tighten lives in the context.
class Verifier {
 public:
  virtual ~Verifier() = default;

  virtual StageId id() const = 0;

  /// Tightens bounds of candidates labeled kUnknown.
  virtual void Apply(VerificationContext& ctx) = 0;
};

/// The Rightmost-Subregion verifier (§IV-B, Lemma 1): p_i.u <= 1 − s_iM.
/// Cost O(|C|).
class RsVerifier : public Verifier {
 public:
  StageId id() const override { return StageId::kRS; }
  void Apply(VerificationContext& ctx) override;
};

/// The Lower-Subregion verifier (§IV-C, Lemma 2 + Eq. 4): per-subregion
/// lower bounds q_ij.l = (1/c_j)·Π_{k≠i}(1 − D_k(e_j)). Cost O(|C|·M).
class LsrVerifier : public Verifier {
 public:
  StageId id() const override { return StageId::kLSR; }
  void Apply(VerificationContext& ctx) override;
};

/// The Upper-Subregion verifier (§IV-C, Eq. 5/11 + Appendix I): per-
/// subregion upper bounds q_ij.u = ½(Pr(F) + Pr(E)). Cost O(|C|·M).
class UsrVerifier : public Verifier {
 public:
  StageId id() const override { return StageId::kUSR; }
  void Apply(VerificationContext& ctx) override;
};

/// The paper's default chain {RS, L-SR, U-SR}, ordered by running cost:
/// one static instance of each verifier, shared by every query.
extern Verifier* const kDefaultVerifierChain[kNumStages];

}  // namespace pverify

#endif  // PVERIFY_CORE_VERIFIER_H_
