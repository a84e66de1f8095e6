// The verification framework (paper Fig. 5): initialization, the verifier →
// classifier loop with early exit, and per-stage statistics used to
// reproduce Fig. 12. The default chain is static and the stage records a
// fixed StageId-indexed array, so a run on a warm QueryScratch allocates
// nothing.
#ifndef PVERIFY_CORE_FRAMEWORK_H_
#define PVERIFY_CORE_FRAMEWORK_H_

#include <cstddef>
#include <memory>

#include "core/classifier.h"
#include "core/stats.h"
#include "core/subregion.h"
#include "core/verifier.h"

namespace pverify {

struct QueryScratch;

/// Runs the verifier → classifier loop for one query: builds (or, with a
/// QueryScratch, rebuilds in place) the subregion table and verification
/// context, then applies a verifier chain with classification after every
/// stage.
class VerificationFramework {
 public:
  /// Builds the subregion table for the candidate set (initialization step).
  /// The candidate set must stay alive for the framework's lifetime.
  ///
  /// When `scratch` is non-null its table/context buffers are reused in
  /// place (no allocation once warm) and must outlive the framework; when
  /// null the framework owns fresh state, which is the seed's
  /// allocate-per-query behavior.
  VerificationFramework(CandidateSet* candidates, CpnnParams params,
                        QueryScratch* scratch = nullptr);
  ~VerificationFramework();

  /// Runs the `count` verifiers of `chain` in order, classifying after
  /// each; stops as soon as no candidate is unknown. Verifiers are skipped
  /// entirely once all candidates are decided (the paper: "it is not always
  /// necessary for all verifiers to be executed").
  VerificationStats Run(Verifier* const* chain, size_t count);

  /// Runs the paper's default chain {RS, L-SR, U-SR} (kDefaultVerifierChain).
  VerificationStats RunDefault();

  /// Candidates still unknown after the last Run.
  size_t unknown() const { return unknown_; }

  /// Time the constructor spent building the subregion table and context.
  double init_ms() const { return init_ms_; }

  VerificationContext& context() { return *ctx_; }
  const SubregionTable& table() const { return *table_; }

 private:
  CandidateSet* candidates_;  // not owned
  CpnnParams params_;
  /// Fallback state, allocated only when no scratch was supplied.
  std::unique_ptr<QueryScratch> owned_scratch_;
  SubregionTable* table_ = nullptr;        // into the scratch
  VerificationContext* ctx_ = nullptr;     // into the scratch
  double init_ms_ = 0.0;
  size_t unknown_ = 0;
};

}  // namespace pverify

#endif  // PVERIFY_CORE_FRAMEWORK_H_
