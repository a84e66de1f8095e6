#include "core/framework.h"

#include "common/check.h"
#include "common/timer.h"
#include "core/scratch.h"

namespace pverify {

VerificationFramework::VerificationFramework(CandidateSet* candidates,
                                             CpnnParams params,
                                             QueryScratch* scratch)
    : candidates_(candidates), params_(params) {
  PV_CHECK_MSG(candidates_ != nullptr && !candidates_->empty(),
               "verification needs a non-empty candidate set");
  params_.Validate();
  if (scratch == nullptr) {
    owned_scratch_ = std::make_unique<QueryScratch>();
    scratch = owned_scratch_.get();
  }
  Timer timer;
  SubregionTable::BuildInto(*candidates_, &scratch->table);
  scratch->context.Reset(candidates_, &scratch->table);
  table_ = &scratch->table;
  ctx_ = &scratch->context;
  ++scratch->queries_served;
  init_ms_ = timer.ElapsedMs();
}

VerificationFramework::~VerificationFramework() = default;

VerificationStats VerificationFramework::Run(Verifier* const* chain,
                                             size_t count) {
  VerificationStats stats;
  unknown_ = ClassifyAll(*candidates_, params_);
  for (size_t s = 0; s < count && unknown_ > 0; ++s) {
    Timer timer;
    chain[s]->Apply(*ctx_);
    unknown_ = ClassifyAll(*candidates_, params_);
    StageStats& stage = stats[chain[s]->id()];
    stage.ms += timer.ElapsedMs();
    stage.unknown_after = unknown_;
    stage.ran = true;
  }
  return stats;
}

VerificationStats VerificationFramework::RunDefault() {
  return Run(kDefaultVerifierChain, kNumStages);
}

}  // namespace pverify
