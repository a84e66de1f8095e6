#include "engine/engine_stats.h"

namespace pverify {

void AccumulateBatchResult(const QueryStats& stats, EngineStats* agg) {
  ++agg->queries;
  stats.AccumulateInto(agg->totals);
  for (size_t s = 0; s < kNumStages; ++s) {
    const StageStats& stage = stats.verification.stages[s];
    if (!stage.ran) continue;
    agg->verifier_stages[s].ms += stage.ms;
    ++agg->verifier_stages[s].runs;
  }
  if (stats.served_from_cache) ++agg->cache.hits;
}

}  // namespace pverify
