#include "engine/engine_stats.h"

namespace pverify {

namespace {

EngineStats::StageTotal* StageSlot(const std::string& name,
                                   EngineStats* agg) {
  for (EngineStats::StageTotal& t : agg->verifier_stages) {
    if (t.name == name) return &t;
  }
  agg->verifier_stages.push_back(EngineStats::StageTotal{name, 0.0, 0});
  return &agg->verifier_stages.back();
}

}  // namespace

void AccumulateVerifierStages(const QueryStats& stats, EngineStats* agg) {
  for (const StageStats& stage : stats.verification.stages) {
    EngineStats::StageTotal* slot = StageSlot(stage.name, agg);
    slot->ms += stage.ms;
    ++slot->runs;
  }
}

void AccumulateBatchResult(const QueryStats& stats, EngineStats* agg) {
  ++agg->queries;
  stats.AccumulateInto(agg->totals);
  AccumulateVerifierStages(stats, agg);
  if (stats.served_from_cache) ++agg->cache.hits;
}

}  // namespace pverify
