#include "engine/engine_stats.h"

#include <algorithm>

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

EngineStats MergeEngineStats(const std::vector<EngineStats>& parts) {
  EngineStats merged;
  for (const EngineStats& part : parts) {
    merged.queries += part.queries;
    merged.threads = std::max(merged.threads, part.threads);
    merged.wall_ms = std::max(merged.wall_ms, part.wall_ms);
    part.totals.AccumulateInto(merged.totals);
    for (const EngineStats::StageTotal& stage : part.verifier_stages) {
      EngineStats::StageTotal* slot = StageSlot(stage.name, &merged);
      slot->ms += stage.ms;
      slot->runs += stage.runs;
    }
    merged.cache.hits += part.cache.hits;
    merged.cache.misses += part.cache.misses;
    merged.cache.rechecks += part.cache.rechecks;
    merged.cache.bypasses += part.cache.bypasses;
    merged.cache.evictions += part.cache.evictions;
    merged.cache.entries = std::max(merged.cache.entries, part.cache.entries);
    merged.cache.bytes = std::max(merged.cache.bytes, part.cache.bytes);
  }
  return merged;
}

}  // namespace pverify
