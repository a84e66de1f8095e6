// Batch-level statistics shared by every Engine implementation.
//
// EngineStats aggregates the per-query QueryStats of one batch (phase
// totals, verifier stage totals, derived rates); MergeEngineStats folds
// per-part aggregates — e.g. one EngineStats per shard — into one.
// SubmitQueueStats counts Engine::Submit calls.
#ifndef PVERIFY_ENGINE_ENGINE_STATS_H_
#define PVERIFY_ENGINE_ENGINE_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/stats.h"

namespace pverify {

/// Telemetry of a CachingEngine's memoization tier. Counters describe an
/// interval (a batch delta or the cache's lifetime); entries/bytes are
/// point-in-time gauges of the cache contents.
struct CacheStats {
  size_t hits = 0;       ///< requests served straight from the cache
  size_t misses = 0;     ///< no entry for the request's key
  size_t rechecks = 0;   ///< entry found under a colliding key — the
                         ///< backend recomputed and the entry was refreshed
  size_t bypasses = 0;   ///< uncacheable requests (consumed candidate-set
                         ///< payloads, capacity 0) passed straight through
  size_t evictions = 0;  ///< entries dropped by the LRU policy
  size_t entries = 0;    ///< gauge: results currently cached
  size_t bytes = 0;      ///< gauge: approximate heap held by them

  /// Fraction of cacheable lookups served from the cache.
  double HitRate() const {
    const size_t lookups = hits + misses + rechecks;
    return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  }
};

/// Aggregate outcome of one ExecuteBatch call.
struct EngineStats {
  size_t queries = 0;
  size_t threads = 0;
  double wall_ms = 0.0;  ///< end-to-end batch wall time
  /// Per-phase totals accumulated over every query (QueryStats semantics).
  QueryStats totals;

  /// Verifier stage time/run totals aggregated by stage name, in chain
  /// order of first appearance (reproduces the paper's Fig. 12 fractions
  /// at engine level).
  struct StageTotal {
    std::string name;
    double ms = 0.0;
    size_t runs = 0;
  };
  std::vector<StageTotal> verifier_stages;

  /// Cache telemetry of the batch: zero unless a CachingEngine served it.
  /// AccumulateBatchResult counts hits from each result's served_from_cache
  /// flag; CachingEngine::ExecuteBatch overwrites the whole struct with its
  /// exact per-batch counter deltas plus the entries/bytes gauges.
  CacheStats cache;

  double QueriesPerSec() const {
    return wall_ms > 0.0 ? 1000.0 * static_cast<double>(queries) / wall_ms
                         : 0.0;
  }
  double AvgQueryMs() const {
    return queries > 0 ? totals.total_ms / static_cast<double>(queries) : 0.0;
  }
  /// Fraction of summed per-query time spent in a phase (filter / init /
  /// verify / refine).
  double PhaseFraction(double QueryStats::*phase) const {
    return totals.total_ms > 0.0 ? totals.*phase / totals.total_ms : 0.0;
  }
};

/// Folds one query's stats into an aggregate's verifier stage totals
/// (matching stages by name, appending in order of first appearance).
void AccumulateVerifierStages(const QueryStats& stats, EngineStats* agg);

/// Folds one query's outcome (phase totals + verifier stages + query count)
/// into a batch aggregate. wall_ms/threads are left to the caller.
void AccumulateBatchResult(const QueryStats& stats, EngineStats* agg);

/// Merges per-part aggregates (e.g. one EngineStats per shard) into one:
/// queries, phase totals, verifier stage totals and cache counters sum
/// exactly (stages matched by name, ordered by first appearance across
/// parts); threads, wall_ms and the cache entries/bytes gauges take the
/// max, since parts run concurrently (per-batch gauges from one cache are
/// snapshots of the same contents, not disjoint shares). Merging an empty
/// vector yields a zero aggregate whose derived rates are all finite.
EngineStats MergeEngineStats(const std::vector<EngineStats>& parts);

/// Telemetry of Engine::Submit. Submit posts each request to the pool on
/// its own, so `batches` equals `requests` and `max_coalesced` is 1 once
/// anything was submitted; those two fields remain only because the
/// pvbench benchmark still reads them.
struct SubmitQueueStats {
  size_t requests = 0;       ///< total Submit calls
  size_t batches = 0;        ///< always == requests
  size_t max_coalesced = 0;  ///< 1 after the first Submit, else 0
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_ENGINE_STATS_H_
