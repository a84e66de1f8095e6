// The memoizing verification tier behind the Engine interface.
//
// A CachingEngine is a decorator over any backend Engine — the unsharded
// QueryEngine or the scatter/gather ShardedQueryEngine — that remembers
// verification results and serves repeated queries from a sharded LRU
// instead of re-running the filter/verify/refine pipeline. The motivating
// workloads (LBS tracking, sensor monitoring) have heavily clustered query
// points — popular places, repeated patrols — so under Zipf-skewed traffic
// the common case becomes a lookup.
//
// Exactness contract — answers are BIT-IDENTICAL to the wrapped backend:
//
//  * Results are indexed by a coarse key (query kind, quantized query
//    point, bucketed threshold, k) but each entry also stores the EXACT
//    request fingerprint: the raw query-point bits and every
//    answer-affecting option (threshold, tolerance, strategy, refinement
//    order, integration and Monte-Carlo settings, report_probabilities).
//    A hit is served only when the incoming request's fingerprint matches
//    the entry's bit for bit; a same-cell request with a different exact
//    point or any differing option falls through to an exact recheck on
//    the backend (counted in CacheStats::rechecks) and refreshes the
//    entry. Quantization therefore never changes an answer — it only
//    bounds cache cardinality: all queries inside one cell share a slot,
//    so a hot cluster cannot grow the cache without bound.
//  * Guard band: an entry whose cached probability bound lies within
//    CachingEngineOptions::guard_band of its decision threshold is marked
//    borderline at insertion and always rechecks on the backend instead of
//    hitting — a belt-and-suspenders knob for callers who want near-the-
//    threshold answers recomputed every time (default 0: exact-fingerprint
//    matching alone already guarantees bit-identical results).
//  * CandidatesQuery requests carry a consumed-on-execute payload and pass
//    straight through (CacheStats::bypasses), as does everything when
//    capacity == 0 — a capacity-0 CachingEngine is a pure pass-through.
//  * BumpEpoch() invalidates the whole cache wholesale — the hook for
//    dataset updates (streaming ingest will call it per batch); in-flight
//    results computed under the old epoch are discarded, not inserted.
//
// Concurrency: the LRU is striped over CachingEngineOptions::num_shards
// shards, each guarded by its own mutex, so concurrent Execute/Submit
// streams from work-stealing pool workers contend only per shard. The
// Engine contract is preserved: ExecuteBatch from one thread at a time,
// Execute and Submit from anywhere (an internal SubmitQueue coalesces
// submissions exactly like the wrapped engines' own queues, so cached
// hits resolve without waking the backend pool).
#ifndef PVERIFY_ENGINE_CACHING_ENGINE_H_
#define PVERIFY_ENGINE_CACHING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"

namespace pverify {

class SubmitQueue;

struct CachingEngineOptions {
  /// Total cached results across all cache shards; 0 disables caching
  /// entirely (every request bypasses to the backend).
  size_t capacity = 4096;
  /// Mutex-striped cache shards (clamped to [1, capacity]). More shards
  /// mean less contention between concurrent submit streams.
  size_t num_shards = 8;
  /// Query-point quantization cell. Queries whose points fall in the same
  /// cell share one cache slot (the latest exact point owns it); 0 keys on
  /// the exact point bits, so distinct points never collide.
  double point_quantum = 0.0;
  /// Threshold bucketing width for the coarse key; 0 keys on exact bits.
  /// Like point_quantum this only bounds cache cardinality — serving still
  /// requires an exact threshold match.
  double threshold_quantum = 0.0;
  /// An entry whose cached probability bound lies within this distance of
  /// its decision threshold is marked borderline and always rechecks on
  /// the backend instead of serving the memoized copy.
  double guard_band = 0.0;
};

/// Memoizing decorator over any Engine backend. See the header comment for
/// the exactness and concurrency contracts.
class CachingEngine : public Engine {
 public:
  /// Decorates `backend`, which must outlive this engine.
  explicit CachingEngine(Engine& backend, CachingEngineOptions options = {});
  /// Owning variant: the backend is destroyed with the cache tier.
  explicit CachingEngine(std::unique_ptr<Engine> backend,
                         CachingEngineOptions options = {});
  ~CachingEngine() override;

  Engine& backend() { return backend_; }
  const CachingEngineOptions& options() const { return options_; }

  size_t num_threads() const override { return backend_.num_threads(); }

  /// Executes one request: served from the cache when an exact-fingerprint,
  /// non-borderline entry exists, recomputed on the backend (and memoized)
  /// otherwise. Answers match the backend bit for bit either way.
  QueryResult Execute(QueryRequest request) override;

  /// Executes a batch: hits are answered from the cache, the misses are
  /// forwarded to the backend as ONE sub-batch (keeping its pool fan-out),
  /// and results come back in request order. `stats` additionally carries
  /// this batch's exact CacheStats delta in EngineStats::cache.
  std::vector<QueryResult> ExecuteBatch(std::vector<QueryRequest> requests,
                                        EngineStats* stats = nullptr) override;

  /// Non-blocking submission with coalescing; cached requests in a
  /// coalesced batch resolve without re-running the backend pipeline.
  std::future<QueryResult> Submit(QueryRequest request) override;
  SubmitQueueStats SubmitStats() const override;
  size_t ScratchQueriesServed() const override;
  size_t ScratchBytes() const override;

  /// Dataset-epoch hook: advances the epoch and drops every cached result.
  /// Call after any dataset mutation; in-flight queries keyed under the old
  /// epoch recheck instead of hitting and are not re-inserted.
  void BumpEpoch();
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Lifetime cache telemetry (counters since construction plus the
  /// current entries/bytes gauges).
  CacheStats GetCacheStats() const;

 private:
  /// Exact request fingerprint — every answer-affecting input, compared
  /// bit for bit before an entry may serve.
  struct Fingerprint {
    QueryKind kind = QueryKind::kPoint;
    uint64_t qx_bits = 0;  ///< raw bits of the query point (0 for min/max)
    uint64_t qy_bits = 0;  ///< raw bits of the y coordinate (2-D kinds)
    int k = 0;             ///< k-NN arity (0 otherwise)
    uint64_t threshold_bits = 0;
    uint64_t tolerance_bits = 0;
    int strategy = 0;
    int refine_order = 0;
    int gauss_points = 0;
    int splits_per_subregion = 0;
    int mc_samples = 0;
    uint64_t mc_seed = 0;
    bool report_probabilities = false;

    bool operator==(const Fingerprint& other) const;
  };

  /// Key + fingerprint of one cacheable request, built before the request
  /// is moved into the backend.
  struct CacheQuery {
    uint64_t key = 0;  ///< hash of the quantized/bucketed coarse key
    Fingerprint fp;
    uint64_t epoch = 0;  ///< epoch snapshot at lookup time
  };

  struct Entry {
    uint64_t key = 0;
    Fingerprint fp;
    uint64_t epoch = 0;
    bool borderline = false;  ///< a bound sits inside the guard band
    size_t bytes = 0;         ///< approximate heap held by `result`
    QueryResult result;
  };

  struct CacheShard {
    std::mutex mu;
    /// Front = most recently used. The index maps the coarse key to the
    /// list node; key collisions are resolved by the fingerprint check at
    /// hit time (a colliding entry rechecks and is overwritten).
    std::list<Entry> lru;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
    size_t bytes = 0;
  };

  /// Builds the coarse key + exact fingerprint. False when the request is
  /// uncacheable (CandidatesQuery, or capacity 0).
  bool BuildCacheQuery(const QueryRequest& request, CacheQuery* out) const;
  CacheShard& ShardFor(uint64_t key) {
    return *shards_[key % shards_.size()];
  }
  /// Returns the memoized result on an exact, current-epoch, non-borderline
  /// hit; nullopt otherwise (with hit/miss/recheck counters updated).
  std::optional<QueryResult> Lookup(const CacheQuery& cq);
  /// Memoizes `result` under `cq`, evicting LRU entries over capacity.
  /// Skipped when the epoch moved since the lookup.
  void Insert(const CacheQuery& cq, const QueryResult& result);

  /// Shared serving core of ExecuteBatch and the submit-queue drain.
  /// Requires batch_mu_. Appends served results to `results` in request
  /// order; `backend_stats` (optional) receives the miss sub-batch's
  /// aggregate from the backend.
  void ServeBatch(std::vector<QueryRequest>&& requests,
                  std::vector<QueryResult>& results,
                  EngineStats* backend_stats);
  void RunSubmitted(std::vector<PendingQuery>& batch);
  SubmitQueue* EnsureSubmitQueue();
  /// Snapshot of the monotone counters (for per-batch deltas).
  CacheStats CounterSnapshot() const;

  std::unique_ptr<Engine> owned_;  ///< engaged for the owning constructor
  Engine& backend_;
  CachingEngineOptions options_;
  size_t shard_capacity_ = 0;  ///< per-shard entry cap

  std::vector<std::unique_ptr<CacheShard>> shards_;
  std::atomic<uint64_t> epoch_{0};

  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  std::atomic<size_t> rechecks_{0};
  std::atomic<size_t> bypasses_{0};
  std::atomic<size_t> evictions_{0};
  std::atomic<size_t> invalidations_{0};

  /// Serializes this tier's ExecuteBatch (mirroring the wrapped engines),
  /// so the backend's one-batch-at-a-time contract holds no matter how
  /// callers interleave. The submit drain never takes it: coalesced misses
  /// are re-submitted to the backend's own queue, which is safe against
  /// everything.
  mutable std::mutex batch_mu_;
  std::once_flag submit_once_;
  std::atomic<SubmitQueue*> submit_queue_ptr_{nullptr};
  std::unique_ptr<SubmitQueue> submit_queue_;  ///< last: drains first
};

/// Factory: wraps an owned backend in a caching tier.
std::unique_ptr<CachingEngine> MakeCachingEngine(
    std::unique_ptr<Engine> backend, CachingEngineOptions options = {});

}  // namespace pverify

#endif  // PVERIFY_ENGINE_CACHING_ENGINE_H_
