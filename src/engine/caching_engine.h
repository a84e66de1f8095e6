// The memoizing verification tier behind the Engine interface.
//
// A CachingEngine is a decorator over any backend Engine — a QueryEngine
// with any number of shards — that remembers
// verification results and serves repeated queries from a sharded LRU
// instead of re-running the filter/verify/refine pipeline. The motivating
// workloads (LBS tracking, sensor monitoring) have heavily clustered query
// points — popular places, repeated patrols — so under Zipf-skewed traffic
// the common case becomes a lookup.
//
// Exactness contract — answers are BIT-IDENTICAL to the wrapped backend:
//
//  * Results are keyed by the EXACT request fingerprint: the query kind,
//    the raw query-point bits, k, and every answer-affecting option
//    (threshold, tolerance, strategy, refinement order, integration and
//    Monte-Carlo settings, report_probabilities). The index holds a 64-bit
//    FNV-1a hash of it; each entry also stores the fingerprint itself, and
//    a hit is served only when the incoming request matches it bit for
//    bit. A hash collision falls through to an exact recheck on the
//    backend (counted in CacheStats::rechecks) and refreshes the entry.
//  * CandidatesQuery requests carry a consumed-on-execute payload and pass
//    straight through (CacheStats::bypasses), as does everything when
//    capacity == 0 — a capacity-0 CachingEngine is a pure pass-through.
//  * No engine mutates its dataset, so entries are never invalidated; a
//    future ingest path has to add its own invalidation.
//
// Concurrency: the LRU is striped over kCacheShards shards, each guarded
// by its own mutex, so concurrent Execute/Submit streams from
// work-stealing pool workers contend only per shard. The Engine contract
// is preserved: ExecuteBatch from one thread at a time, Execute and Submit
// from anywhere. SubmitThen answers a hit inline on the caller's thread
// and forwards a miss through the backend's SubmitThen, memoizing the
// result in the completion callback — no thread ever waits on a backend
// future, so a slow miss never delays a hit behind it.
#ifndef PVERIFY_ENGINE_CACHING_ENGINE_H_
#define PVERIFY_ENGINE_CACHING_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"

namespace pverify {

struct CachingEngineOptions {
  /// Total cached results across all cache shards; 0 disables caching
  /// entirely (every request bypasses to the backend).
  size_t capacity = 4096;
};

/// Mutex-striped cache shards (clamped to [1, capacity]), so concurrent
/// submit streams contend only per shard.
inline constexpr size_t kCacheShards = 8;

/// Memoizing decorator over any Engine backend. See the header comment for
/// the exactness and concurrency contracts.
class CachingEngine : public Engine {
 public:
  /// Decorates `backend`, which must outlive this engine.
  explicit CachingEngine(Engine& backend, CachingEngineOptions options = {});
  /// Owning variant: the backend is destroyed with the cache tier.
  explicit CachingEngine(std::unique_ptr<Engine> backend,
                         CachingEngineOptions options = {});
  /// Waits for every forwarded miss to call back before tearing down.
  ~CachingEngine() override;

  Engine& backend() { return backend_; }
  const CachingEngineOptions& options() const { return options_; }

  size_t num_threads() const override { return backend_.num_threads(); }
  size_t IdleWorkers() const override { return backend_.IdleWorkers(); }

  /// Executes one request: served from the cache when an exact-fingerprint
  /// entry exists, recomputed on the backend (and memoized) otherwise.
  /// Answers match the backend bit for bit either way.
  QueryResult Execute(QueryRequest request) override;

  /// Executes a batch: hits are answered from the cache, the misses are
  /// forwarded to the backend as ONE sub-batch (keeping its pool fan-out),
  /// and results come back in request order. `stats` additionally carries
  /// this batch's exact CacheStats delta in EngineStats::cache.
  std::vector<QueryResult> ExecuteBatch(std::vector<QueryRequest> requests,
                                        EngineStats* stats = nullptr) override;

  /// A hit calls `done` before returning; a miss completes on the
  /// backend's worker once the backend answers (and is memoized first).
  void SubmitThen(QueryRequest request, QueryCallback done) override;
  size_t ScratchQueriesServed() const override;
  size_t ScratchBytes() const override;

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
    int mc_samples = 0;
    uint64_t mc_seed = 0;
    bool report_probabilities = false;

    bool operator==(const Fingerprint& other) const;
  };

  /// Key + fingerprint of one cacheable request, built before the request
  /// is moved into the backend.
  struct CacheQuery {
    uint64_t key = 0;  ///< FNV-1a hash of `fp`
    Fingerprint fp;
  };

  struct Entry {
    uint64_t key = 0;
    Fingerprint fp;
    size_t bytes = 0;  ///< approximate heap held by `result`
    QueryResult result;
  };

  struct CacheShard {
    std::mutex mu;
    /// Front = most recently used. The index maps the key to the list
    /// node; key collisions are resolved by the fingerprint check at hit
    /// time (a colliding entry rechecks and is overwritten).
    std::list<Entry> lru;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
    size_t bytes = 0;
  };

  /// Builds the key + exact fingerprint. False when the request is
  /// uncacheable (CandidatesQuery, or capacity 0).
  bool BuildCacheQuery(const QueryRequest& request, CacheQuery* out) const;
  CacheShard& ShardFor(uint64_t key) {
    return *shards_[key % shards_.size()];
  }
  /// Returns the memoized result on an exact hit; nullopt otherwise (with
  /// hit/miss/recheck counters updated).
  std::optional<QueryResult> Lookup(const CacheQuery& cq);
  /// Memoizes `result` under `cq`, evicting LRU entries over capacity.
  void Insert(const CacheQuery& cq, const QueryResult& result);

  /// Snapshot of the monotone counters (for per-batch deltas).
  CacheStats CounterSnapshot() const;

  std::unique_ptr<Engine> owned_;  ///< engaged for the owning constructor
  Engine& backend_;
  CachingEngineOptions options_;
  size_t shard_capacity_ = 0;  ///< per-shard entry cap

  std::vector<std::unique_ptr<CacheShard>> shards_;

  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  std::atomic<size_t> rechecks_{0};
  std::atomic<size_t> bypasses_{0};
  std::atomic<size_t> evictions_{0};

  /// Misses forwarded by SubmitThen whose callback has not finished; the
  /// destructor waits for zero, since those callbacks touch the shards.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  size_t inflight_ = 0;
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_CACHING_ENGINE_H_
