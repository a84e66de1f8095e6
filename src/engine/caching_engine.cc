#include "engine/caching_engine.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <variant>

#include "common/check.h"
#include "common/timer.h"

namespace pverify {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// FNV-1a over a word sequence — the key hash. Collisions are safe: the
/// exact fingerprint check at hit time turns them into rechecks.
uint64_t HashWords(const uint64_t* words, size_t count) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < count; ++i) {
    for (int b = 0; b < 8; ++b) {
      h ^= (words[i] >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

size_t ApproxResultBytes(const QueryResult& result) {
  size_t bytes = sizeof(QueryResult);
  bytes += result.ids.capacity() * sizeof(ObjectId);
  bytes += result.candidate_probabilities.capacity() * sizeof(AnswerEntry);
  if (result.knn.has_value()) {
    bytes += result.knn->ids.capacity() * sizeof(ObjectId);
    bytes += result.knn->bounds.capacity() * sizeof(ProbabilityBound);
  }
  return bytes;
}

Engine& DerefBackend(const std::unique_ptr<Engine>& backend) {
  PV_CHECK_MSG(backend != nullptr, "CachingEngine backend must not be null");
  return *backend;
}

}  // namespace

bool CachingEngine::Fingerprint::operator==(const Fingerprint& other) const {
  return kind == other.kind && qx_bits == other.qx_bits &&
         qy_bits == other.qy_bits && k == other.k &&
         threshold_bits == other.threshold_bits &&
         tolerance_bits == other.tolerance_bits &&
         strategy == other.strategy && refine_order == other.refine_order &&
         gauss_points == other.gauss_points &&
         mc_samples == other.mc_samples && mc_seed == other.mc_seed &&
         report_probabilities == other.report_probabilities;
}

CachingEngine::CachingEngine(Engine& backend, CachingEngineOptions options)
    : backend_(backend), options_(options) {
  const size_t shards =
      std::max<size_t>(1, std::min(kCacheShards, options_.capacity));
  // ceil(capacity / shards), without the overflow of capacity + shards - 1.
  shard_capacity_ =
      options_.capacity / shards + (options_.capacity % shards != 0);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<CacheShard>());
  }
}

CachingEngine::CachingEngine(std::unique_ptr<Engine> backend,
                             CachingEngineOptions options)
    : CachingEngine(DerefBackend(backend), options) {
  owned_ = std::move(backend);
}

CachingEngine::~CachingEngine() {
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

bool CachingEngine::BuildCacheQuery(const QueryRequest& request,
                                    CacheQuery* out) const {
  if (options_.capacity == 0) return false;
  Fingerprint& fp = out->fp;
  fp.kind = request.kind();
  switch (fp.kind) {
    case QueryKind::kPoint:
      fp.qx_bits = DoubleBits(std::get<PointQuery>(request.query).q);
      break;
    case QueryKind::kMin:
    case QueryKind::kMax:
      break;  // no query point: the kind alone anchors the key
    case QueryKind::kKnn: {
      const KnnQuery& q = std::get<KnnQuery>(request.query);
      fp.qx_bits = DoubleBits(q.q);
      fp.k = q.k;
      break;
    }
    case QueryKind::kPoint2D: {
      const Point2DQuery& q = std::get<Point2DQuery>(request.query);
      fp.qx_bits = DoubleBits(q.q.x);
      fp.qy_bits = DoubleBits(q.q.y);
      break;
    }
    case QueryKind::kKnn2D: {
      const Knn2DQuery& q = std::get<Knn2DQuery>(request.query);
      fp.qx_bits = DoubleBits(q.q.x);
      fp.qy_bits = DoubleBits(q.q.y);
      fp.k = q.k;
      break;
    }
    case QueryKind::kCandidates:
      // The payload is consumed on execution and cannot key a memo.
      return false;
  }

  const QueryOptions& opt = request.options();
  fp.threshold_bits = DoubleBits(opt.params.threshold);
  fp.tolerance_bits = DoubleBits(opt.params.tolerance);
  fp.strategy = static_cast<int>(opt.strategy);
  fp.refine_order = static_cast<int>(opt.refine_order);
  fp.gauss_points = opt.integration.gauss_points;
  fp.mc_samples = opt.monte_carlo.samples;
  fp.mc_seed = opt.monte_carlo.seed;
  fp.report_probabilities = opt.report_probabilities;

  const uint64_t words[] = {
      static_cast<uint64_t>(fp.kind),
      fp.qx_bits,
      fp.qy_bits,
      static_cast<uint64_t>(fp.k),
      fp.threshold_bits,
      fp.tolerance_bits,
      static_cast<uint64_t>(fp.strategy),
      static_cast<uint64_t>(fp.refine_order),
      static_cast<uint64_t>(fp.gauss_points),
      static_cast<uint64_t>(fp.mc_samples),
      fp.mc_seed,
      static_cast<uint64_t>(fp.report_probabilities),
  };
  out->key = HashWords(words, sizeof(words) / sizeof(words[0]));
  return true;
}

std::optional<QueryResult> CachingEngine::Lookup(const CacheQuery& cq) {
  CacheShard& shard = ShardFor(cq.key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(cq.key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Entry& entry = *it->second;
  if (!(entry.fp == cq.fp)) {
    // A key collision: recompute exactly on the backend (the fresh result
    // refreshes the entry via Insert).
    rechecks_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // touch
  QueryResult copy = entry.result;
  copy.stats.served_from_cache = true;
  return copy;
}

void CachingEngine::Insert(const CacheQuery& cq, const QueryResult& result) {
  Entry entry;
  entry.key = cq.key;
  entry.fp = cq.fp;
  entry.result = result;
  entry.result.stats.served_from_cache = false;
  entry.bytes = sizeof(Entry) + ApproxResultBytes(entry.result);

  CacheShard& shard = ShardFor(cq.key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(cq.key);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  while (shard.lru.size() >= shard_capacity_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.bytes += entry.bytes;
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(cq.key, shard.lru.begin());
}

QueryResult CachingEngine::Execute(QueryRequest request) {
  Validate(request);
  CacheQuery cq;
  if (!BuildCacheQuery(request, &cq)) {
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    return backend_.Execute(std::move(request));
  }
  if (std::optional<QueryResult> cached = Lookup(cq)) {
    return std::move(*cached);
  }
  QueryResult result = backend_.Execute(std::move(request));
  Insert(cq, result);
  return result;
}

std::vector<QueryResult> CachingEngine::ExecuteBatch(
    std::vector<QueryRequest> requests, EngineStats* stats) {
  for (const QueryRequest& request : requests) Validate(request);
  const CacheStats before = CounterSnapshot();
  Timer wall;
  std::vector<QueryResult> results(requests.size());
  std::vector<size_t> miss_index;
  std::vector<CacheQuery> miss_query;
  std::vector<bool> miss_cacheable;
  std::vector<QueryRequest> miss_requests;
  for (size_t i = 0; i < requests.size(); ++i) {
    CacheQuery cq;
    const bool cacheable = BuildCacheQuery(requests[i], &cq);
    if (!cacheable) bypasses_.fetch_add(1, std::memory_order_relaxed);
    if (cacheable) {
      if (std::optional<QueryResult> cached = Lookup(cq)) {
        results[i] = std::move(*cached);
        continue;
      }
    }
    miss_index.push_back(i);
    miss_query.push_back(cq);
    miss_cacheable.push_back(cacheable);
    miss_requests.push_back(std::move(requests[i]));
  }
  std::vector<QueryResult> computed =
      backend_.ExecuteBatch(std::move(miss_requests));
  for (size_t m = 0; m < miss_index.size(); ++m) {
    if (miss_cacheable[m]) Insert(miss_query[m], computed[m]);
    results[miss_index[m]] = std::move(computed[m]);
  }
  if (stats != nullptr) {
    *stats = EngineStats{};
    stats->threads = backend_.num_threads();
    stats->wall_ms = wall.ElapsedMs();
    for (const QueryResult& r : results) {
      AccumulateBatchResult(r.stats, stats);
    }
    // Replace the flag-derived hit count with the exact per-batch delta
    // (identical for hits; the delta additionally carries misses, rechecks,
    // bypasses and evictions) plus the current gauges.
    const CacheStats after = GetCacheStats();
    stats->cache.hits = after.hits - before.hits;
    stats->cache.misses = after.misses - before.misses;
    stats->cache.rechecks = after.rechecks - before.rechecks;
    stats->cache.bypasses = after.bypasses - before.bypasses;
    stats->cache.evictions = after.evictions - before.evictions;
    stats->cache.entries = after.entries;
    stats->cache.bytes = after.bytes;
  }
  return results;
}

void CachingEngine::SubmitThen(QueryRequest request, QueryCallback done) {
  if (!Admit(request, done)) return;
  CacheQuery cq;
  if (!BuildCacheQuery(request, &cq)) {
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    backend_.SubmitThen(std::move(request), std::move(done));
    return;
  }
  if (std::optional<QueryResult> cached = Lookup(cq)) {
    done(std::move(*cached), nullptr);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++inflight_;
  }
  backend_.SubmitThen(
      std::move(request),
      [this, cq, done = std::move(done)](QueryResult result,
                                         std::exception_ptr error) {
        if (!error) Insert(cq, result);
        done(std::move(result), error);
        std::lock_guard<std::mutex> lock(inflight_mu_);
        if (--inflight_ == 0) inflight_cv_.notify_all();
      });
}

size_t CachingEngine::ScratchQueriesServed() const {
  return backend_.ScratchQueriesServed();
}

size_t CachingEngine::ScratchBytes() const { return backend_.ScratchBytes(); }

CacheStats CachingEngine::CounterSnapshot() const {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.rechecks = rechecks_.load(std::memory_order_relaxed);
  stats.bypasses = bypasses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  return stats;
}

CacheStats CachingEngine::GetCacheStats() const {
  CacheStats stats = CounterSnapshot();
  for (const std::unique_ptr<CacheShard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

}  // namespace pverify
