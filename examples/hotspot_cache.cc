// Hot-spot caching scenario: a location-based service answers "which
// object is most likely nearest?" for a stream of user queries that keeps
// probing the same few places — a stadium gate, a transit hub, a mall
// entrance. Re-running the full filter/verify/refine pipeline for every
// repeat wastes the work the engine already did, so the service stacks a
// CachingEngine on top: repeated queries become memoized lookups, while the
// exactness contract (exact-fingerprint matching, see caching_engine.h)
// keeps every served answer bit-identical to a fresh computation.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "engine/caching_engine.h"
#include "engine/query_engine.h"

using namespace pverify;

int main() {
  // 20,000 uncertain objects on a 1-D road network (Long-Beach-like).
  Dataset objects = datagen::MakeUniformScatter(20000, 5000.0, 2.0,
                                                /*seed=*/7);

  // The query log: 2,000 queries over just 12 hot spots — the classic
  // Zipf-skewed access pattern. MakeQueryPointsZipf scatters every sample,
  // so for an exact-match cache we sample the hot spots themselves.
  const std::vector<double> hotspots =
      datagen::MakeQueryPoints(12, 0.0, 5000.0, /*seed=*/19);
  std::vector<double> query_log;
  for (size_t i = 0; i < 2000; ++i) {
    // Rank-skewed repetition: spot 0 gets ~1/2 of the traffic, spot 1 ~1/4…
    size_t rank = 0;
    for (size_t bits = i; (bits & 1u) == 1u && rank + 1 < hotspots.size();
         bits >>= 1) {
      ++rank;
    }
    query_log.push_back(hotspots[rank]);
  }

  QueryOptions opt;
  opt.params = {0.3, 0.01};  // P = 0.3, Δ = 0.01
  opt.strategy = Strategy::kVR;

  // The backend does the real work; the caching tier memoizes it.
  QueryEngine backend(objects, EngineOptions{4});
  CachingEngineOptions copt;
  copt.capacity = 1024;
  CachingEngine engine(backend, copt);

  // The service drains the log in waves (one batch per tick). The first
  // wave computes everything; later waves find their hot spots memoized.
  // (Within ONE batch all lookups happen before any insert, so repeats
  // only start hitting from the next wave on.)
  const size_t wave_size = 200;
  size_t served_from_cache = 0;
  for (size_t start = 0; start < query_log.size(); start += wave_size) {
    std::vector<QueryRequest> batch;
    for (size_t i = start; i < std::min(start + wave_size, query_log.size());
         ++i) {
      batch.push_back(PointQuery{query_log[i], opt});
    }
    for (const QueryResult& r : engine.ExecuteBatch(std::move(batch))) {
      if (r.stats.served_from_cache) ++served_from_cache;
    }
  }
  // The cache's lifetime counters cover the whole log.
  const CacheStats stats = engine.GetCacheStats();

  std::printf("query log: %zu queries over %zu hot spots, waves of %zu\n",
              query_log.size(), hotspots.size(), wave_size);
  std::printf("cache:     %zu hits, %zu misses, hit rate %.1f%%, "
              "%zu results held (%zu KiB)\n",
              stats.hits, stats.misses, 100.0 * stats.HitRate(),
              stats.entries, stats.bytes / 1024);
  std::printf("answers:   %zu of %zu served from the memo — bit-identical "
              "to recomputation\n", served_from_cache, query_log.size());
  return 0;
}
