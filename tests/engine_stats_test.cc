// Tests for EngineStats aggregation: the per-query fold sums phase and
// verifier-stage totals exactly, cache hit rates handle their edge cases,
// and a live engine's per-batch aggregate covers every request kind with
// finite derived rates (QueriesPerSec, AvgQueryMs, PhaseFraction).
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "engine/query_engine.h"

namespace pverify {
namespace {

TEST(EngineStatsTest, AccumulateBatchResultMatchesManualFold) {
  // AccumulateBatchResult is the per-query fold both engines use; check it
  // against QueryStats::AccumulateInto plus a stage walk.
  QueryStats qs;
  qs.filter_ms = 0.5;
  qs.verify_ms = 1.5;
  qs.total_ms = 2.0;
  qs.candidates = 7;
  qs.finished_after_verification = true;
  qs.verification[StageId::kRS] = {0.25, 4, true};
  qs.verification[StageId::kLSR] = {0.75, 0, true};

  EngineStats agg;
  AccumulateBatchResult(qs, &agg);
  AccumulateBatchResult(qs, &agg);
  EXPECT_EQ(agg.queries, 2u);
  EXPECT_EQ(agg.totals.filter_ms, 1.0);
  EXPECT_EQ(agg.totals.candidates, 14u);
  EXPECT_EQ(agg.totals.queries_finished_after_verify, 2u);
  const auto stage = [&](StageId id) {
    return agg.verifier_stages[static_cast<size_t>(id)];
  };
  EXPECT_EQ(stage(StageId::kRS).ms, 0.5);
  EXPECT_EQ(stage(StageId::kRS).runs, 2u);
  EXPECT_EQ(stage(StageId::kLSR).ms, 1.5);
  EXPECT_EQ(stage(StageId::kLSR).runs, 2u);
  // A stage that never ran keeps no time and no runs.
  EXPECT_EQ(stage(StageId::kUSR).ms, 0.0);
  EXPECT_EQ(stage(StageId::kUSR).runs, 0u);
  // Results that were served from a cache count as hits in the fold.
  EXPECT_EQ(agg.cache.hits, 0u);
  qs.served_from_cache = true;
  AccumulateBatchResult(qs, &agg);
  AccumulateBatchResult(qs, &agg);
  EXPECT_EQ(agg.cache.hits, 2u);
  EXPECT_EQ(agg.queries, 4u);
}

// CacheStats::HitRate edge cases: no lookups at all (only bypasses) keeps
// the rate a finite zero; rechecks count as non-hit lookups.
TEST(EngineStatsTest, CacheHitRateEdgeCases) {
  CacheStats none;
  none.bypasses = 12;
  EXPECT_EQ(none.HitRate(), 0.0);

  CacheStats some;
  some.hits = 3;
  some.misses = 1;
  some.rechecks = 2;
  EXPECT_DOUBLE_EQ(some.HitRate(), 0.5);

  CacheStats all;
  all.hits = 7;
  EXPECT_DOUBLE_EQ(all.HitRate(), 1.0);
}

// REAL engine aggregates: two mixed-kind variant batches (point / min /
// max / k-NN / candidates payloads) run on a live engine, and each
// per-batch aggregate must count every request, carry the VR chain's
// stage totals and keep its derived rates finite.
TEST(EngineStatsTest, MixedKindVariantBatchesAggregateEveryRequest) {
  Dataset data = datagen::MakeUniformScatter(200, 250.0, 2.0, /*seed=*/3);
  QueryEngine engine(data, EngineOptions{2});
  const CpnnExecutor exec(data);
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;

  auto mixed_batch = [&](double q) {
    std::vector<QueryRequest> batch;
    batch.push_back(PointQuery{q, opt});
    batch.push_back(MinQuery{opt});
    batch.push_back(MaxQuery{opt});
    batch.push_back(KnnQuery{q, 3, opt});
    FilterResult filtered = exec.Filter(q);
    batch.push_back(CandidatesQuery(
        CandidateSet::Build1D(data, filtered.candidates, q), opt));
    return batch;
  };

  for (double q : {60.0, 180.0}) {
    EngineStats stats;
    engine.ExecuteBatch(mixed_batch(q), &stats);
    ASSERT_EQ(stats.queries, 5u) << q;
    EXPECT_EQ(stats.threads, 2u) << q;
    // Every kind contributed candidates, so the totals are non-trivial.
    EXPECT_GT(stats.totals.candidates, 0u) << q;
    // The VR chain ran; its first stage is RS.
    EXPECT_GT(stats.verifier_stages[static_cast<size_t>(StageId::kRS)].runs,
              0u)
        << q;
    EXPECT_TRUE(std::isfinite(stats.QueriesPerSec())) << q;
    EXPECT_TRUE(std::isfinite(stats.AvgQueryMs())) << q;
    EXPECT_TRUE(std::isfinite(stats.PhaseFraction(&QueryStats::filter_ms)))
        << q;
  }
}

}  // namespace
}  // namespace pverify
