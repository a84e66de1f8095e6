// Property tests for EngineStats aggregation and merging: per-part phase
// totals and verifier-stage totals must sum exactly into the merged
// aggregate, stage order follows first appearance, and the derived rates
// (QueriesPerSec, AvgQueryMs, PhaseFraction) stay finite on empty inputs.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/synthetic.h"
#include "engine/query_engine.h"

namespace pverify {
namespace {

const char* const kStageNames[] = {"RS", "L-SR", "U-SR"};

// A randomized per-shard aggregate, as the sharded engine would produce.
EngineStats RandomPart(Rng& rng) {
  EngineStats part;
  part.queries = static_cast<size_t>(rng.UniformInt(0, 40));
  part.threads = static_cast<size_t>(rng.UniformInt(1, 8));
  part.wall_ms = rng.Uniform(0.0, 50.0);
  part.totals.filter_ms = rng.Uniform(0.0, 5.0);
  part.totals.init_ms = rng.Uniform(0.0, 5.0);
  part.totals.verify_ms = rng.Uniform(0.0, 5.0);
  part.totals.refine_ms = rng.Uniform(0.0, 5.0);
  part.totals.total_ms = part.totals.filter_ms + part.totals.init_ms +
                         part.totals.verify_ms + part.totals.refine_ms;
  part.totals.dataset_size = static_cast<size_t>(rng.UniformInt(0, 1000));
  part.totals.candidates = static_cast<size_t>(rng.UniformInt(0, 200));
  part.totals.num_subregions = static_cast<size_t>(rng.UniformInt(0, 50));
  part.totals.refined_candidates = static_cast<size_t>(rng.UniformInt(0, 20));
  part.totals.subregion_integrations =
      static_cast<size_t>(rng.UniformInt(0, 100));
  part.totals.queries_finished_after_verify =
      static_cast<size_t>(rng.UniformInt(0, 10));
  // A random subset of stages, in chain order.
  for (const char* name : kStageNames) {
    if (!rng.Bernoulli(0.7)) continue;
    EngineStats::StageTotal stage;
    stage.name = name;
    stage.ms = rng.Uniform(0.0, 3.0);
    stage.runs = static_cast<size_t>(rng.UniformInt(1, 30));
    part.verifier_stages.push_back(stage);
  }
  // Cache telemetry, as a CachingEngine batch delta would carry.
  part.cache.hits = static_cast<size_t>(rng.UniformInt(0, 30));
  part.cache.misses = static_cast<size_t>(rng.UniformInt(0, 30));
  part.cache.rechecks = static_cast<size_t>(rng.UniformInt(0, 10));
  part.cache.bypasses = static_cast<size_t>(rng.UniformInt(0, 10));
  part.cache.evictions = static_cast<size_t>(rng.UniformInt(0, 10));
  part.cache.entries = static_cast<size_t>(rng.UniformInt(0, 100));
  part.cache.bytes = static_cast<size_t>(rng.UniformInt(0, 1 << 20));
  return part;
}

double SumStageMs(const std::vector<EngineStats>& parts,
                  const std::string& name) {
  double ms = 0.0;
  for (const EngineStats& part : parts) {
    for (const EngineStats::StageTotal& stage : part.verifier_stages) {
      if (stage.name == name) ms += stage.ms;
    }
  }
  return ms;
}

size_t SumStageRuns(const std::vector<EngineStats>& parts,
                    const std::string& name) {
  size_t runs = 0;
  for (const EngineStats& part : parts) {
    for (const EngineStats::StageTotal& stage : part.verifier_stages) {
      if (stage.name == name) runs += stage.runs;
    }
  }
  return runs;
}

TEST(EngineStatsTest, MergeSumsPhaseAndStageTotalsExactly) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<EngineStats> parts;
    const size_t num_parts = static_cast<size_t>(rng.UniformInt(1, 6));
    for (size_t i = 0; i < num_parts; ++i) parts.push_back(RandomPart(rng));

    EngineStats merged = MergeEngineStats(parts);

    // Counters and phase totals sum exactly (same accumulation order).
    size_t queries = 0;
    size_t threads = 0;
    double wall = 0.0;
    double filter = 0.0, init = 0.0, verify = 0.0, refine = 0.0, total = 0.0;
    size_t finished = 0;
    for (const EngineStats& part : parts) {
      queries += part.queries;
      threads = std::max(threads, part.threads);
      wall = std::max(wall, part.wall_ms);
      filter += part.totals.filter_ms;
      init += part.totals.init_ms;
      verify += part.totals.verify_ms;
      refine += part.totals.refine_ms;
      total += part.totals.total_ms;
      finished += part.totals.queries_finished_after_verify;
    }
    EXPECT_EQ(merged.queries, queries);
    EXPECT_EQ(merged.threads, threads);
    EXPECT_EQ(merged.wall_ms, wall);
    EXPECT_EQ(merged.totals.filter_ms, filter);
    EXPECT_EQ(merged.totals.init_ms, init);
    EXPECT_EQ(merged.totals.verify_ms, verify);
    EXPECT_EQ(merged.totals.refine_ms, refine);
    EXPECT_EQ(merged.totals.total_ms, total);
    EXPECT_EQ(merged.totals.queries_finished_after_verify, finished);

    // Stage totals: one slot per distinct name, sums exact.
    for (const char* name : kStageNames) {
      const size_t want_runs = SumStageRuns(parts, name);
      size_t slots = 0;
      for (const EngineStats::StageTotal& stage : merged.verifier_stages) {
        if (stage.name == name) {
          ++slots;
          EXPECT_EQ(stage.ms, SumStageMs(parts, name)) << name;
          EXPECT_EQ(stage.runs, want_runs) << name;
        }
      }
      EXPECT_EQ(slots, want_runs > 0 ? 1u : 0u) << name;
    }

    // Cache counters sum exactly; the entries/bytes gauges take the max
    // (per-part gauges snapshot the same cache, not disjoint shares).
    size_t hits = 0, misses = 0, rechecks = 0, bypasses = 0;
    size_t evictions = 0, entries = 0, bytes = 0;
    for (const EngineStats& part : parts) {
      hits += part.cache.hits;
      misses += part.cache.misses;
      rechecks += part.cache.rechecks;
      bypasses += part.cache.bypasses;
      evictions += part.cache.evictions;
      entries = std::max(entries, part.cache.entries);
      bytes = std::max(bytes, part.cache.bytes);
    }
    EXPECT_EQ(merged.cache.hits, hits);
    EXPECT_EQ(merged.cache.misses, misses);
    EXPECT_EQ(merged.cache.rechecks, rechecks);
    EXPECT_EQ(merged.cache.bypasses, bypasses);
    EXPECT_EQ(merged.cache.evictions, evictions);
    EXPECT_EQ(merged.cache.entries, entries);
    EXPECT_EQ(merged.cache.bytes, bytes);
    // HitRate is a fraction of cacheable lookups, finite and in [0, 1].
    EXPECT_TRUE(std::isfinite(merged.cache.HitRate()));
    EXPECT_GE(merged.cache.HitRate(), 0.0);
    EXPECT_LE(merged.cache.HitRate(), 1.0);

    // Derived rates are always finite.
    EXPECT_TRUE(std::isfinite(merged.QueriesPerSec()));
    EXPECT_TRUE(std::isfinite(merged.AvgQueryMs()));
    EXPECT_TRUE(std::isfinite(merged.PhaseFraction(&QueryStats::filter_ms)));
    EXPECT_TRUE(std::isfinite(merged.PhaseFraction(&QueryStats::verify_ms)));
  }
}

TEST(EngineStatsTest, MergeKeepsStageOrderOfFirstAppearance) {
  EngineStats a;
  a.verifier_stages.push_back({"RS", 1.0, 1});
  a.verifier_stages.push_back({"L-SR", 2.0, 2});
  EngineStats b;
  b.verifier_stages.push_back({"U-SR", 3.0, 3});
  b.verifier_stages.push_back({"RS", 4.0, 4});

  EngineStats merged = MergeEngineStats({a, b});
  ASSERT_EQ(merged.verifier_stages.size(), 3u);
  EXPECT_EQ(merged.verifier_stages[0].name, "RS");
  EXPECT_EQ(merged.verifier_stages[0].ms, 5.0);
  EXPECT_EQ(merged.verifier_stages[0].runs, 5u);
  EXPECT_EQ(merged.verifier_stages[1].name, "L-SR");
  EXPECT_EQ(merged.verifier_stages[2].name, "U-SR");
}

TEST(EngineStatsTest, EmptyMergeAndEmptyBatchRatesAreFiniteZeros) {
  EngineStats merged = MergeEngineStats({});
  EXPECT_EQ(merged.queries, 0u);
  EXPECT_EQ(merged.wall_ms, 0.0);
  EXPECT_TRUE(merged.verifier_stages.empty());
  EXPECT_EQ(merged.QueriesPerSec(), 0.0);
  EXPECT_EQ(merged.AvgQueryMs(), 0.0);
  EXPECT_EQ(merged.PhaseFraction(&QueryStats::refine_ms), 0.0);
  EXPECT_TRUE(std::isfinite(merged.QueriesPerSec()));

  // Merging only empty parts behaves the same.
  EngineStats still_empty = MergeEngineStats({EngineStats{}, EngineStats{}});
  EXPECT_EQ(still_empty.queries, 0u);
  EXPECT_TRUE(std::isfinite(still_empty.PhaseFraction(&QueryStats::init_ms)));
}

TEST(EngineStatsTest, AccumulateBatchResultMatchesManualFold) {
  // AccumulateBatchResult is the per-query fold both engines use; check it
  // against QueryStats::AccumulateInto plus a stage walk.
  QueryStats qs;
  qs.filter_ms = 0.5;
  qs.verify_ms = 1.5;
  qs.total_ms = 2.0;
  qs.candidates = 7;
  qs.finished_after_verification = true;
  qs.verification.stages.push_back({"RS", 0.25, 0, 0, 0});
  qs.verification.stages.push_back({"L-SR", 0.75, 0, 0, 0});

  EngineStats agg;
  AccumulateBatchResult(qs, &agg);
  AccumulateBatchResult(qs, &agg);
  EXPECT_EQ(agg.queries, 2u);
  EXPECT_EQ(agg.totals.filter_ms, 1.0);
  EXPECT_EQ(agg.totals.candidates, 14u);
  EXPECT_EQ(agg.totals.queries_finished_after_verify, 2u);
  ASSERT_EQ(agg.verifier_stages.size(), 2u);
  EXPECT_EQ(agg.verifier_stages[0].name, "RS");
  EXPECT_EQ(agg.verifier_stages[0].ms, 0.5);
  EXPECT_EQ(agg.verifier_stages[0].runs, 2u);
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

// End-to-end merge over REAL engine aggregates: two mixed-kind variant
// batches (point / min / max / k-NN / candidates payloads) run on a live
// engine, and MergeEngineStats over their per-batch aggregates must sum
// query counts and phase totals exactly while keeping derived rates
// finite.
TEST(EngineStatsTest, MergeOverMixedKindVariantBatchesSumsExactly) {
  Dataset data = datagen::MakeUniformScatter(200, 250.0, 2.0, /*seed=*/3);
  QueryEngine engine(data, EngineOptions{2});
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;

  auto mixed_batch = [&](double q) {
    std::vector<QueryRequest> batch;
    batch.push_back(PointQuery{q, opt});
    batch.push_back(MinQuery{opt});
    batch.push_back(MaxQuery{opt});
    batch.push_back(KnnQuery{q, 3, opt});
    FilterResult filtered = engine.executor().Filter(q);
    batch.push_back(CandidatesQuery(
        CandidateSet::Build1D(data, filtered.candidates, q), opt));
    return batch;
  };

  EngineStats first, second;
  engine.ExecuteBatch(mixed_batch(60.0), &first);
  engine.ExecuteBatch(mixed_batch(180.0), &second);
  ASSERT_EQ(first.queries, 5u);
  ASSERT_EQ(second.queries, 5u);
  // Every kind contributed candidates, so the totals are non-trivial.
  EXPECT_GT(first.totals.candidates, 0u);

  EngineStats merged = MergeEngineStats({first, second});
  EXPECT_EQ(merged.queries, 10u);
  EXPECT_EQ(merged.threads, 2u);
  EXPECT_EQ(merged.wall_ms, std::max(first.wall_ms, second.wall_ms));
  EXPECT_EQ(merged.totals.candidates,
            first.totals.candidates + second.totals.candidates);
  EXPECT_EQ(merged.totals.filter_ms,
            first.totals.filter_ms + second.totals.filter_ms);
  EXPECT_EQ(merged.totals.total_ms,
            first.totals.total_ms + second.totals.total_ms);
  // The VR chain ran in both batches; stage totals merged by name.
  ASSERT_FALSE(merged.verifier_stages.empty());
  EXPECT_EQ(merged.verifier_stages[0].name, "RS");
  EXPECT_EQ(merged.verifier_stages[0].runs,
            first.verifier_stages[0].runs + second.verifier_stages[0].runs);
  EXPECT_TRUE(std::isfinite(merged.QueriesPerSec()));
  EXPECT_TRUE(std::isfinite(merged.AvgQueryMs()));
}

}  // namespace
}  // namespace pverify
