// Per-query execution statistics, mirroring the phase breakdown the paper
// reports (filtering / verification / refinement, Fig. 11) plus verifier
// stage outcomes (Fig. 12). Deliberately free of heavyweight includes so
// that higher layers (the engine, benches) can consume stats without
// pulling in the verification machinery.
//
// The verifier stages are a compile-time set: StageId names them, every
// per-stage record is a fixed array indexed by it, and StageName() is the
// one place their printable names live.
#ifndef PVERIFY_CORE_STATS_H_
#define PVERIFY_CORE_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace pverify {

/// The verifiers of the paper's chain (Fig. 5), in default chain order.
enum class StageId : uint8_t { kRS, kLSR, kUSR };
inline constexpr size_t kNumStages = 3;

/// The paper's name of a stage.
constexpr const char* StageName(StageId id) {
  constexpr const char* kNames[kNumStages] = {"RS", "L-SR", "U-SR"};
  return kNames[static_cast<size_t>(id)];
}

/// Outcome of one verifier stage. A stage that did not run (every
/// candidate was already decided, or a custom chain left it out) keeps
/// ran == false and zeros.
struct StageStats {
  double ms = 0.0;
  size_t unknown_after = 0;  ///< candidates still unknown after the stage
  bool ran = false;
};

/// Per-stage outcomes of the verification phase, indexed by StageId. The
/// phase's init time and the candidates left for refinement live once, in
/// QueryStats::init_ms and QueryStats::unknown_after_verification.
struct VerificationStats {
  std::array<StageStats, kNumStages> stages{};

  StageStats& operator[](StageId id) {
    return stages[static_cast<size_t>(id)];
  }
  const StageStats& operator[](StageId id) const {
    return stages[static_cast<size_t>(id)];
  }
};

struct QueryStats {
  // Phase timings (milliseconds).
  double filter_ms = 0.0;
  double init_ms = 0.0;    ///< distance pdfs/cdfs + subregion table
  double verify_ms = 0.0;  ///< verifier chain + classification
  double refine_ms = 0.0;  ///< incremental refinement / exact integration
  double total_ms = 0.0;

  // Sizes.
  size_t dataset_size = 0;
  size_t candidates = 0;       ///< |C| after filtering
  size_t num_subregions = 0;   ///< M

  // Verification outcome.
  VerificationStats verification;
  size_t unknown_after_verification = 0;
  bool finished_after_verification = false;

  // Refinement outcome.
  size_t refined_candidates = 0;
  size_t subregion_integrations = 0;

  /// True when this result was served from a CachingEngine's memo instead
  /// of being recomputed. The phase timings above then describe the
  /// execution that originally produced the cached result.
  bool served_from_cache = false;

  void AccumulateInto(QueryStats& total) const {
    total.filter_ms += filter_ms;
    total.init_ms += init_ms;
    total.verify_ms += verify_ms;
    total.refine_ms += refine_ms;
    total.total_ms += total_ms;
    total.dataset_size += dataset_size;
    total.candidates += candidates;
    total.num_subregions += num_subregions;
    total.unknown_after_verification += unknown_after_verification;
    total.refined_candidates += refined_candidates;
    total.subregion_integrations += subregion_integrations;
    // Folding a per-query stats adds the flag; folding an accumulator (as
    // EngineStats merging does) adds its running counter.
    total.queries_finished_after_verify += queries_finished_after_verify;
    if (finished_after_verification) ++total.queries_finished_after_verify;
  }

  // Aggregation helper (only meaningful on an accumulator object).
  size_t queries_finished_after_verify = 0;
};

}  // namespace pverify

#endif  // PVERIFY_CORE_STATS_H_
