// Figure 12 — fraction of candidates still labeled `unknown` after each
// verifier in the chain {RS, L-SR, U-SR}, as a function of the threshold.
//
// Paper result: RS and U-SR get stronger at large P (they cut upper
// bounds → objects fail quickly); L-SR helps mostly at small P (it raises
// lower bounds → objects satisfy); U-SR outperforms L-SR on large
// candidate sets because individual probabilities are small.
//
// Two panels: the paper-scale dataset (|C| ≈ 96, where L-SR's 1/c_j floor
// is weak — the paper's own observation), and a small-candidate-set panel
// where the RS → L-SR gap at small P is clearly visible.
//
// A third section times the verifier chain per stage, with every timed
// region repeated to the measurement floor (PVERIFY_MIN_WALL_MS, default
// 100 ms), and writes the per-stage times to fig12_stage_times.csv.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "core/framework.h"

using namespace pverify;

namespace {

void RunPanel(const char* title, size_t dataset_size, size_t queries) {
  bench::Environment env = bench::MakeDefaultEnvironment(
      datagen::PdfKind::kUniform, queries, dataset_size);
  std::printf("-- %s --\n", title);
  double avg_c = 0.0;
  std::vector<std::string> columns = {"P"};
  for (size_t s = 0; s < kNumStages; ++s) {
    columns.push_back(std::string("after_") +
                      StageName(static_cast<StageId>(s)));
  }
  ResultTable table(columns, std::string("fig12_") +
                                 std::to_string(dataset_size) + ".csv");
  for (double P : {0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}) {
    double frac[kNumStages] = {0, 0, 0};
    size_t n = 0;
    for (double q : env.query_points) {
      FilterResult filtered = env.executor.Filter(q);
      CandidateSet cands =
          CandidateSet::Build1D(env.dataset, filtered.candidates, q);
      if (cands.empty()) continue;
      avg_c += static_cast<double>(cands.size());
      VerificationFramework fw(&cands, CpnnParams{P, 0.01});
      VerificationStats stats = fw.RunDefault();
      // Stages the framework skipped (early exit) left zero unknowns.
      for (size_t s = 0; s < kNumStages; ++s) {
        frac[s] += static_cast<double>(stats.stages[s].unknown_after) /
                   static_cast<double>(cands.size());
      }
      ++n;
    }
    table.AddRow({FormatDouble(P, 2), FormatDouble(frac[0] / n, 3),
                  FormatDouble(frac[1] / n, 3),
                  FormatDouble(frac[2] / n, 3)});
  }
  table.Print();
  std::printf("(avg |C| = %.1f)\n\n",
              avg_c / (7.0 * static_cast<double>(env.query_points.size())));
}

/// Accumulated per-stage chain time over one workload pass (the
/// framework's own stage timers), averaged over floored repetitions.
struct StageTimes {
  double us[kNumStages] = {0, 0, 0};  ///< by StageId, per workload pass
  size_t reps = 0;
};

StageTimes TimeChain(const std::vector<CandidateSet>& base, double P,
                     double min_wall_ms) {
  StageTimes out;
  double wall = 0.0;
  do {
    double pass_ms[kNumStages] = {0, 0, 0};
    for (const CandidateSet& cands : base) {
      CandidateSet fresh = cands;  // unlabeled copy, untimed
      VerificationFramework fw(&fresh, CpnnParams{P, 0.01});
      VerificationStats stats = fw.RunDefault();
      for (size_t s = 0; s < kNumStages; ++s) {
        pass_ms[s] += stats.stages[s].ms;
      }
    }
    for (size_t s = 0; s < kNumStages; ++s) {
      out.us[s] += 1000.0 * pass_ms[s];
      wall += pass_ms[s];
    }
    ++out.reps;
  } while (wall < min_wall_ms);
  for (double& u : out.us) u /= static_cast<double>(out.reps);
  return out;
}

void RunStageTiming(size_t dataset_size, size_t queries) {
  const double min_wall_ms = bench::MinWallMsFromEnv();
  const double P = 0.3;
  std::printf("-- per-stage chain time (P=%.1f, floor %.0f ms) --\n", P,
              min_wall_ms);

  bench::Environment env = bench::MakeDefaultEnvironment(
      datagen::PdfKind::kUniform, queries, dataset_size);
  // Candidate sets built once; every timed pass copies them (untimed).
  std::vector<CandidateSet> base;
  for (double q : env.query_points) {
    FilterResult filtered = env.executor.Filter(q);
    CandidateSet cands =
        CandidateSet::Build1D(env.dataset, filtered.candidates, q);
    if (!cands.empty()) base.push_back(std::move(cands));
  }

  const StageTimes times = TimeChain(base, P, min_wall_ms);

  ResultTable table({"stage", "scalar_us"}, "fig12_stage_times.csv");
  for (size_t s = 0; s < kNumStages; ++s) {
    table.AddRow({StageName(static_cast<StageId>(s)),
                  FormatDouble(times.us[s], 2)});
  }
  table.Print();
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Figure 12 — Fraction of unknown objects after RS / L-SR / U-SR",
      "Average fraction of candidate objects still undecided after each\n"
      "verifier stage (Δ=0.01), plus per-stage chain times repeated to the\n"
      "measurement floor.");
  const size_t queries = bench::QueriesFromEnv(20);
  RunPanel("paper-scale dataset (53,144 intervals)",
           bench::DatasetSizeFromEnv(53144), queries);
  RunPanel("small candidate sets (5,000 intervals)", 5000, queries);
  RunStageTiming(bench::DatasetSizeFromEnv(53144), queries);
  return 0;
}
