// Ablation — quadrature order: accuracy/time trade-off of the
// Gauss-Legendre node count used by the Basic evaluator. The node count
// affects Basic (and k-NN) only: refinement reads its q_ij exactly from the
// subregion table.
// The integrand is piecewise-polynomial between global breakpoints, so very
// low orders are already near-exact on uniform pdfs; Gaussian histograms
// stress the segmentation instead.
#include <cmath>

#include "bench_util/harness.h"
#include "common/timer.h"
#include "core/basic.h"

using namespace pverify;

int main() {
  bench::PrintHeader(
      "Ablation — quadrature order",
      "Max |error| of Basic probabilities vs. a 16-node reference, and\n"
      "evaluation time, per Gauss-Legendre node count.");

  const size_t queries = bench::QueriesFromEnv(5);
  bench::Environment env = bench::MakeDefaultEnvironment(
      datagen::PdfKind::kUniform, queries, 20000);

  // Reference probabilities with the highest supported order.
  std::vector<std::vector<double>> reference;
  std::vector<CandidateSet> sets;
  for (double q : env.query_points) {
    FilterResult fr = env.executor.Filter(q);
    CandidateSet cands =
        CandidateSet::Build1D(env.dataset, fr.candidates, q);
    if (cands.empty()) continue;
    IntegrationOptions ref;
    ref.gauss_points = 16;
    reference.push_back(ComputeExactProbabilities(cands, ref));
    sets.push_back(std::move(cands));
  }

  ResultTable table({"gauss_points", "max_abs_error", "sum_error",
                     "avg_ms"},
                    "ablation_quadrature.csv");
  for (int points : {2, 4, 8, 16}) {
    IntegrationOptions opts;
    opts.gauss_points = points;
    double max_err = 0.0;
    double sum_err = 0.0;
    double ms = 0.0;
    for (size_t s = 0; s < sets.size(); ++s) {
      Timer t;
      std::vector<double> probs = ComputeExactProbabilities(sets[s], opts);
      ms += t.ElapsedMs();
      double sum = 0.0;
      for (size_t i = 0; i < probs.size(); ++i) {
        max_err = std::max(max_err, std::abs(probs[i] - reference[s][i]));
        sum += probs[i];
      }
      sum_err = std::max(sum_err, std::abs(sum - 1.0));
    }
    table.AddRow({FormatDouble(points, 0),
                  FormatDouble(max_err, 10),
                  FormatDouble(sum_err, 10),
                  FormatDouble(ms / static_cast<double>(sets.size()), 4)});
  }
  table.Print();
  return 0;
}
