// Probabilistic k-NN (the paper's §VI future-work extension): a dispatcher
// wants the set of patrol units that are among the k closest to a call, each
// with qualification probability above a threshold.
#include <cstdio>

#include "core/query.h"
#include "datagen/synthetic.h"

using namespace pverify;

int main() {
  // 200 patrol units on a 1-D corridor (a highway), each with an
  // uncertainty interval from its last report.
  datagen::SyntheticConfig config;
  config.count = 200;
  config.domain_hi = 5000.0;
  config.mean_length = 30.0;
  config.seed = 3;
  Dataset units = datagen::MakeSynthetic(config);
  CpnnExecutor executor(units);

  const double call_location = 2500.0;
  const CpnnParams params{/*threshold=*/0.5, /*tolerance=*/0.0};

  for (int k : {1, 2, 4, 8}) {
    CknnAnswer ans = executor.ExecuteKnn(call_location, k, params);
    std::printf("k=%d: %zu unit(s) are top-%d with >=50%% probability "
                "(%zu pruned by the k-th-far-point bound)\n",
                k, ans.ids.size(), k, ans.pruned_by_bound);
    for (ObjectId id : ans.ids) {
      std::printf("    unit %lld\n", static_cast<long long>(id));
    }
  }

  // Expected-membership sanity: Σ_i p_i^(k) = k. Demonstrate on the
  // filtered candidate set for k = 4.
  const int k = 4;
  FilterResult filtered = executor.FilterK(call_location, k);
  CandidateSet cands =
      CandidateSet::Build1D(units, filtered.candidates, call_location, k);
  std::vector<double> probs = ComputeKnnProbabilities(cands, k, {});
  double sum = 0.0;
  for (double p : probs) sum += p;
  std::printf("\nk=%d candidate set: %zu units, Σ p_i^(k) = %.4f "
              "(expected %d)\n",
              k, cands.size(), sum, k);
  return 0;
}
