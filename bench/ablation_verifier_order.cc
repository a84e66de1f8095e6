// Ablation — verifier chain composition: the paper orders verifiers by
// cost ({RS, L-SR, U-SR}). We compare alternative chains by verification
// time and by how many candidates remain unknown.
#include <vector>

#include "bench_util/harness.h"
#include "common/timer.h"
#include "core/framework.h"

using namespace pverify;
namespace {

/// The chain a spec names (R=RS, L=L-SR, U=U-SR), over the static
/// verifiers of the default chain.
std::vector<Verifier*> MakeChain(const std::string& spec) {
  std::vector<Verifier*> chain;
  for (char c : spec) {
    const StageId id = c == 'R'   ? StageId::kRS
                       : c == 'L' ? StageId::kLSR
                                  : StageId::kUSR;
    chain.push_back(kDefaultVerifierChain[static_cast<size_t>(id)]);
  }
  return chain;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation — verifier chain composition",
      "Verification time and unknown fraction for different verifier\n"
      "chains at P=0.3, Δ=0.01 (R=RS, L=L-SR, U=U-SR). The paper's chain\n"
      "is RLU — cheap verifiers first.");

  const size_t queries = bench::QueriesFromEnv(20);
  const size_t count = bench::DatasetSizeFromEnv(53144);
  bench::Environment env =
      bench::MakeDefaultEnvironment(datagen::PdfKind::kUniform, queries,
                                    count);

  ResultTable table({"chain", "verify_ms", "unknown_fraction"},
                    "ablation_verifier_order.csv");
  for (const std::string spec : {"RLU", "ULR", "RU", "RL", "U", "L", "R"}) {
    const std::vector<Verifier*> chain = MakeChain(spec);
    double ms = 0.0;
    double unknown_frac = 0.0;
    size_t n = 0;
    for (double q : env.query_points) {
      FilterResult filtered = env.executor.Filter(q);
      CandidateSet cands =
          CandidateSet::Build1D(env.dataset, filtered.candidates, q);
      if (cands.empty()) continue;
      VerificationFramework fw(&cands, CpnnParams{0.3, 0.01});
      Timer t;
      fw.Run(chain.data(), chain.size());
      ms += t.ElapsedMs();
      unknown_frac += static_cast<double>(fw.unknown()) /
                      static_cast<double>(cands.size());
      ++n;
    }
    table.AddRow({spec, FormatDouble(ms / n, 4),
                  FormatDouble(unknown_frac / n, 3)});
  }
  table.Print();
  return 0;
}
