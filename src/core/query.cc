#include "core/query.h"

#include <algorithm>

#include "common/check.h"
#include "common/timer.h"
#include "core/classifier.h"
#include "core/framework.h"
#include "core/scratch.h"

namespace pverify {
namespace {

// Labels every candidate from exact (or estimated-exact) probabilities:
// a zero-width bound at p decides Definition 1 directly.
void LabelFromProbabilities(CandidateSet& cands,
                            const std::vector<double>& probs,
                            const CpnnParams& params) {
  for (size_t i = 0; i < cands.size(); ++i) {
    cands[i].bound = ProbabilityBound{probs[i], probs[i]};
    cands[i].label = Classify(cands[i].bound, params);
  }
}

void FillAnswer(const CandidateSet& cands, const QueryOptions& options,
                QueryAnswer* answer) {
  answer->ids = cands.SatisfyingIds();
  std::sort(answer->ids.begin(), answer->ids.end());
  if (options.report_probabilities) {
    answer->candidate_probabilities.reserve(cands.size());
    for (const Candidate& c : cands.items()) {
      answer->candidate_probabilities.push_back(AnswerEntry{c.id, c.bound});
    }
  }
}

}  // namespace

std::string_view ToString(Strategy s) {
  switch (s) {
    case Strategy::kBasic:
      return "Basic";
    case Strategy::kRefine:
      return "Refine";
    case Strategy::kVR:
      return "VR";
    case Strategy::kMonteCarlo:
      return "MonteCarlo";
  }
  return "?";
}

QueryAnswer ExecuteOnCandidates(CandidateSet candidates,
                                const QueryOptions& options,
                                QueryScratch* scratch) {
  options.params.Validate();
  QueryAnswer answer;
  answer.stats.candidates = candidates.size();
  if (candidates.empty()) {
    // Even an empty set may carry a borrowed items buffer — hand it back.
    if (scratch != nullptr) scratch->candidates.Recycle(std::move(candidates));
    return answer;
  }
  Timer total;

  switch (options.strategy) {
    case Strategy::kBasic: {
      Timer t;
      std::vector<double> probs =
          ComputeExactProbabilities(candidates, options.integration);
      LabelFromProbabilities(candidates, probs, options.params);
      answer.stats.refine_ms = t.ElapsedMs();
      answer.stats.refined_candidates = candidates.size();
      break;
    }
    case Strategy::kMonteCarlo: {
      Timer t;
      std::vector<double> probs =
          MonteCarloProbabilities(candidates, options.monte_carlo);
      LabelFromProbabilities(candidates, probs, options.params);
      answer.stats.refine_ms = t.ElapsedMs();
      break;
    }
    case Strategy::kRefine:
    case Strategy::kVR: {
      VerificationFramework framework(&candidates, options.params, scratch);
      answer.stats.init_ms = framework.init_ms();
      answer.stats.num_subregions = framework.table().num_subregions();
      if (options.strategy == Strategy::kVR) {
        Timer t;
        answer.stats.verification = framework.RunDefault();
        answer.stats.verify_ms = t.ElapsedMs();
        answer.stats.unknown_after_verification = framework.unknown();
      } else {
        // Refine skips verification but still classifies trivial bounds.
        answer.stats.unknown_after_verification =
            ClassifyAll(candidates, options.params);
      }
      answer.stats.finished_after_verification =
          answer.stats.unknown_after_verification == 0;
      if (answer.stats.unknown_after_verification > 0) {
        Timer t;
        RefineStats rs =
            IncrementalRefine(framework.context(), options.params,
                              options.integration, options.refine_order,
                              scratch);
        answer.stats.refine_ms = t.ElapsedMs();
        answer.stats.refined_candidates = rs.refined_candidates;
        answer.stats.subregion_integrations = rs.subregion_integrations;
      }
      break;
    }
  }

  answer.stats.total_ms = total.ElapsedMs();
  FillAnswer(candidates, options, &answer);
  // The answer is extracted; the candidate storage (items buffer and every
  // distribution) goes back to the scratch for the next query.
  if (scratch != nullptr) scratch->candidates.Recycle(std::move(candidates));
  return answer;
}

CpnnExecutor::CpnnExecutor(Dataset dataset)
    : dataset_(std::move(dataset)),
      filter_(dataset_),
      domain_(ComputeDomainBounds(dataset_)) {}

QueryAnswer CpnnExecutor::ExecuteMin(const QueryOptions& options,
                                     QueryScratch* scratch) const {
  // Any query point at or below the domain minimum induces the ordering
  // "smaller value = nearer", making the PNN a minimum query.
  return Execute((domain_.empty() ? 0.0 : domain_.lo) - 1.0, options,
                 scratch);
}

QueryAnswer CpnnExecutor::ExecuteMax(const QueryOptions& options,
                                     QueryScratch* scratch) const {
  return Execute((domain_.empty() ? 0.0 : domain_.hi) + 1.0, options,
                 scratch);
}

QueryAnswer CpnnExecutor::Execute(double q, const QueryOptions& options,
                                  QueryScratch* scratch) const {
  Timer total;
  Timer t;
  FilterResult filtered = filter_.Filter(q);
  double filter_ms = t.ElapsedMs();

  t.Restart();
  CandidateSet candidates = CandidateSet::Build1D(
      dataset_, filtered.candidates, q, /*k=*/1,
      scratch != nullptr ? &scratch->candidates : nullptr);
  double build_ms = t.ElapsedMs();

  QueryAnswer answer =
      ExecuteOnCandidates(std::move(candidates), options, scratch);
  answer.stats.filter_ms = filter_ms;
  answer.stats.init_ms += build_ms;
  answer.stats.dataset_size = dataset_.size();
  answer.stats.total_ms = total.ElapsedMs();
  return answer;
}

CknnAnswer CpnnExecutor::ExecuteKnn(double q, int k, const CpnnParams& params,
                                    const IntegrationOptions& integration)
    const {
  FilterResult filtered = filter_.FilterK(q, k);
  CandidateSet candidates =
      CandidateSet::Build1D(dataset_, filtered.candidates, q, k);
  return EvaluateCknn(candidates, k, params, integration);
}

std::vector<std::pair<ObjectId, double>> CpnnExecutor::ComputePnn(
    double q, const IntegrationOptions& integration) const {
  FilterResult filtered = filter_.Filter(q);
  CandidateSet candidates =
      CandidateSet::Build1D(dataset_, filtered.candidates, q);
  std::vector<std::pair<ObjectId, double>> result;
  if (candidates.empty()) return result;
  std::vector<double> probs =
      ComputeExactProbabilities(candidates, integration);
  result.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    result.emplace_back(candidates[i].id, probs[i]);
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace pverify
