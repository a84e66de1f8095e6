#include "core/query2d.h"

#include <algorithm>

#include "common/check.h"
#include "common/timer.h"
#include "core/basic.h"
#include "core/scratch.h"

namespace pverify {

CpnnExecutor2D::CpnnExecutor2D(Dataset2D dataset, int radial_pieces)
    : dataset_(std::move(dataset)),
      filter_(dataset_),
      radial_pieces_(radial_pieces) {
  PV_CHECK_MSG(radial_pieces_ >= 4, "radial cdf needs at least 4 pieces");
}

CandidateSet CpnnExecutor2D::BuildCandidates(Point2 q,
                                             QueryScratch* scratch) const {
  FilterResult filtered = filter_.Filter(q);
  return CandidateSet::Build2D(
      dataset_, filtered.candidates, q, radial_pieces_, /*k=*/1,
      scratch != nullptr ? &scratch->candidates : nullptr);
}

QueryAnswer CpnnExecutor2D::Execute(Point2 q, const QueryOptions& options,
                                    QueryScratch* scratch) const {
  Timer total;
  Timer t;
  CandidateSet candidates = BuildCandidates(q, scratch);
  double build_ms = t.ElapsedMs();
  QueryAnswer answer =
      ExecuteOnCandidates(std::move(candidates), options, scratch);
  answer.stats.init_ms += build_ms;
  answer.stats.dataset_size = dataset_.size();
  answer.stats.total_ms = total.ElapsedMs();
  return answer;
}

CknnAnswer CpnnExecutor2D::ExecuteKnn(Point2 q, int k,
                                      const CpnnParams& params,
                                      const IntegrationOptions& integration)
    const {
  FilterResult filtered = filter_.FilterK(q, k);
  CandidateSet candidates = CandidateSet::Build2D(
      dataset_, filtered.candidates, q, radial_pieces_, k);
  return EvaluateCknn(candidates, k, params, integration);
}

std::vector<std::pair<ObjectId, double>> CpnnExecutor2D::ComputePnn(
    Point2 q, const IntegrationOptions& integration) const {
  CandidateSet candidates = BuildCandidates(q);
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
