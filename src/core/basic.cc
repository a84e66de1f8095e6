#include "core/basic.h"

#include <algorithm>

#include <vector>

#include "common/integrate.h"
#include "common/piecewise.h"

namespace pverify {
namespace {

// All distance pdf/cdf breakpoints of the candidate set: between two
// consecutive entries every d_i is constant and every D_k linear, so
// per-segment Gauss-Legendre is near-exact.
std::vector<double> GlobalBreakpoints(const CandidateSet& candidates) {
  std::vector<double> breaks;
  for (const Candidate& c : candidates.items()) {
    breaks.insert(breaks.end(), c.dist.breakpoints().begin(),
                  c.dist.breakpoints().end());
  }
  return SortedUnique(std::move(breaks), 1e-12);
}

}  // namespace

double ExactQualificationProbability(const CandidateSet& candidates, size_t i,
                                     const IntegrationOptions& options) {
  std::vector<double> breaks = GlobalBreakpoints(candidates);
  const Candidate& cand = candidates[i];
  const double a = cand.dist.near();
  const double b = std::min(cand.dist.far(), candidates.fmin());
  auto f = [&candidates, i](double r) {
    return NnProductIntegrand(candidates, i, r);
  };
  double p = IntegrateWithBreakpoints(f, a, b, breaks, options.gauss_points);
  return std::clamp(p, 0.0, 1.0);
}

std::vector<double> ComputeExactProbabilities(
    const CandidateSet& candidates, const IntegrationOptions& options) {
  std::vector<double> breaks = GlobalBreakpoints(candidates);
  std::vector<double> probs(candidates.size(), 0.0);
  const double fmin = candidates.fmin();
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& cand = candidates[i];
    const double a = cand.dist.near();
    const double b = std::min(cand.dist.far(), fmin);
    auto f = [&candidates, i](double r) {
      return NnProductIntegrand(candidates, i, r);
    };
    probs[i] = std::clamp(
        IntegrateWithBreakpoints(f, a, b, breaks, options.gauss_points), 0.0,
        1.0);
  }
  return probs;
}

}  // namespace pverify
