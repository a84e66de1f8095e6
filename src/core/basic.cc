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

// p_i: the NN integrand d_i(r) · Π_{k≠i} (1 − D_k(r)) (paper Eq. 2), from
// pdf and cdf lookups, over [n_i, min(f_i, f_min)] split at `breaks`. The
// product stops once it reaches zero.
double Integrate(const CandidateSet& cands, size_t i,
                 const std::vector<double>& breaks,
                 const IntegrationOptions& options) {
  auto f = [&cands, i](double r) {
    double v = cands[i].dist.Density(r);
    for (size_t k = 0; k < cands.size() && v != 0.0; ++k) {
      if (k != i) v *= 1.0 - cands[k].dist.Cdf(r);
    }
    return v;
  };
  const DistanceDistribution& dist = cands[i].dist;
  const double b = std::min(dist.far(), cands.fmin());
  return std::clamp(IntegrateWithBreakpoints(f, dist.near(), b, breaks,
                                             options.gauss_points),
                    0.0, 1.0);
}

}  // namespace

double ExactQualificationProbability(const CandidateSet& candidates, size_t i,
                                     const IntegrationOptions& options) {
  return Integrate(candidates, i, GlobalBreakpoints(candidates), options);
}

std::vector<double> ComputeExactProbabilities(
    const CandidateSet& candidates, const IntegrationOptions& options) {
  const std::vector<double> breaks = GlobalBreakpoints(candidates);
  std::vector<double> probs(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    probs[i] = Integrate(candidates, i, breaks, options);
  }
  return probs;
}

}  // namespace pverify
