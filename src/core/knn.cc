#include "core/knn.h"

#include <algorithm>

#include "common/check.h"
#include "common/integrate.h"
#include "common/piecewise.h"
#include "core/classifier.h"

namespace pverify {
namespace {

// P[at most `limit` of the candidates k≠i have R_k <= r]: Poisson-binomial
// tail via the truncated DP over success probabilities D_k(r).
double AtMostBelow(const CandidateSet& cands, size_t i, double r, int limit) {
  // dp[t] = probability that exactly t of the processed objects are below r,
  // truncated at limit+1 states (anything beyond limit is absorbed/dropped).
  std::vector<double> dp(static_cast<size_t>(limit) + 1, 0.0);
  dp[0] = 1.0;
  for (size_t k = 0; k < cands.size(); ++k) {
    if (k == i) continue;
    const double p = cands[k].dist.Cdf(r);
    if (p <= 0.0) continue;
    for (int t = limit; t >= 1; --t) {
      dp[t] = dp[t] * (1.0 - p) + dp[t - 1] * p;
    }
    dp[0] *= 1.0 - p;
  }
  double sum = 0.0;
  for (double v : dp) sum += v;
  return std::min(1.0, sum);
}

std::vector<double> GlobalBreakpoints(const CandidateSet& candidates) {
  std::vector<double> breaks;
  for (const Candidate& c : candidates.items()) {
    breaks.insert(breaks.end(), c.dist.breakpoints().begin(),
                  c.dist.breakpoints().end());
  }
  return SortedUnique(std::move(breaks), 1e-12);
}

double ExactKnnProbability(const CandidateSet& candidates, size_t i, int k,
                           double fk, const std::vector<double>& breaks,
                           const IntegrationOptions& options) {
  const Candidate& cand = candidates[i];
  const double a = cand.dist.near();
  const double b = std::min(cand.dist.far(), fk);
  if (b <= a) return 0.0;  // certainly beyond the k-th far point
  auto f = [&candidates, i, k](double r) {
    double d = candidates[i].dist.Density(r);
    if (d == 0.0) return 0.0;
    return d * AtMostBelow(candidates, i, r, k - 1);
  };
  return std::clamp(
      IntegrateWithBreakpoints(f, a, b, breaks, options.gauss_points), 0.0,
      1.0);
}

}  // namespace

double KthFarPoint(const CandidateSet& candidates, int k) {
  PV_CHECK_MSG(k >= 1 && static_cast<size_t>(k) <= candidates.size(),
               "k must be in [1, |C|]");
  std::vector<double> fars;
  fars.reserve(candidates.size());
  for (const Candidate& c : candidates.items()) fars.push_back(c.dist.far());
  std::nth_element(fars.begin(), fars.begin() + (k - 1), fars.end());
  return fars[k - 1];
}

std::vector<double> KnnRsUpperBounds(const CandidateSet& candidates, int k) {
  const double fk = KthFarPoint(candidates, k);
  std::vector<double> ub(candidates.size(), 1.0);
  // p_i^(k) <= P(R_i <= f^(k)) = D_i(f^(k)).
  for (size_t i = 0; i < candidates.size(); ++i) {
    ub[i] = candidates[i].dist.Cdf(fk);
  }
  return ub;
}

std::vector<double> ComputeKnnProbabilities(
    const CandidateSet& candidates, int k, const IntegrationOptions& options) {
  PV_CHECK_MSG(k >= 1, "k must be positive");
  const size_t n = candidates.size();
  std::vector<double> probs(n, 0.0);
  if (n == 0) return probs;
  if (static_cast<size_t>(k) >= n) {
    // Every candidate is among the k nearest with certainty.
    std::fill(probs.begin(), probs.end(), 1.0);
    return probs;
  }
  const double fk = KthFarPoint(candidates, k);
  std::vector<double> breaks = GlobalBreakpoints(candidates);
  for (size_t i = 0; i < n; ++i) {
    probs[i] = ExactKnnProbability(candidates, i, k, fk, breaks, options);
  }
  return probs;
}

CknnAnswer EvaluateCknn(const CandidateSet& candidates, int k,
                        const CpnnParams& params,
                        const IntegrationOptions& options) {
  params.Validate();
  CknnAnswer answer;
  const size_t n = candidates.size();
  answer.bounds.assign(n, ProbabilityBound{0.0, 1.0});
  if (n == 0) return answer;
  if (static_cast<size_t>(k) >= n) {
    for (size_t i = 0; i < n; ++i) {
      answer.bounds[i] = ProbabilityBound{1.0, 1.0};
      answer.ids.push_back(candidates[i].id);
    }
    return answer;
  }

  const double fk = KthFarPoint(candidates, k);
  const std::vector<double> ub = KnnRsUpperBounds(candidates, k);
  const std::vector<double> breaks = GlobalBreakpoints(candidates);

  for (size_t i = 0; i < n; ++i) {
    ProbabilityBound& bound = answer.bounds[i];
    bound.Tighten(0.0, ub[i]);
    // RS-style verification: reject without integration when even the upper
    // bound misses the threshold.
    if (Classify(bound, params) == Label::kFail) {
      ++answer.pruned_by_bound;
      continue;
    }

    // Progressive integration: accumulate the integral segment by segment,
    // classifying the running bound [partial, partial + remaining mass].
    const Candidate& cand = candidates[i];
    const double a = cand.dist.near();
    const double b = std::min(cand.dist.far(), fk);
    auto f = [&candidates, i, k](double r) {
      double d = candidates[i].dist.Density(r);
      if (d == 0.0) return 0.0;
      return d * AtMostBelow(candidates, i, r, k - 1);
    };
    // The cap below subtracts from P(R_i <= b), which does not change
    // across segments — evaluate it once per candidate.
    const double cdf_b = cand.dist.Cdf(b);

    double partial = 0.0;
    double prev = a;
    Label label = Label::kUnknown;
    auto it = std::upper_bound(breaks.begin(), breaks.end(), a);
    bool done = false;
    while (!done) {
      double next;
      if (it != breaks.end() && *it < b) {
        next = *it;
        ++it;
      } else {
        next = b;
        done = true;
      }
      if (next <= prev) continue;
      partial += GaussLegendre(f, prev, next, options.gauss_points);
      ++answer.segments_evaluated;
      prev = next;
      // Unintegrated probability mass of R_i in (prev, b] caps the rest of
      // the integral (the Poisson-binomial factor is <= 1).
      double remaining = std::max(0.0, cdf_b - cand.dist.Cdf(prev));
      bound.Tighten(std::clamp(partial, 0.0, 1.0),
                    std::clamp(partial + remaining, 0.0, 1.0));
      label = Classify(bound, params);
      if (label != Label::kUnknown) {
        if (!done) ++answer.early_decided;
        break;
      }
    }
    if (label == Label::kUnknown) {
      // Fully integrated → zero-width bound decides.
      bound.Tighten(bound.upper, bound.upper);
      label = Classify(bound, params);
    }
    if (label == Label::kSatisfy) answer.ids.push_back(candidates[i].id);
  }
  return answer;
}

}  // namespace pverify
