#include "core/knn.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/integrate.h"
#include "common/piecewise.h"
#include "common/rng.h"
#include "core/basic.h"
#include "core/monte_carlo.h"
#include "uncertain/pdf.h"

namespace pverify {
namespace {

CandidateSet MakeCandidates(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  for (int i = 0; i < n; ++i) {
    double lo = rng.Uniform(0.0, 20.0);
    data.emplace_back(i, MakeUniformPdf(lo, lo + rng.Uniform(1.0, 10.0)));
  }
  std::vector<uint32_t> idx;
  for (int i = 0; i < n; ++i) idx.push_back(i);
  // Keep k-NN-relevant candidates for every k used in these tests.
  return CandidateSet::Build1D(data, idx, rng.Uniform(0.0, 25.0), /*k=*/5);
}

// The per-candidate integration the k-NN sweep replaced, kept as a
// bit-level oracle: IntegrateWithBreakpoints over [near, min(far, f^(k))]
// of d_i(r) · P[at most k − 1 others below r], with the Poisson-binomial
// DP over the other candidates in candidate order.
double ReferenceKnnProbability(const CandidateSet& cands, size_t i, int k,
                               const IntegrationOptions& options) {
  std::vector<double> breaks;
  for (const Candidate& c : cands.items()) {
    breaks.insert(breaks.end(), c.dist.breakpoints().begin(),
                  c.dist.breakpoints().end());
  }
  breaks = SortedUnique(std::move(breaks), 1e-12);
  const double a = cands[i].dist.near();
  const double b = std::min(cands[i].dist.far(), KthFarPoint(cands, k));
  if (b <= a) return 0.0;
  auto f = [&](double r) {
    const double d = cands[i].dist.Density(r);
    if (d == 0.0) return 0.0;
    std::vector<double> dp(static_cast<size_t>(k), 0.0);
    dp[0] = 1.0;
    for (size_t j = 0; j < cands.size(); ++j) {
      if (j == i) continue;
      const double p = cands[j].dist.Cdf(r);
      if (p <= 0.0) continue;
      for (int t = k - 1; t >= 1; --t) {
        dp[t] = dp[t] * (1.0 - p) + dp[t - 1] * p;
      }
      dp[0] *= 1.0 - p;
    }
    double sum = 0.0;
    for (double v : dp) sum += v;
    return d * std::min(1.0, sum);
  };
  return std::clamp(
      IntegrateWithBreakpoints(f, a, b, breaks, options.gauss_points), 0.0,
      1.0);
}

TEST(KthFarPointTest, OrderStatistics) {
  Dataset data;
  data.emplace_back(0, MakeUniformPdf(1.0, 2.0));  // far 2
  data.emplace_back(1, MakeUniformPdf(0.5, 4.0));  // far 4
  data.emplace_back(2, MakeUniformPdf(1.5, 3.0));  // far 3
  CandidateSet cands = CandidateSet::Build1D(data, {0, 1, 2}, 0.0);
  EXPECT_DOUBLE_EQ(KthFarPoint(cands, 1), 2.0);
  EXPECT_DOUBLE_EQ(KthFarPoint(cands, 2), 3.0);
  EXPECT_DOUBLE_EQ(KthFarPoint(cands, 3), 4.0);
  EXPECT_THROW(KthFarPoint(cands, 0), std::logic_error);
  EXPECT_THROW(KthFarPoint(cands, 4), std::logic_error);
}

TEST(KnnTest, KEqualsOneMatchesPnn) {
  for (uint64_t seed : {3ULL, 7ULL, 11ULL}) {
    CandidateSet cands = MakeCandidates(8, seed);
    if (cands.empty()) continue;
    std::vector<double> pnn = ComputeExactProbabilities(cands, {});
    std::vector<double> knn = ComputeKnnProbabilities(cands, 1, {});
    ASSERT_EQ(pnn.size(), knn.size());
    for (size_t i = 0; i < pnn.size(); ++i) {
      EXPECT_NEAR(knn[i], pnn[i], 1e-6) << "seed=" << seed << " i=" << i;
    }
  }
}

TEST(KnnTest, SweepMatchesPerCandidateIntegrationBitForBit) {
  std::vector<CandidateSet> sets;
  for (uint64_t seed : {3ULL, 61ULL}) sets.push_back(MakeCandidates(14, seed));
  // Breakpoints 2^-38 (~3.6e-12) apart survive the 1e-12 merge, and at
  // magnitude 1000 the outer Gauss nodes of that segment round onto its
  // ends: a node lands exactly on a candidate's near point.
  const double e = 1.0 / (1ULL << 38);
  std::vector<std::pair<ObjectId, DistanceDistribution>> narrow;
  for (int j = 0; j < 13; ++j) {
    const double near = 1000.0 + (j % 3) * e + 0.25 * (j / 3);
    narrow.emplace_back(j, DistanceDistribution(StepFunction(
                               {near, near + 2.0 + 0.5 * j},
                               {1.0 / (2.0 + 0.5 * j)})));
  }
  sets.push_back(CandidateSet::FromDistances(std::move(narrow), 13));
  // k up to 12 covers the DP sized at run time (k − 1 > 8).
  for (const CandidateSet& cands : sets) {
    for (int k : {1, 2, 3, 9, 10, 12}) {
      if (static_cast<size_t>(k) >= cands.size()) continue;
      for (int points : {2, 16}) {
        IntegrationOptions options;
        options.gauss_points = points;
        const std::vector<double> p =
            ComputeKnnProbabilities(cands, k, options);
        for (size_t i = 0; i < cands.size(); ++i) {
          EXPECT_EQ(p[i], ReferenceKnnProbability(cands, i, k, options))
              << "k=" << k << " points=" << points << " i=" << i;
        }
      }
    }
  }
}

TEST(KnnTest, ProbabilitiesSumToK) {
  // Expected size of the k-NN set is k: Σ_i p_i^(k) = k.
  for (int k : {1, 2, 3, 5}) {
    CandidateSet cands = MakeCandidates(9, 13);
    std::vector<double> p = ComputeKnnProbabilities(cands, k, {});
    double sum = 0.0;
    for (double v : p) sum += v;
    EXPECT_NEAR(sum, std::min<double>(k, cands.size()), 1e-5) << "k=" << k;
  }
}

TEST(KnnTest, MonotoneInK) {
  CandidateSet cands = MakeCandidates(10, 17);
  std::vector<double> prev(cands.size(), 0.0);
  for (int k = 1; k <= 5; ++k) {
    std::vector<double> p = ComputeKnnProbabilities(cands, k, {});
    for (size_t i = 0; i < p.size(); ++i) {
      EXPECT_GE(p[i], prev[i] - 1e-9) << "k=" << k << " i=" << i;
    }
    prev = p;
  }
}

TEST(KnnTest, KAtLeastCandidateCountIsCertain) {
  CandidateSet cands = MakeCandidates(5, 19);
  std::vector<double> p =
      ComputeKnnProbabilities(cands, static_cast<int>(cands.size()), {});
  for (double v : p) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(KnnTest, UpperBoundsHold) {
  for (int k : {1, 2, 3}) {
    CandidateSet cands = MakeCandidates(8, 23);
    // The RS-style bound EvaluateCknn prunes with: p_i^(k) <= D_i(f^(k)).
    const double fk = KthFarPoint(cands, k);
    std::vector<double> p = ComputeKnnProbabilities(cands, k, {});
    for (size_t i = 0; i < p.size(); ++i) {
      EXPECT_LE(p[i], cands[i].dist.Cdf(fk) + 1e-6)
          << "k=" << k << " i=" << i;
    }
  }
}

TEST(KnnTest, MatchesMonteCarloRanking) {
  CandidateSet cands = MakeCandidates(6, 29);
  const int k = 2;
  std::vector<double> exact = ComputeKnnProbabilities(cands, k, {});
  // Monte-Carlo estimate of P(in top-k).
  Rng rng(99);
  const int kSamples = 100000;
  std::vector<int> wins(cands.size(), 0);
  std::vector<std::pair<double, size_t>> draws(cands.size());
  for (int s = 0; s < kSamples; ++s) {
    for (size_t i = 0; i < cands.size(); ++i) {
      draws[i] = {cands[i].dist.Quantile(rng.Uniform(0.0, 1.0)), i};
    }
    std::partial_sort(draws.begin(), draws.begin() + k, draws.end());
    for (int t = 0; t < k; ++t) ++wins[draws[t].second];
  }
  for (size_t i = 0; i < cands.size(); ++i) {
    double mc = static_cast<double>(wins[i]) / kSamples;
    EXPECT_NEAR(exact[i], mc, 0.01) << "i=" << i;
  }
}

TEST(CknnTest, AnswersMeetThreshold) {
  CandidateSet cands = MakeCandidates(10, 31);
  CpnnParams params{0.4, 0.0};
  CknnAnswer ans = EvaluateCknn(cands, 2, params, {});
  std::vector<double> exact = ComputeKnnProbabilities(cands, 2, {});
  for (size_t i = 0; i < cands.size(); ++i) {
    bool returned = std::find(ans.ids.begin(), ans.ids.end(),
                              cands[i].id) != ans.ids.end();
    EXPECT_EQ(returned, exact[i] >= params.threshold) << "i=" << i;
  }
}

TEST(CknnTest, BoundPruningIsLossless) {
  CandidateSet cands = MakeCandidates(12, 37);
  CpnnParams params{0.6, 0.0};
  CknnAnswer with_bound = EvaluateCknn(cands, 3, params, {});
  // Recompute without pruning via raw exact probabilities.
  std::vector<double> exact = ComputeKnnProbabilities(cands, 3, {});
  std::vector<ObjectId> expect;
  for (size_t i = 0; i < cands.size(); ++i) {
    if (exact[i] >= params.threshold) expect.push_back(cands[i].id);
  }
  EXPECT_EQ(with_bound.ids, expect);
}

TEST(CknnTest, KCoveringAllCandidates) {
  CandidateSet cands = MakeCandidates(4, 41);
  CknnAnswer ans =
      EvaluateCknn(cands, static_cast<int>(cands.size()), {0.5, 0.0}, {});
  EXPECT_EQ(ans.ids.size(), cands.size());
}

TEST(CknnTest, BoundsContainExactProbabilities) {
  CandidateSet cands = MakeCandidates(10, 47);
  CpnnParams params{0.5, 0.0};
  CknnAnswer ans = EvaluateCknn(cands, 2, params, {});
  std::vector<double> exact = ComputeKnnProbabilities(cands, 2, {});
  ASSERT_EQ(ans.bounds.size(), cands.size());
  for (size_t i = 0; i < cands.size(); ++i) {
    EXPECT_LE(ans.bounds[i].lower, exact[i] + 1e-6) << "i=" << i;
    EXPECT_GE(ans.bounds[i].upper, exact[i] - 1e-6) << "i=" << i;
  }
}

TEST(CknnTest, ProgressiveRefinementSavesSegments) {
  // A strict threshold lets the running bound decide most candidates before
  // the integral completes.
  CandidateSet cands = MakeCandidates(12, 53);
  CknnAnswer strict = EvaluateCknn(cands, 3, {0.9, 0.0}, {});
  CknnAnswer loose = EvaluateCknn(cands, 3, {0.01, 0.0}, {});
  EXPECT_GT(strict.pruned_by_bound + strict.early_decided, 0u);
  // Both settings agree with exact ground truth on membership.
  std::vector<double> exact = ComputeKnnProbabilities(cands, 3, {});
  for (size_t i = 0; i < cands.size(); ++i) {
    bool in_strict = std::find(strict.ids.begin(), strict.ids.end(),
                               cands[i].id) != strict.ids.end();
    bool in_loose = std::find(loose.ids.begin(), loose.ids.end(),
                              cands[i].id) != loose.ids.end();
    EXPECT_EQ(in_strict, exact[i] >= 0.9) << "i=" << i;
    EXPECT_EQ(in_loose, exact[i] >= 0.01) << "i=" << i;
  }
}

TEST(CknnTest, ToleranceAdmitsBorderlineMembers) {
  CandidateSet cands = MakeCandidates(9, 59);
  std::vector<double> exact = ComputeKnnProbabilities(cands, 2, {});
  CknnAnswer ans = EvaluateCknn(cands, 2, {0.4, 0.1}, {});
  for (size_t i = 0; i < cands.size(); ++i) {
    bool returned = std::find(ans.ids.begin(), ans.ids.end(),
                              cands[i].id) != ans.ids.end();
    if (exact[i] >= 0.4 + 1e-6) {
      EXPECT_TRUE(returned) << "i=" << i;
    }
    if (exact[i] < 0.4 - 0.1 - 1e-6) {
      EXPECT_FALSE(returned) << "i=" << i;
    }
  }
}

}  // namespace
}  // namespace pverify
