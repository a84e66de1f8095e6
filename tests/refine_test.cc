#include "core/refine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/basic.h"
#include "core/classifier.h"
#include "core/framework.h"
#include "uncertain/pdf.h"

namespace pverify {
namespace {

CandidateSet MakeCandidates(int n, uint64_t seed, double* q_out = nullptr) {
  Rng rng(seed);
  Dataset data;
  for (int i = 0; i < n; ++i) {
    double lo = rng.Uniform(0.0, 30.0);
    data.emplace_back(i, MakeUniformPdf(lo, lo + rng.Uniform(1.0, 15.0)));
  }
  std::vector<uint32_t> idx;
  for (int i = 0; i < n; ++i) idx.push_back(i);
  double q = rng.Uniform(0.0, 35.0);
  if (q_out != nullptr) *q_out = q;
  return CandidateSet::Build1D(data, idx, q);
}

// Σ_j s_ij · q_ij over the subregions below f_min: candidate i's exact
// qualification probability, assembled from the table-driven q_ij.
double SumOverSubregions(const SubregionTable& tbl, size_t i) {
  double sum = 0.0;
  for (size_t j = 0; j + 1 < tbl.num_subregions(); ++j) {
    if (!tbl.Participates(i, j)) continue;
    const double q = ExactSubregionProbability(tbl, i, j);
    EXPECT_TRUE(std::isfinite(q)) << "i=" << i << " j=" << j;
    EXPECT_GE(q, 0.0) << "i=" << i << " j=" << j;
    EXPECT_LE(q, 1.0) << "i=" << i << " j=" << j;
    sum += tbl.s(i, j) * q;
  }
  return sum;
}

int MaxParticipants(const SubregionTable& tbl) {
  int most = 0;
  for (size_t j = 0; j + 1 < tbl.num_subregions(); ++j) {
    most = std::max(most, tbl.count(j));
  }
  return most;
}

// n uniform intervals on the far side of q = 0 with near points on
// `levels` steps of [1, 1.5) and far points in [far_lo, far_hi], plus one
// short interval [1, 2] that sets f_min = 2. Every object is a candidate,
// and the last subregion below f_min, [max near, 2], has all n + 1
// participants.
// With far_lo well above 2, each cdf rises by at most 1 / (far_lo − 1.5)
// over it, so the product of the n factors stays smooth and Basic's 16-node
// rule per breakpoint segment integrates it to rounding error.
CandidateSet ManyParticipants(int n, int levels, double far_lo, double far_hi,
                              uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.emplace_back(0, MakeUniformPdf(1.0, 2.0));
  for (int k = 1; k <= n; ++k) {
    const double lo = 1.0 + 0.5 * (k % levels) / levels;
    data.emplace_back(k, MakeUniformPdf(lo, rng.Uniform(far_lo, far_hi)));
  }
  std::vector<uint32_t> idx(data.size());
  for (uint32_t k = 0; k < idx.size(); ++k) idx[k] = k;
  return CandidateSet::Build1D(data, idx, 0.0);
}

TEST(ExactSubregionTest, WeightedSumEqualsBasicProbability) {
  CandidateSet cands = MakeCandidates(6, 11);
  ASSERT_FALSE(cands.empty());
  SubregionTable tbl = SubregionTable::Build(cands);
  std::vector<double> exact = ComputeExactProbabilities(cands, {});
  for (size_t i = 0; i < cands.size(); ++i) {
    EXPECT_NEAR(SumOverSubregions(tbl, i), exact[i], 1e-12) << "i=" << i;
  }
}

TEST(ExactSubregionTest, ConditionalProbabilityInUnitRange) {
  CandidateSet cands = MakeCandidates(8, 13);
  SubregionTable tbl = SubregionTable::Build(cands);
  for (size_t i = 0; i < cands.size(); ++i) {
    for (size_t j = 0; j + 1 < tbl.num_subregions(); ++j) {
      if (!tbl.Participates(i, j)) continue;
      double q = ExactSubregionProbability(tbl, i, j);
      EXPECT_GE(q, 0.0);
      EXPECT_LE(q, 1.0);
    }
  }
}

TEST(ExactSubregionTest, WithinVerifierBounds) {
  CandidateSet cands = MakeCandidates(7, 17);
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  LsrVerifier().Apply(ctx);
  UsrVerifier().Apply(ctx);
  for (size_t i = 0; i < cands.size(); ++i) {
    for (size_t j = 0; j + 1 < tbl.num_subregions(); ++j) {
      if (!tbl.Participates(i, j)) continue;
      double q = ExactSubregionProbability(tbl, i, j);
      EXPECT_GE(q, ctx.QLow(i, j) - 1e-6) << "i=" << i << " j=" << j;
      EXPECT_LE(q, ctx.QUp(i, j) + 1e-6) << "i=" << i << " j=" << j;
    }
  }
}

// A 16-node Gauss-Legendre rule is exact only up to degree 31, i.e.
// c_j = 32 participants; the table-driven q_ij has no such limit.
TEST(ExactSubregionTest, MatchesBasicBeyondThirtyTwoParticipants) {
  for (uint64_t seed : {3ULL, 4ULL, 5ULL}) {
    const CandidateSet cands = ManyParticipants(48, 16, 3.0, 6.0, seed);
    ASSERT_EQ(cands.size(), 49u);
    const SubregionTable tbl = SubregionTable::Build(cands);
    ASSERT_GT(MaxParticipants(tbl), 32);
    const std::vector<double> exact = ComputeExactProbabilities(cands, {});
    double total = 0.0;
    for (size_t i = 0; i < cands.size(); ++i) {
      const double p = SumOverSubregions(tbl, i);
      EXPECT_NEAR(p, exact[i], 1e-12) << "seed=" << seed << " i=" << i;
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << "seed=" << seed;
  }
}

// Over 1,100 participants in one subregion: the normalised Bernstein
// accumulation has only non-negative terms bounded by 1, so it neither
// overflows nor loses the match with Basic. Every 97th candidate is
// checked (each costs O(c_j²) per subregion).
TEST(ExactSubregionTest, MatchesBasicBeyondElevenHundredParticipants) {
  const CandidateSet cands = ManyParticipants(1200, 4, 200.0, 400.0, 9);
  ASSERT_EQ(cands.size(), 1201u);
  const SubregionTable tbl = SubregionTable::Build(cands);
  ASSERT_GT(MaxParticipants(tbl), 1100);
  for (size_t i = 0; i < cands.size(); i += 97) {
    EXPECT_NEAR(SumOverSubregions(tbl, i),
                ExactQualificationProbability(cands, i, {}), 1e-12)
        << "i=" << i;
  }
  // Far points just past f_min: each of the 1,200 factors falls to about a
  // half across the last subregion, so the product underflows inside it.
  // Every q_ij stays finite and in [0, 1].
  const CandidateSet steep = ManyParticipants(1200, 4, 2.5, 3.0, 10);
  const SubregionTable steep_tbl = SubregionTable::Build(steep);
  ASSERT_GT(MaxParticipants(steep_tbl), 1100);
  for (size_t i = 0; i < steep.size(); i += 97) SumOverSubregions(steep_tbl, i);
}

TEST(ExactSubregionTest, OneAndTwoCandidates) {
  Dataset data;
  data.emplace_back(0, MakeUniformPdf(2.0, 5.0));
  data.emplace_back(1, MakeUniformPdf(3.0, 9.0));
  for (size_t n : {size_t{1}, size_t{2}}) {
    std::vector<uint32_t> idx(n);
    for (uint32_t k = 0; k < n; ++k) idx[k] = k;
    const CandidateSet cands = CandidateSet::Build1D(data, idx, 0.0);
    ASSERT_EQ(cands.size(), n);
    const SubregionTable tbl = SubregionTable::Build(cands);
    const std::vector<double> exact = ComputeExactProbabilities(cands, {});
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(SumOverSubregions(tbl, i), exact[i], 1e-12)
          << "n=" << n << " i=" << i;
    }
    // One candidate: nothing competes, so every q_0j is 1.
    if (n == 1) {
      EXPECT_EQ(ExactSubregionProbability(tbl, 0, 0), 1.0);
    }
  }
}

TEST(ExactSubregionTest, RightmostSubregionIsRejected) {
  const CandidateSet cands = MakeCandidates(6, 11);
  const SubregionTable tbl = SubregionTable::Build(cands);
  const size_t last = tbl.num_subregions() - 1;
  for (size_t i = 0; i < cands.size(); ++i) {
    if (!tbl.Participates(i, last)) continue;
    EXPECT_THROW(ExactSubregionProbability(tbl, i, last), std::logic_error);
  }
}

TEST(IncrementalRefineTest, DecidesEveryCandidate) {
  CandidateSet cands = MakeCandidates(10, 19);
  CpnnParams params{0.3, 0.01};
  VerificationFramework fw(&cands, params);
  fw.RunDefault();
  RefineStats rs = IncrementalRefine(fw.context(), params, {});
  for (const Candidate& c : cands.items()) {
    EXPECT_NE(c.label, Label::kUnknown);
  }
  EXPECT_LE(rs.subregion_integrations, rs.subregions_available);
}

TEST(IncrementalRefineTest, AgreesWithBasicGroundTruth) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    CandidateSet cands = MakeCandidates(9, seed);
    if (cands.empty()) continue;
    CandidateSet ground = cands;  // copy before labels change
    CpnnParams params{0.25, 0.0};  // zero tolerance → answers must be exact
    VerificationFramework fw(&cands, params);
    fw.RunDefault();
    IncrementalRefine(fw.context(), params, {});
    std::vector<double> exact = ComputeExactProbabilities(ground, {});
    for (size_t i = 0; i < cands.size(); ++i) {
      bool in_answer = cands[i].label == Label::kSatisfy;
      if (exact[i] > params.threshold + 1e-6) {
        EXPECT_TRUE(in_answer) << "seed=" << seed << " i=" << i;
      }
      if (exact[i] < params.threshold - 1e-6) {
        EXPECT_FALSE(in_answer) << "seed=" << seed << " i=" << i;
      }
    }
  }
}

TEST(IncrementalRefineTest, ToleranceAllowsBoundedError) {
  for (uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    CandidateSet cands = MakeCandidates(12, seed);
    if (cands.empty()) continue;
    CandidateSet ground = cands;
    CpnnParams params{0.3, 0.05};
    VerificationFramework fw(&cands, params);
    fw.RunDefault();
    IncrementalRefine(fw.context(), params, {});
    std::vector<double> exact = ComputeExactProbabilities(ground, {});
    for (size_t i = 0; i < cands.size(); ++i) {
      if (cands[i].label == Label::kSatisfy) {
        // Definition 1 guarantees p >= P − Δ for every returned object.
        EXPECT_GE(exact[i], params.threshold - params.tolerance - 1e-6);
      } else {
        // And p < P for every rejected object.
        EXPECT_LT(exact[i], params.threshold + 1e-6);
      }
    }
  }
}

TEST(IncrementalRefineTest, BothOrdersProduceValidAnswers) {
  for (RefineOrder order : {RefineOrder::kBySubregionProbability,
                            RefineOrder::kLeftToRight}) {
    CandidateSet cands = MakeCandidates(10, 31);
    CandidateSet ground = cands;
    CpnnParams params{0.3, 0.0};
    VerificationFramework fw(&cands, params);
    fw.RunDefault();
    IncrementalRefine(fw.context(), params, {}, order);
    std::vector<double> exact = ComputeExactProbabilities(ground, {});
    for (size_t i = 0; i < cands.size(); ++i) {
      if (exact[i] > params.threshold + 1e-6) {
        EXPECT_EQ(cands[i].label, Label::kSatisfy);
      }
      if (exact[i] < params.threshold - 1e-6) {
        EXPECT_EQ(cands[i].label, Label::kFail);
      }
    }
  }
}

TEST(IncrementalRefineTest, EarlyStopSavesIntegrations) {
  // With verifiers first and a generous tolerance, refinement should stop
  // before exhausting the subregions.
  CandidateSet cands = MakeCandidates(14, 41);
  CpnnParams params{0.3, 0.1};
  VerificationFramework fw(&cands, params);
  fw.RunDefault();
  RefineStats rs = IncrementalRefine(fw.context(), params, {});
  if (rs.refined_candidates > 0) {
    EXPECT_LT(rs.subregion_integrations, rs.subregions_available);
  }
}

TEST(IncrementalRefineTest, NoUnknownNoWork) {
  CandidateSet cands = MakeCandidates(5, 51);
  CpnnParams params{0.0001, 1.0};  // everything satisfies instantly
  VerificationFramework fw(&cands, params);
  fw.RunDefault();
  RefineStats rs = IncrementalRefine(fw.context(), params, {});
  EXPECT_EQ(rs.refined_candidates, 0u);
  EXPECT_EQ(rs.subregion_integrations, 0u);
}

}  // namespace
}  // namespace pverify
