// Paper-fidelity tests: reconstructs the worked example of Fig. 7 (§IV) —
// three distance pdfs over five subregions — with every number the paper
// states: s_11 = 0.3, s_22 = 0.3, s_31 = 0, s_15 = 0.2 (so p_1.u = 0.8 by
// Lemma 1), c_1 = 1 (so q_11.l = 1), q_23.l = (1 − 0.5)/3 ≈ 0.167, and
// s_35 = 0.3 with D_3(e_5) = 0.7.
#include <gtest/gtest.h>

#include "core/basic.h"
#include "core/classifier.h"
#include "core/subregion.h"
#include "core/verifier.h"

namespace pverify {
namespace {

// Distance pdfs consistent with every value quoted for Fig. 7:
//   end-points e_1..e_6 = 0, 1, 2, 3, 4, 5; f_min = 4, f_max = 5.
//   R_1 on [0,5]: masses 0.3 | 0.2 | 0.1 | 0.2 | 0.2 per unit bar
//   R_2 on [1,4]: masses       0.3 | 0.4 | 0.3        (f_2 = f_min = 4)
//   R_3 on [2,5]: masses             0.4 | 0.3 | 0.3
CandidateSet Figure7() {
  std::vector<std::pair<ObjectId, DistanceDistribution>> dists;
  dists.emplace_back(
      1, DistanceDistribution(StepFunction({0, 1, 2, 3, 4, 5},
                                           {0.3, 0.2, 0.1, 0.2, 0.2})));
  dists.emplace_back(
      2, DistanceDistribution(
             StepFunction({1, 2, 3, 4}, {0.3, 0.4, 0.3})));
  dists.emplace_back(
      3, DistanceDistribution(StepFunction({2, 3, 4, 5}, {0.4, 0.3, 0.3})));
  return CandidateSet::FromDistances(std::move(dists));
}

TEST(PaperFig7Test, SubregionLayout) {
  CandidateSet cands = Figure7();
  SubregionTable tbl = SubregionTable::Build(cands);
  // Five subregions S_1..S_5 with the rightmost being [f_min, f_max].
  ASSERT_EQ(tbl.num_subregions(), 5u);
  EXPECT_DOUBLE_EQ(tbl.endpoint(0), 0.0);
  EXPECT_DOUBLE_EQ(tbl.endpoint(1), 1.0);
  EXPECT_DOUBLE_EQ(tbl.endpoint(2), 2.0);
  EXPECT_DOUBLE_EQ(tbl.endpoint(3), 3.0);
  EXPECT_DOUBLE_EQ(tbl.fmin(), 4.0);
  EXPECT_DOUBLE_EQ(tbl.fmax(), 5.0);
}

TEST(PaperFig7Test, QuotedSubregionProbabilities) {
  CandidateSet cands = Figure7();
  SubregionTable tbl = SubregionTable::Build(cands);
  // Candidates arrive sorted by near point: X_1 → 0, X_2 → 1, X_3 → 2.
  EXPECT_NEAR(tbl.s(0, 0), 0.3, 1e-12);  // s_11 = 0.1 + 0.2 = 0.3
  EXPECT_NEAR(tbl.s(1, 1), 0.3, 1e-12);  // s_22 = 0.3
  EXPECT_NEAR(tbl.s(2, 0), 0.0, 1e-12);  // s_31 = 0
  EXPECT_NEAR(tbl.s(0, 4), 0.2, 1e-12);  // s_15 (rightmost) = 0.2
  EXPECT_NEAR(tbl.s(2, 4), 0.3, 1e-12);  // s_35 = 0.3
  EXPECT_NEAR(tbl.cdf(2, 4), 0.7, 1e-12);  // D_3(e_5) = 0.7
  // c_1 = 1, c_3 = 3 (the counts Lemma 2 uses).
  EXPECT_EQ(tbl.count(0), 1);
  EXPECT_EQ(tbl.count(2), 3);
}

TEST(PaperFig7Test, RsLemma1UpperBound) {
  CandidateSet cands = Figure7();
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  RsVerifier().Apply(ctx);
  // "The upper bound of the qualification probability of object X_1 ... is
  //  at most 1 − s_15, or 1 − 0.2 = 0.8."
  EXPECT_NEAR(cands[0].bound.upper, 0.8, 1e-12);
}

TEST(PaperFig7Test, LsrLemma2Values) {
  CandidateSet cands = Figure7();
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  LsrVerifier().Apply(ctx);
  // "q_11.l ... is equal to 1, since c_1 = 1."
  EXPECT_NEAR(ctx.QLow(0, 0), 1.0, 1e-12);
  // "q_23.l (for X_2 in S_3) is (1−0.5)(1−0)/3 or 0.167": D_1(e_3) = 0.5,
  // D_3(e_3) = 0, c_3 = 3.
  EXPECT_NEAR(tbl.cdf(0, 2), 0.5, 1e-12);
  EXPECT_NEAR(tbl.cdf(2, 2), 0.0, 1e-12);
  EXPECT_NEAR(ctx.QLow(1, 2), (1.0 - 0.5) / 3.0, 1e-9);
}

TEST(PaperFig7Test, BoundsBracketExactProbabilities) {
  CandidateSet cands = Figure7();
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  for (Verifier* v : kDefaultVerifierChain) v->Apply(ctx);
  std::vector<double> exact = ComputeExactProbabilities(cands, {});
  double sum = 0.0;
  for (size_t i = 0; i < cands.size(); ++i) {
    EXPECT_LE(cands[i].bound.lower, exact[i] + 1e-9) << "i=" << i;
    EXPECT_GE(cands[i].bound.upper, exact[i] - 1e-9) << "i=" << i;
    sum += exact[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// The paper's Fig. 4 bound scenarios are covered in classifier_test.cc; the
// Fig. 2 intro example (A 20%, B 41%, C 10%, D 29%) fixes only the
// probabilities, not the geometry, so here we check the C-PNN semantics it
// illustrates: with P=0.30, Δ=0.02 the answer is exactly {B, D}.
TEST(PaperFig2Test, IntroAnswerSemantics) {
  CpnnParams params{0.30, 0.02};
  EXPECT_EQ(Classify({0.20, 0.20}, params), Label::kFail);     // A
  EXPECT_EQ(Classify({0.41, 0.41}, params), Label::kSatisfy);  // B
  EXPECT_EQ(Classify({0.10, 0.10}, params), Label::kFail);     // C
  // D's exact probability is 0.29 < P, but a bound like [0.29, 0.305]
  // satisfies the tolerance condition — the paper's "another answer".
  EXPECT_EQ(Classify({0.29, 0.305}, params), Label::kSatisfy);
}

}  // namespace
}  // namespace pverify
