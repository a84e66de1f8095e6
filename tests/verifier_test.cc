#include "core/verifier.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/basic.h"
#include "core/classifier.h"
#include "core/framework.h"
#include "core/scratch.h"
#include "uncertain/pdf.h"

// Counting global allocation functions: every operator new in this test
// binary (plain, array and over-aligned) bumps g_allocations, so a test can
// assert that a code path allocates nothing.
namespace {
std::atomic<size_t> g_allocations{0};

void* CountedAlloc(size_t bytes, size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (bytes == 0) bytes = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes);
  } else if (posix_memalign(&p, align, bytes) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(size_t bytes) { return CountedAlloc(bytes, 0); }
void* operator new[](size_t bytes) { return CountedAlloc(bytes, 0); }
void* operator new(size_t bytes, std::align_val_t align) {
  return CountedAlloc(bytes, static_cast<size_t>(align));
}
void* operator new[](size_t bytes, std::align_val_t align) {
  return CountedAlloc(bytes, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pverify {
namespace {

CandidateSet ThreeStaggered() {
  Dataset data;
  data.emplace_back(0, MakeUniformPdf(1.0, 6.0));
  data.emplace_back(1, MakeUniformPdf(2.0, 7.0));
  data.emplace_back(2, MakeUniformPdf(3.0, 8.0));
  return CandidateSet::Build1D(data, {0, 1, 2}, 0.0);
}

TEST(RsVerifierTest, UpperBoundIsOneMinusRightmostMass) {
  CandidateSet cands = ThreeStaggered();
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  RsVerifier rs;
  rs.Apply(ctx);
  const size_t m = tbl.num_subregions();
  for (size_t i = 0; i < cands.size(); ++i) {
    EXPECT_NEAR(cands[i].bound.upper, 1.0 - tbl.s(i, m - 1), 1e-12);
    EXPECT_DOUBLE_EQ(cands[i].bound.lower, 0.0);  // RS never raises lower
  }
  // Candidate 2 has 0.4 mass beyond f_min → upper bound 0.6.
  EXPECT_NEAR(cands[2].bound.upper, 0.6, 1e-12);
}

TEST(RsVerifierTest, SkipsDecidedCandidates) {
  CandidateSet cands = ThreeStaggered();
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  cands[0].label = Label::kSatisfy;
  cands[0].bound = {0.9, 1.0};
  RsVerifier rs;
  rs.Apply(ctx);
  EXPECT_DOUBLE_EQ(cands[0].bound.upper, 1.0);  // untouched
}

TEST(LsrVerifierTest, LowerBoundsAreSound) {
  CandidateSet cands = ThreeStaggered();
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  LsrVerifier lsr;
  lsr.Apply(ctx);
  std::vector<double> exact = ComputeExactProbabilities(cands, {});
  for (size_t i = 0; i < cands.size(); ++i) {
    EXPECT_LE(cands[i].bound.lower, exact[i] + 1e-9) << "i=" << i;
    EXPECT_GT(cands[i].bound.lower, 0.0) << "i=" << i;
  }
}

TEST(LsrVerifierTest, FirstSubregionAloneGivesFullCredit) {
  // Candidate 0 alone occupies S_1 = [1,2]: q_00.l must be 1 (Lemma 2,
  // c_j = 1 case).
  CandidateSet cands = ThreeStaggered();
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  LsrVerifier lsr;
  lsr.Apply(ctx);
  EXPECT_NEAR(ctx.QLow(0, 0), 1.0, 1e-12);
  // Its total lower bound is at least s_00 = 0.2.
  EXPECT_GE(cands[0].bound.lower, 0.2 - 1e-12);
}

TEST(LsrVerifierTest, MatchesHandComputedLemma2) {
  // Subregion S_2 = [2,3]: participants {0,1}, c = 2.
  // q_02.l = ½·(1 − D_1(2)) = ½·(1 − 0) = ½.
  // q_12.l = ½·(1 − D_0(2)) = ½·(1 − 0.2) = 0.4.
  CandidateSet cands = ThreeStaggered();
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  LsrVerifier lsr;
  lsr.Apply(ctx);
  EXPECT_NEAR(ctx.QLow(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(ctx.QLow(1, 1), 0.4, 1e-12);
}

TEST(UsrVerifierTest, UpperBoundsAreSound) {
  CandidateSet cands = ThreeStaggered();
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  UsrVerifier usr;
  usr.Apply(ctx);
  std::vector<double> exact = ComputeExactProbabilities(cands, {});
  for (size_t i = 0; i < cands.size(); ++i) {
    EXPECT_GE(cands[i].bound.upper, exact[i] - 1e-9) << "i=" << i;
    EXPECT_LT(cands[i].bound.upper, 1.0) << "i=" << i;
  }
}

TEST(UsrVerifierTest, MatchesHandComputedEq5) {
  // Subregion S_1 = [1,2] for candidate 0: Pr(E) at e=1 is 1 (no cdf mass),
  // Pr(F) at e=2: (1−D_1(2))(1−D_2(2)) = 1. q_00.u = 1 — no pruning there.
  // Subregion S_3 = [3,6] for candidate 2: Pr(E) at e=3:
  // (1−D_0(3))(1−D_1(3)) = 0.6·0.8 = 0.48; Pr(F) at e=6 = 0·... = 0.
  // q_23.u = ½·0.48 = 0.24.
  CandidateSet cands = ThreeStaggered();
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  UsrVerifier usr;
  usr.Apply(ctx);
  EXPECT_NEAR(ctx.QUp(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(ctx.QUp(2, 2), 0.24, 1e-12);
  // Candidate 2's upper bound: s_22·q_22.u + s_23(rightmost)·0 = 0.6·0.24.
  EXPECT_NEAR(cands[2].bound.upper, 0.6 * 0.24, 1e-12);
}

TEST(UsrVerifierTest, TighterThanRsForInteriorObjects) {
  CandidateSet cands = ThreeStaggered();
  SubregionTable tbl = SubregionTable::Build(cands);

  CandidateSet cands_rs = cands;
  VerificationContext ctx_rs(&cands_rs, &tbl);
  RsVerifier().Apply(ctx_rs);

  VerificationContext ctx_usr(&cands, &tbl);
  UsrVerifier().Apply(ctx_usr);

  for (size_t i = 0; i < cands.size(); ++i) {
    EXPECT_LE(cands[i].bound.upper, cands_rs[i].bound.upper + 1e-12);
  }
  // Strictly tighter for the last candidate here.
  EXPECT_LT(cands[2].bound.upper, cands_rs[2].bound.upper - 0.1);
}

TEST(VerifierChainTest, BoundsOnlyTighten) {
  CandidateSet cands = ThreeStaggered();
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  std::vector<ProbabilityBound> prev(cands.size());
  for (size_t i = 0; i < cands.size(); ++i) prev[i] = cands[i].bound;
  for (Verifier* v : kDefaultVerifierChain) {
    v->Apply(ctx);
    for (size_t i = 0; i < cands.size(); ++i) {
      EXPECT_GE(cands[i].bound.lower, prev[i].lower - 1e-12);
      EXPECT_LE(cands[i].bound.upper, prev[i].upper + 1e-12);
      prev[i] = cands[i].bound;
    }
  }
}

TEST(FrameworkTest, StopsEarlyWhenAllDecided) {
  // With a tiny threshold every candidate satisfies after L-SR at the
  // latest; U-SR must then be skipped.
  CandidateSet cands = ThreeStaggered();
  VerificationFramework fw(&cands, CpnnParams{0.01, 0.0});
  VerificationStats stats = fw.RunDefault();
  EXPECT_EQ(fw.unknown(), 0u);
  EXPECT_FALSE(stats[StageId::kUSR].ran);
}

size_t CountUnknownLabels(const CandidateSet& cands) {
  size_t n = 0;
  for (const Candidate& c : cands.items()) {
    if (c.label == Label::kUnknown) ++n;
  }
  return n;
}

TEST(FrameworkTest, StageUnknownCountsMatchLabels) {
  // Running the default chain's first k stages leaves exactly the labels
  // the k-th stage record reports. At P = 0.35 every stage has work.
  for (size_t k = 1; k <= kNumStages; ++k) {
    CandidateSet cands = ThreeStaggered();
    VerificationFramework fw(&cands, CpnnParams{0.35, 0.01});
    VerificationStats stats = fw.Run(kDefaultVerifierChain, k);
    const StageStats& last = stats.stages[k - 1];
    ASSERT_TRUE(last.ran) << "k=" << k;
    EXPECT_EQ(last.unknown_after, CountUnknownLabels(cands)) << "k=" << k;
    EXPECT_EQ(last.unknown_after, fw.unknown()) << "k=" << k;
  }
}

TEST(FrameworkTest, DefaultChainOrderIsRsLsrUsr) {
  for (size_t s = 0; s < kNumStages; ++s) {
    EXPECT_EQ(kDefaultVerifierChain[s]->id(), static_cast<StageId>(s));
  }
  EXPECT_STREQ(StageName(StageId::kRS), "RS");
  EXPECT_STREQ(StageName(StageId::kLSR), "L-SR");
  EXPECT_STREQ(StageName(StageId::kUSR), "U-SR");
}

/// Twelve overlapping intervals around q = 0, enough that every stage has
/// unknown candidates to work on at P = 0.2.
CandidateSet TwelveOverlapping() {
  Rng rng(7);
  Dataset data;
  std::vector<uint32_t> idx;
  for (uint32_t i = 0; i < 12; ++i) {
    const double lo = rng.Uniform(0.0, 4.0);
    data.emplace_back(i, MakeUniformPdf(lo, lo + rng.Uniform(4.0, 8.0)));
    idx.push_back(i);
  }
  return CandidateSet::Build1D(data, idx, 0.0);
}

TEST(FrameworkTest, WarmVerificationAllocatesNothing) {
  const CandidateSet base = TwelveOverlapping();
  const CpnnParams params{0.2, 0.0};
  QueryScratch scratch;
  Verifier* const reversed[] = {kDefaultVerifierChain[2],
                                kDefaultVerifierChain[1],
                                kDefaultVerifierChain[0]};
  for (int rep = 0; rep < 3; ++rep) {  // rep 0 warms the scratch
    for (bool custom : {false, true}) {
      CandidateSet cands = base;
      VerificationFramework fw(&cands, params, &scratch);
      const size_t before = g_allocations.load();
      VerificationStats stats =
          custom ? fw.Run(reversed, 3) : fw.RunDefault();
      const size_t allocations = g_allocations.load() - before;
      EXPECT_EQ(allocations, 0u) << "rep=" << rep << " custom=" << custom;
      EXPECT_TRUE(stats[custom ? StageId::kUSR : StageId::kRS].ran);
    }
  }
}

// Soundness sweep: on random candidate sets, every verifier's bound must
// contain the exact probability.
class VerifierSoundnessTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(VerifierSoundnessTest, BoundsContainExactProbability) {
  auto [seed, pdf_kind] = GetParam();
  Rng rng(seed * 131 + pdf_kind);
  Dataset data;
  const int n = 2 + static_cast<int>(rng.UniformInt(0, 10));
  for (int i = 0; i < n; ++i) {
    double lo = rng.Uniform(0.0, 50.0);
    double hi = lo + rng.Uniform(0.5, 30.0);
    switch (pdf_kind) {
      case 0:
        data.emplace_back(i, MakeUniformPdf(lo, hi));
        break;
      case 1:
        data.emplace_back(i, MakeGaussianPdf(lo, hi, 24));
        break;
      default: {
        std::vector<double> w;
        for (int b = 0; b < 5; ++b) w.push_back(rng.Uniform(0.05, 2.0));
        data.emplace_back(i, MakeHistogramPdf(lo, hi, w));
      }
    }
  }
  double q = rng.Uniform(-10.0, 60.0);
  std::vector<uint32_t> all(data.size());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  CandidateSet cands = CandidateSet::Build1D(data, all, q);
  if (cands.empty()) return;
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  std::vector<double> exact = ComputeExactProbabilities(cands, {});

  for (Verifier* v : kDefaultVerifierChain) {
    v->Apply(ctx);
    for (size_t i = 0; i < cands.size(); ++i) {
      EXPECT_LE(cands[i].bound.lower, exact[i] + 1e-6)
          << StageName(v->id()) << " i=" << i << " seed=" << seed;
      EXPECT_GE(cands[i].bound.upper, exact[i] - 1e-6)
          << StageName(v->id()) << " i=" << i << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPdfs, VerifierSoundnessTest,
    ::testing::Combine(::testing::Range(0, 20), ::testing::Range(0, 3)));

}  // namespace
}  // namespace pverify
