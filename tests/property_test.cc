// Cross-module property suites: on randomly generated worlds, the system's
// core invariants must hold regardless of pdf shape, query position or
// constraint parameters.
#include <algorithm>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/basic.h"
#include "core/classifier.h"
#include "core/framework.h"
#include "core/query.h"
#include "core/query2d.h"
#include "core/refine.h"
#include "datagen/synthetic.h"

namespace pverify {
namespace {

Dataset RandomDataset(Rng& rng, int n, int pdf_kind) {
  Dataset data;
  for (int i = 0; i < n; ++i) {
    double lo = rng.Uniform(0.0, 80.0);
    double hi = lo + rng.Uniform(0.3, 25.0);
    switch (pdf_kind % 4) {
      case 0:
        data.emplace_back(i, MakeUniformPdf(lo, hi));
        break;
      case 1:
        data.emplace_back(i, MakeGaussianPdf(lo, hi, 30));
        break;
      case 2:
        data.emplace_back(i, MakeTriangularPdf(lo, hi, 16));
        break;
      default: {
        std::vector<double> w;
        for (int b = 0; b < 6; ++b) w.push_back(rng.Uniform(0.02, 2.0));
        data.emplace_back(i, MakeHistogramPdf(lo, hi, w));
      }
    }
  }
  return data;
}

class PipelinePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// Invariant 1: at every stage, bounds contain the exact probability and the
// final C-PNN answer respects Definition 1 w.r.t. the exact probabilities.
TEST_P(PipelinePropertyTest, AnswerRespectsDefinition1) {
  auto [seed, pdf_kind] = GetParam();
  Rng rng(seed * 997 + pdf_kind);
  Dataset data = RandomDataset(rng, 3 + static_cast<int>(rng.UniformInt(0, 17)),
                               pdf_kind);
  CpnnExecutor exec(data);
  double q = rng.Uniform(-10.0, 110.0);
  double P = rng.Uniform(0.05, 0.95);
  double tol = rng.Uniform(0.0, 0.2);

  QueryOptions opt;
  opt.params = {P, tol};
  opt.strategy = Strategy::kVR;
  QueryAnswer ans = exec.Execute(q, opt);

  auto probs = exec.ComputePnn(q);
  std::set<ObjectId> answer(ans.ids.begin(), ans.ids.end());
  for (const auto& [id, p] : probs) {
    if (p >= P + 1e-6) {
      EXPECT_TRUE(answer.count(id))
          << "missing certain answer: seed=" << seed << " id=" << id
          << " p=" << p << " P=" << P;
    }
    if (p < P - tol - 1e-6) {
      EXPECT_FALSE(answer.count(id))
          << "tolerance violated: seed=" << seed << " id=" << id << " p=" << p
          << " P=" << P << " tol=" << tol;
    }
  }
}

// Invariant 2: all four strategies agree exactly at zero tolerance.
TEST_P(PipelinePropertyTest, StrategiesAgreeAtZeroTolerance) {
  auto [seed, pdf_kind] = GetParam();
  Rng rng(seed * 131071 + pdf_kind);
  Dataset data = RandomDataset(rng, 10, pdf_kind);
  CpnnExecutor exec(data);
  double q = rng.Uniform(0.0, 100.0);
  // Avoid thresholds that sit on a probability value (flaky classification).
  double P = 0.37;

  std::vector<ObjectId> expected;
  for (Strategy s : {Strategy::kBasic, Strategy::kRefine, Strategy::kVR}) {
    QueryOptions opt;
    opt.params = {P, 0.0};
    opt.strategy = s;
    auto ans = exec.Execute(q, opt);
    if (s == Strategy::kBasic) {
      expected = ans.ids;
    } else {
      EXPECT_EQ(ans.ids, expected) << "strategy=" << ToString(s)
                                   << " seed=" << seed;
    }
  }
}

// Invariant 3: verifier bounds bracket the exact per-subregion probability,
// and the subregion decomposition reconstructs the Basic integral.
TEST_P(PipelinePropertyTest, SubregionDecompositionConsistent) {
  auto [seed, pdf_kind] = GetParam();
  Rng rng(seed * 523 + pdf_kind);
  Dataset data = RandomDataset(rng, 8, pdf_kind);
  std::vector<uint32_t> idx(data.size());
  for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  CandidateSet cands =
      CandidateSet::Build1D(data, idx, rng.Uniform(0.0, 100.0));
  if (cands.empty()) return;
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  LsrVerifier().Apply(ctx);
  UsrVerifier().Apply(ctx);

  std::vector<double> exact = ComputeExactProbabilities(cands, {});
  for (size_t i = 0; i < cands.size(); ++i) {
    double sum = 0.0;
    for (size_t j = 0; j + 1 < tbl.num_subregions(); ++j) {
      if (!tbl.Participates(i, j)) continue;
      double qij = ExactSubregionProbability(tbl, i, j);
      EXPECT_GE(qij, ctx.QLow(i, j) - 1e-6);
      EXPECT_LE(qij, ctx.QUp(i, j) + 1e-6);
      sum += tbl.s(i, j) * qij;
    }
    EXPECT_NEAR(sum, exact[i], 1e-5) << "i=" << i << " seed=" << seed;
  }
}

// Invariant 4: filtering is lossless — every object with non-zero exact
// probability survives the filter.
TEST_P(PipelinePropertyTest, FilteringIsLossless) {
  auto [seed, pdf_kind] = GetParam();
  Rng rng(seed * 71 + pdf_kind);
  Dataset data = RandomDataset(rng, 25, pdf_kind);
  CpnnExecutor exec(data);
  double q = rng.Uniform(0.0, 100.0);
  FilterResult fr = exec.Filter(q);
  std::set<uint32_t> kept(fr.candidates.begin(), fr.candidates.end());
  // Brute force: every object overlapping [q − fmin, q + fmin] must be kept.
  for (uint32_t i = 0; i < data.size(); ++i) {
    if (data[i].MinDist(q) <= fr.fmin - 1e-9) {
      EXPECT_TRUE(kept.count(i)) << "i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPdfKinds, PipelinePropertyTest,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Range(0, 4)));

// Bounds never widen across the verifier chain, for every pdf kind.
class MonotoneTighteningTest : public ::testing::TestWithParam<int> {};

TEST_P(MonotoneTighteningTest, ChainMonotone) {
  Rng rng(GetParam() * 17 + 1);
  Dataset data = RandomDataset(rng, 12, GetParam() % 4);
  std::vector<uint32_t> idx(data.size());
  for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  CandidateSet cands =
      CandidateSet::Build1D(data, idx, rng.Uniform(0.0, 100.0));
  if (cands.empty()) return;
  SubregionTable tbl = SubregionTable::Build(cands);
  VerificationContext ctx(&cands, &tbl);
  std::vector<double> lo(cands.size(), 0.0), hi(cands.size(), 1.0);
  for (Verifier* v : kDefaultVerifierChain) {
    v->Apply(ctx);
    for (size_t i = 0; i < cands.size(); ++i) {
      EXPECT_GE(cands[i].bound.lower, lo[i] - 1e-12);
      EXPECT_LE(cands[i].bound.upper, hi[i] + 1e-12);
      EXPECT_LE(cands[i].bound.lower, cands[i].bound.upper + 1e-12);
      lo[i] = cands[i].bound.lower;
      hi[i] = cands[i].bound.upper;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotoneTighteningTest,
                         ::testing::Range(0, 16));

// 2-D sweep: the same Definition 1 guarantees must hold when distance
// distributions come from exact circle/rectangle geometry.
class Pipeline2DPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(Pipeline2DPropertyTest, AnswerRespectsDefinition1In2D) {
  Rng rng(GetParam() * 389 + 7);
  datagen::Synthetic2DConfig config;
  config.count = 120;
  config.mean_extent = 50.0;
  config.max_extent = 200.0;
  config.seed = static_cast<uint64_t>(GetParam()) + 1;
  CpnnExecutor2D exec(datagen::MakeSynthetic2D(config), 96);
  Point2 q{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
  double P = rng.Uniform(0.1, 0.8);
  double tol = rng.Uniform(0.0, 0.1);

  QueryOptions opt;
  opt.params = {P, tol};
  opt.strategy = Strategy::kVR;
  QueryAnswer ans = exec.Execute(q, opt);
  auto probs = exec.ComputePnn(q);
  std::set<ObjectId> answer(ans.ids.begin(), ans.ids.end());
  // Radial-cdf discretization introduces a small epsilon; allow it in the
  // comparison margins.
  const double disc = 5e-3;
  for (const auto& [id, p] : probs) {
    if (p >= P + disc) {
      EXPECT_TRUE(answer.count(id)) << "id=" << id;
    }
    if (p < P - tol - disc) {
      EXPECT_FALSE(answer.count(id)) << "id=" << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Pipeline2DPropertyTest,
                         ::testing::Range(0, 8));

// QueryStats aggregation used by every workload/bench must be additive.
TEST(QueryStatsTest, AccumulateIntoSums) {
  QueryStats a;
  a.filter_ms = 1.0;
  a.verify_ms = 2.0;
  a.candidates = 10;
  a.finished_after_verification = true;
  QueryStats b;
  b.filter_ms = 0.5;
  b.refine_ms = 3.0;
  b.candidates = 4;
  b.finished_after_verification = false;
  QueryStats total;
  a.AccumulateInto(total);
  b.AccumulateInto(total);
  EXPECT_DOUBLE_EQ(total.filter_ms, 1.5);
  EXPECT_DOUBLE_EQ(total.verify_ms, 2.0);
  EXPECT_DOUBLE_EQ(total.refine_ms, 3.0);
  EXPECT_EQ(total.candidates, 14u);
  EXPECT_EQ(total.queries_finished_after_verify, 1u);
}

// Degenerate and adversarial candidate geometries must not break the
// pipeline.
TEST(EdgeCaseTest, ManyIdenticalObjects) {
  Dataset data;
  for (int i = 0; i < 40; ++i) {
    data.emplace_back(i, MakeUniformPdf(5.0, 8.0));
  }
  CpnnExecutor exec(data);
  auto probs = exec.ComputePnn(6.0);
  ASSERT_EQ(probs.size(), 40u);
  for (const auto& [id, p] : probs) EXPECT_NEAR(p, 1.0 / 40.0, 1e-6);
  QueryOptions opt;
  opt.params = {1.0 / 40.0 + 0.01, 0.0};
  opt.strategy = Strategy::kVR;
  EXPECT_TRUE(exec.Execute(6.0, opt).ids.empty());
}

TEST(EdgeCaseTest, TouchingIntervals) {
  Dataset data;
  data.emplace_back(0, MakeUniformPdf(0.0, 2.0));
  data.emplace_back(1, MakeUniformPdf(2.0, 4.0));  // touches at 2
  data.emplace_back(2, MakeUniformPdf(4.0, 6.0));  // touches at 4
  CpnnExecutor exec(data);
  for (double q : {0.0, 2.0, 3.0, 4.0, 6.0}) {
    auto probs = exec.ComputePnn(q);
    double sum = 0.0;
    for (const auto& [id, p] : probs) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-6) << "q=" << q;
  }
}

TEST(EdgeCaseTest, ExtremeScaleValues) {
  Dataset data;
  data.emplace_back(0, MakeUniformPdf(1e9, 1e9 + 1e-3));
  data.emplace_back(1, MakeUniformPdf(1e9 + 5e-4, 1e9 + 2e-3));
  CpnnExecutor exec(data);
  auto probs = exec.ComputePnn(1e9);
  ASSERT_FALSE(probs.empty());
  double sum = 0.0;
  for (const auto& [id, p] : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(EdgeCaseTest, HeavilySkewedHistogram) {
  // Nearly all mass in one thin bar.
  std::vector<double> w(20, 1e-6);
  w[10] = 1.0;
  Dataset data;
  data.emplace_back(0, MakeHistogramPdf(0.0, 10.0, w));
  data.emplace_back(1, MakeUniformPdf(4.0, 7.0));
  CpnnExecutor exec(data);
  QueryOptions opt;
  opt.params = {0.3, 0.0};
  opt.strategy = Strategy::kVR;
  QueryOptions basic = opt;
  basic.strategy = Strategy::kBasic;
  for (double q : {0.0, 5.2, 9.0}) {
    EXPECT_EQ(exec.Execute(q, opt).ids, exec.Execute(q, basic).ids)
        << "q=" << q;
  }
}

}  // namespace
}  // namespace pverify
