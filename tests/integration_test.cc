// End-to-end tests exercising the full pipeline (filter → verify → refine)
// on realistic workloads, including the 2-D extension path.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/query.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "uncertain/distance2d.h"

namespace pverify {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::SyntheticConfig config;
    config.count = 5000;
    dataset_ = new Dataset(datagen::MakeSynthetic(config));
    executor_ = new CpnnExecutor(*dataset_);
  }
  static void TearDownTestSuite() {
    delete executor_;
    delete dataset_;
    executor_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static CpnnExecutor* executor_;
};

Dataset* EndToEndTest::dataset_ = nullptr;
CpnnExecutor* EndToEndTest::executor_ = nullptr;

TEST_F(EndToEndTest, VrAnswersBracketedByExactSets) {
  auto queries = datagen::MakeQueryPoints(15, 0.0, 10000.0, 21);
  const double P = 0.3, tol = 0.02;
  for (double q : queries) {
    QueryOptions vr;
    vr.params = {P, tol};
    vr.strategy = Strategy::kVR;
    auto ans = executor_->Execute(q, vr);
    auto probs = executor_->ComputePnn(q);

    std::set<ObjectId> answer(ans.ids.begin(), ans.ids.end());
    for (const auto& [id, p] : probs) {
      if (p >= P + 1e-6) {
        EXPECT_TRUE(answer.count(id)) << "q=" << q << " id=" << id
                                      << " p=" << p;
      }
      if (p < P - tol - 1e-6) {
        EXPECT_FALSE(answer.count(id)) << "q=" << q << " id=" << id
                                       << " p=" << p;
      }
    }
  }
}

TEST_F(EndToEndTest, VerifiersReduceRefinementWork) {
  auto queries = datagen::MakeQueryPoints(15, 0.0, 10000.0, 22);
  QueryOptions vr;
  vr.params = {0.3, 0.01};
  vr.strategy = Strategy::kVR;
  QueryOptions refine = vr;
  refine.strategy = Strategy::kRefine;
  size_t vr_integrations = 0, refine_integrations = 0;
  for (double q : queries) {
    vr_integrations += executor_->Execute(q, vr).stats.subregion_integrations;
    refine_integrations +=
        executor_->Execute(q, refine).stats.subregion_integrations;
  }
  EXPECT_LT(vr_integrations, refine_integrations);
}

TEST_F(EndToEndTest, HighThresholdUsuallyFinishesAfterVerification) {
  auto queries = datagen::MakeQueryPoints(20, 0.0, 10000.0, 23);
  QueryOptions vr;
  vr.params = {0.7, 0.01};
  vr.strategy = Strategy::kVR;
  auto result = datagen::RunWorkload(*executor_, queries, vr);
  // Paper Fig. 11: for P > 0.3 essentially no probabilities need refining.
  EXPECT_GE(result.FractionFinishedAfterVerify(), 0.8);
}

TEST_F(EndToEndTest, AnswerCountShrinksWithThreshold) {
  auto queries = datagen::MakeQueryPoints(10, 0.0, 10000.0, 24);
  size_t prev = SIZE_MAX;
  for (double P : {0.1, 0.3, 0.6, 0.9}) {
    QueryOptions opt;
    opt.params = {P, 0.0};
    opt.strategy = Strategy::kVR;
    auto result = datagen::RunWorkload(*executor_, queries, opt);
    EXPECT_LE(result.answers, prev);
    prev = result.answers;
  }
}

TEST_F(EndToEndTest, GaussianDatasetPipeline) {
  datagen::SyntheticConfig config;
  config.count = 800;
  config.pdf = datagen::PdfKind::kGaussian;
  config.gaussian_bars = 100;  // trimmed for test speed
  Dataset data = datagen::MakeSynthetic(config);
  CpnnExecutor exec(data);
  auto queries = datagen::MakeQueryPoints(5, 0.0, 10000.0, 25);
  for (double q : queries) {
    QueryOptions vr;
    vr.params = {0.3, 0.01};
    vr.strategy = Strategy::kVR;
    auto ans = exec.Execute(q, vr);
    QueryOptions basic = vr;
    basic.strategy = Strategy::kBasic;
    basic.params.tolerance = 0.0;
    auto truth = exec.Execute(q, basic);
    // VR answers must contain every strict answer.
    std::set<ObjectId> got(ans.ids.begin(), ans.ids.end());
    for (ObjectId id : truth.ids) EXPECT_TRUE(got.count(id)) << "q=" << q;
  }
}

TEST(TwoDimensionalPipelineTest, EndToEnd) {
  Dataset2D data = datagen::MakeSynthetic2D({.count = 400, .seed = 3});
  PnnFilter2D filter(data);
  Point2 q{500.0, 500.0};
  FilterResult filtered = filter.Filter(q);
  ASSERT_FALSE(filtered.candidates.empty());

  std::vector<std::pair<ObjectId, DistanceDistribution>> dists;
  for (uint32_t idx : filtered.candidates) {
    dists.emplace_back(data[idx].id(),
                       MakeDistanceDistribution2D(data[idx], q, 48));
  }
  CandidateSet cands = CandidateSet::FromDistances(std::move(dists));
  ASSERT_FALSE(cands.empty());

  QueryOptions opt;
  opt.params = {0.2, 0.01};
  opt.strategy = Strategy::kVR;
  opt.report_probabilities = true;
  QueryAnswer ans = ExecuteOnCandidates(cands, opt);

  // Exact check against the Basic evaluator on the same candidates.
  std::vector<double> exact = ComputeExactProbabilities(cands, {});
  std::set<ObjectId> answer(ans.ids.begin(), ans.ids.end());
  for (size_t i = 0; i < cands.size(); ++i) {
    if (exact[i] >= 0.2 + 1e-6) {
      EXPECT_TRUE(answer.count(cands[i].id));
    }
    if (exact[i] < 0.2 - 0.01 - 1e-6) {
      EXPECT_FALSE(answer.count(cands[i].id));
    }
  }
}

TEST(TwoDimensionalPipelineTest, ProbabilitiesSumToOne) {
  Dataset2D data = datagen::MakeSynthetic2D({.count = 300, .seed = 8});
  PnnFilter2D filter(data);
  Point2 q{250.0, 700.0};
  FilterResult filtered = filter.Filter(q);
  std::vector<std::pair<ObjectId, DistanceDistribution>> dists;
  for (uint32_t idx : filtered.candidates) {
    dists.emplace_back(data[idx].id(),
                       MakeDistanceDistribution2D(data[idx], q, 64));
  }
  CandidateSet cands = CandidateSet::FromDistances(std::move(dists));
  std::vector<double> exact = ComputeExactProbabilities(cands, {});
  double sum = 0.0;
  for (double p : exact) sum += p;
  EXPECT_NEAR(sum, 1.0, 2e-2);  // radial-cdf discretization tolerance
}

}  // namespace
}  // namespace pverify
