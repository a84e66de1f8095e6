#include "core/query.h"

#include <algorithm>
#include <set>
#include <type_traits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/synthetic.h"

namespace pverify {
namespace {

Dataset SmallWorld() {
  Dataset data;
  data.emplace_back(10, MakeUniformPdf(0.0, 2.0));
  data.emplace_back(11, MakeUniformPdf(1.0, 3.0));
  data.emplace_back(12, MakeUniformPdf(2.5, 4.0));
  data.emplace_back(13, MakeUniformPdf(8.0, 9.0));
  return data;
}

TEST(QueryTest, StrategiesAgreeOnClearAnswers) {
  Dataset data = datagen::MakeUniformScatter(400, 200.0, 2.0, 3);
  CpnnExecutor exec(data);
  Rng rng(5);
  for (int t = 0; t < 10; ++t) {
    double q = rng.Uniform(0.0, 200.0);
    QueryOptions opt;
    opt.params = {0.3, 0.0};  // zero tolerance → identical answer sets
    opt.strategy = Strategy::kBasic;
    auto basic = exec.Execute(q, opt);
    opt.strategy = Strategy::kRefine;
    auto refine = exec.Execute(q, opt);
    opt.strategy = Strategy::kVR;
    auto vr = exec.Execute(q, opt);
    EXPECT_EQ(basic.ids, refine.ids) << "q=" << q;
    EXPECT_EQ(basic.ids, vr.ids) << "q=" << q;
  }
}

TEST(QueryTest, ToleranceOnlyAdmitsBorderline) {
  Dataset data = datagen::MakeUniformScatter(400, 200.0, 2.0, 7);
  CpnnExecutor exec(data);
  Rng rng(9);
  for (int t = 0; t < 10; ++t) {
    double q = rng.Uniform(0.0, 200.0);
    QueryOptions strict;
    strict.params = {0.3, 0.0};
    strict.strategy = Strategy::kBasic;
    auto exact = exec.Execute(q, strict);

    QueryOptions loose;
    loose.params = {0.3, 0.05};
    loose.strategy = Strategy::kVR;
    auto vr = exec.Execute(q, loose);

    // VR with tolerance must return a superset of the strict answers...
    std::set<ObjectId> vr_set(vr.ids.begin(), vr.ids.end());
    for (ObjectId id : exact.ids) {
      EXPECT_TRUE(vr_set.count(id)) << "q=" << q << " id=" << id;
    }
    // ...and only add objects with probability >= P − Δ.
    QueryOptions relaxed;
    relaxed.params = {0.25, 0.0};  // P − Δ
    relaxed.strategy = Strategy::kBasic;
    auto relaxed_ans = exec.Execute(q, relaxed);
    std::set<ObjectId> relaxed_set(relaxed_ans.ids.begin(),
                                   relaxed_ans.ids.end());
    for (ObjectId id : vr.ids) {
      EXPECT_TRUE(relaxed_set.count(id)) << "q=" << q << " id=" << id;
    }
  }
}

TEST(QueryTest, IntroExampleThresholding) {
  // Mirror of the paper's Fig. 2 idea: with P between the best and
  // second-best probability, only the best object comes back.
  Dataset data = SmallWorld();
  CpnnExecutor exec(data);
  const double q = 1.2;  // asymmetric position → unique most-likely NN
  auto probs = exec.ComputePnn(q);
  std::vector<double> sorted;
  for (const auto& [id, p] : probs) sorted.push_back(p);
  std::sort(sorted.rbegin(), sorted.rend());
  ASSERT_GE(sorted.size(), 2u);
  ASSERT_GT(sorted[0], sorted[1] + 1e-6);
  auto best = std::max_element(
      probs.begin(), probs.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  QueryOptions opt;
  opt.params = {0.5 * (sorted[0] + sorted[1]), 0.0};
  opt.strategy = Strategy::kVR;
  auto ans = exec.Execute(q, opt);
  ASSERT_EQ(ans.ids.size(), 1u);
  EXPECT_EQ(ans.ids[0], best->first);
}

TEST(QueryTest, PnnProbabilitiesSumToOne) {
  Dataset data = SmallWorld();
  CpnnExecutor exec(data);
  for (double q : {0.0, 1.0, 2.0, 5.0, 8.5, 20.0}) {
    auto probs = exec.ComputePnn(q);
    double sum = 0.0;
    for (const auto& [id, p] : probs) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-6) << "q=" << q;
  }
}

TEST(QueryTest, ReportProbabilitiesCarriesBounds) {
  Dataset data = SmallWorld();
  CpnnExecutor exec(data);
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;
  opt.report_probabilities = true;
  auto ans = exec.Execute(1.5, opt);
  EXPECT_FALSE(ans.candidate_probabilities.empty());
  for (const AnswerEntry& e : ans.candidate_probabilities) {
    EXPECT_GE(e.bound.lower, -1e-12);
    EXPECT_LE(e.bound.upper, 1.0 + 1e-12);
    EXPECT_LE(e.bound.lower, e.bound.upper + 1e-12);
  }
}

TEST(QueryTest, StatsPhasesArePopulated) {
  Dataset data = datagen::MakeUniformScatter(2000, 1000.0, 2.0, 13);
  CpnnExecutor exec(data);
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;
  auto ans = exec.Execute(500.0, opt);
  EXPECT_EQ(ans.stats.dataset_size, 2000u);
  EXPECT_GT(ans.stats.candidates, 0u);
  EXPECT_GT(ans.stats.num_subregions, 0u);
  EXPECT_GE(ans.stats.total_ms, 0.0);
  EXPECT_TRUE(ans.stats.verification[StageId::kRS].ran);
}

TEST(QueryTest, RefineStrategyReportsInitTime) {
  // kRefine builds the subregion table too; its build time is init time.
  Dataset data = datagen::MakeUniformScatter(2000, 1000.0, 2.0, 13);
  CpnnExecutor exec(data);
  FilterResult filtered = exec.Filter(500.0);
  CandidateSet cands =
      CandidateSet::Build1D(data, filtered.candidates, 500.0);
  ASSERT_FALSE(cands.empty());
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kRefine;
  QueryAnswer ans = ExecuteOnCandidates(std::move(cands), opt);
  EXPECT_GT(ans.stats.num_subregions, 0u);
  EXPECT_GT(ans.stats.init_ms, 0.0);
}

TEST(QueryTest, MonteCarloStrategyApproximatesBasic) {
  Dataset data = SmallWorld();
  CpnnExecutor exec(data);
  QueryOptions mc;
  mc.params = {0.3, 0.0};
  mc.strategy = Strategy::kMonteCarlo;
  mc.monte_carlo.samples = 50000;
  auto ans_mc = exec.Execute(1.5, mc);
  QueryOptions basic = mc;
  basic.strategy = Strategy::kBasic;
  auto ans_basic = exec.Execute(1.5, basic);
  EXPECT_EQ(ans_mc.ids, ans_basic.ids);
}

TEST(QueryTest, EmptyCandidateRegionsStillAnswer) {
  Dataset data;
  data.emplace_back(0, MakeUniformPdf(100.0, 101.0));
  CpnnExecutor exec(data);
  QueryOptions opt;
  opt.params = {0.9, 0.0};
  auto ans = exec.Execute(0.0, opt);
  ASSERT_EQ(ans.ids.size(), 1u);  // lone object is certain NN
  EXPECT_EQ(ans.ids[0], 0);
}

TEST(QueryTest, ThresholdOneReturnsOnlyCertainObject) {
  Dataset data = SmallWorld();
  CpnnExecutor exec(data);
  QueryOptions opt;
  opt.params = {1.0, 0.0};
  opt.strategy = Strategy::kVR;
  // q = 8.5 is inside object 13 and far from the rest → p = 1.
  auto ans = exec.Execute(8.5, opt);
  ASSERT_EQ(ans.ids.size(), 1u);
  EXPECT_EQ(ans.ids[0], 13);
  // q = 1.5 has no certain winner.
  auto none = exec.Execute(1.5, opt);
  EXPECT_TRUE(none.ids.empty());
}

TEST(QueryTest, KnnExecutorPath) {
  Dataset data = SmallWorld();
  CpnnExecutor exec(data);
  CknnAnswer knn = exec.ExecuteKnn(1.5, 2, {0.5, 0.0});
  // Objects 10 and 11 hug the query; both should be near-certain top-2.
  std::set<ObjectId> got(knn.ids.begin(), knn.ids.end());
  EXPECT_TRUE(got.count(10));
  EXPECT_TRUE(got.count(11));
  EXPECT_FALSE(got.count(13));
}

TEST(QueryTest, KnnKeepsObjectsPrunedByPnnFilter) {
  // Object B would be pruned by 1-NN filtering but matters for k = 2.
  Dataset data;
  data.emplace_back(0, MakeUniformPdf(0.0, 1.0));   // far point 1
  data.emplace_back(1, MakeUniformPdf(2.0, 3.0));   // near 2 > fmin 1
  CpnnExecutor exec(data);
  CknnAnswer knn = exec.ExecuteKnn(0.0, 2, {0.9, 0.0});
  EXPECT_EQ(knn.ids.size(), 2u);
}

TEST(QueryTest, MinimumQueryFindsLowObjects) {
  Dataset data = SmallWorld();
  CpnnExecutor exec(data);
  QueryOptions opt;
  opt.params = {0.3, 0.0};
  opt.strategy = Strategy::kVR;
  QueryAnswer ans = exec.ExecuteMin(opt);
  // Object 10 ([0,2]) dominates the minimum; object 13 ([8,9]) never can.
  ASSERT_FALSE(ans.ids.empty());
  EXPECT_EQ(ans.ids[0], 10);
  for (ObjectId id : ans.ids) EXPECT_NE(id, 13);
}

TEST(QueryTest, MaximumQueryFindsHighObjects) {
  Dataset data = SmallWorld();
  CpnnExecutor exec(data);
  QueryOptions opt;
  opt.params = {0.5, 0.0};
  opt.strategy = Strategy::kVR;
  QueryAnswer ans = exec.ExecuteMax(opt);
  // Object 13 ([8,9]) is certainly the maximum.
  ASSERT_EQ(ans.ids.size(), 1u);
  EXPECT_EQ(ans.ids[0], 13);
}

TEST(QueryTest, MinQueryMatchesBruteForceOrderStatistics) {
  // P(X_i is minimum) via Monte-Carlo over the raw value pdfs.
  Dataset data;
  data.emplace_back(0, MakeUniformPdf(0.0, 3.0));
  data.emplace_back(1, MakeUniformPdf(1.0, 4.0));
  data.emplace_back(2, MakeUniformPdf(2.0, 5.0));
  CpnnExecutor exec(data);
  auto probs = exec.ComputePnn(-1.0);  // below every region
  Rng rng(61);
  std::vector<int> wins(3, 0);
  const int kSamples = 100000;
  for (int s = 0; s < kSamples; ++s) {
    double best = 1e18;
    size_t arg = 0;
    for (size_t i = 0; i < 3; ++i) {
      double v = data[i].pdf().Quantile(rng.Uniform(0.0, 1.0));
      if (v < best) {
        best = v;
        arg = i;
      }
    }
    ++wins[arg];
  }
  for (const auto& [id, p] : probs) {
    double mc = static_cast<double>(wins[static_cast<size_t>(id)]) /
                kSamples;
    EXPECT_NEAR(p, mc, 0.01) << "id=" << id;
  }
}

TEST(QueryTest, StrategyNames) {
  EXPECT_EQ(ToString(Strategy::kBasic), "Basic");
  EXPECT_EQ(ToString(Strategy::kRefine), "Refine");
  EXPECT_EQ(ToString(Strategy::kVR), "VR");
  EXPECT_EQ(ToString(Strategy::kMonteCarlo), "MonteCarlo");
}

TEST(QueryTest, InvalidParamsRejected) {
  Dataset data = SmallWorld();
  CpnnExecutor exec(data);
  QueryOptions opt;
  opt.params = {0.0, 0.0};
  EXPECT_THROW(exec.Execute(1.0, opt), std::logic_error);
}

// The filter points into the executor's own dataset, so a moved or copied
// executor would filter through a dangling pointer.
TEST(QueryTest, ExecutorIsNeitherCopyableNorMovable) {
  EXPECT_FALSE(std::is_copy_constructible_v<CpnnExecutor>);
  EXPECT_FALSE(std::is_move_constructible_v<CpnnExecutor>);
  EXPECT_FALSE(std::is_move_assignable_v<CpnnExecutor>);
}

}  // namespace
}  // namespace pverify
