#include "core/query2d.h"

#include <set>
#include <type_traits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/synthetic.h"

namespace pverify {
namespace {

Dataset2D SmallFleet() {
  Dataset2D data;
  data.emplace_back(0, Circle2{0.0, 0.0, 5.0});
  data.emplace_back(1, Circle2{8.0, 0.0, 5.0});
  data.emplace_back(2, Rect2{-2.0, 6.0, 4.0, 12.0});
  data.emplace_back(3, Circle2{100.0, 100.0, 2.0});
  return data;
}

TEST(Executor2DTest, PnnProbabilitiesSumToOne) {
  CpnnExecutor2D exec(SmallFleet(), /*radial_pieces=*/128);
  for (Point2 q : {Point2{0.0, 0.0}, Point2{4.0, 2.0}, Point2{50.0, 50.0}}) {
    auto probs = exec.ComputePnn(q);
    ASSERT_FALSE(probs.empty());
    double sum = 0.0;
    for (const auto& [id, p] : probs) sum += p;
    EXPECT_NEAR(sum, 1.0, 2e-2);
  }
}

TEST(Executor2DTest, ObviousNearestWins) {
  CpnnExecutor2D exec(SmallFleet());
  // Query at the center of object 0, far from everything else.
  auto probs = exec.ComputePnn({0.0, 0.0});
  double p0 = 0.0;
  for (const auto& [id, p] : probs) {
    if (id == 0) p0 = p;
  }
  EXPECT_GT(p0, 0.8);
}

TEST(Executor2DTest, FarObjectFilteredOut) {
  CpnnExecutor2D exec(SmallFleet());
  FilterResult fr = exec.Filter({0.0, 0.0});
  std::set<uint32_t> kept(fr.candidates.begin(), fr.candidates.end());
  EXPECT_FALSE(kept.count(3));  // the distant circle cannot qualify
}

TEST(Executor2DTest, CpnnAnswerMatchesExactProbabilities) {
  Dataset2D data = datagen::MakeSynthetic2D({.count = 250, .seed = 21});
  CpnnExecutor2D exec(std::move(data));
  Rng rng(5);
  for (int t = 0; t < 5; ++t) {
    Point2 q{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    QueryOptions opt;
    opt.params = {0.25, 0.02};
    opt.strategy = Strategy::kVR;
    QueryAnswer ans = exec.Execute(q, opt);
    auto probs = exec.ComputePnn(q);
    std::set<ObjectId> answer(ans.ids.begin(), ans.ids.end());
    for (const auto& [id, p] : probs) {
      if (p >= 0.25 + 1e-4) {
        EXPECT_TRUE(answer.count(id)) << "id=" << id;
      }
      if (p < 0.25 - 0.02 - 1e-4) {
        EXPECT_FALSE(answer.count(id)) << "id=" << id;
      }
    }
  }
}

TEST(Executor2DTest, StrategiesAgree) {
  Dataset2D data = datagen::MakeSynthetic2D({.count = 150, .seed = 33});
  CpnnExecutor2D exec(std::move(data));
  QueryOptions vr;
  vr.params = {0.3, 0.0};
  vr.strategy = Strategy::kVR;
  QueryOptions basic = vr;
  basic.strategy = Strategy::kBasic;
  Rng rng(6);
  for (int t = 0; t < 5; ++t) {
    Point2 q{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    EXPECT_EQ(exec.Execute(q, vr).ids, exec.Execute(q, basic).ids);
  }
}

TEST(Executor2DTest, StatsPopulated) {
  CpnnExecutor2D exec(SmallFleet());
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;
  QueryAnswer ans = exec.Execute({1.0, 1.0}, opt);
  EXPECT_EQ(ans.stats.dataset_size, 4u);
  EXPECT_GT(ans.stats.candidates, 0u);
  EXPECT_GT(ans.stats.init_ms, 0.0);
}

TEST(Executor2DTest, ValidatesRadialPieces) {
  EXPECT_THROW(CpnnExecutor2D(SmallFleet(), 2), std::logic_error);
}

// The filter points into the executor's own dataset, so a moved or copied
// executor would filter through a dangling pointer.
TEST(Executor2DTest, ExecutorIsNeitherCopyableNorMovable) {
  EXPECT_FALSE(std::is_copy_constructible_v<CpnnExecutor2D>);
  EXPECT_FALSE(std::is_move_constructible_v<CpnnExecutor2D>);
  EXPECT_FALSE(std::is_move_assignable_v<CpnnExecutor2D>);
}

}  // namespace
}  // namespace pverify
