// Tests for the typed request model (engine/request.h): the move-only
// CandidatesQuery contract — copies fail to compile, re-submission of a
// consumed payload is rejected on both engines — and the derived-kind
// variant plumbing (kind()/options() across every payload).
#include "engine/request.h"

#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "engine/query_engine.h"

namespace pverify {
namespace {

// --- Compile-time contract: CandidatesQuery (and therefore QueryRequest,
// whose variant contains it) cannot be copied, only moved. ---------------
static_assert(!std::is_copy_constructible_v<CandidatesQuery>,
              "CandidatesQuery must not be copyable — copying would "
              "silently duplicate the consumable payload");
static_assert(!std::is_copy_assignable_v<CandidatesQuery>,
              "CandidatesQuery must not be copy-assignable");
static_assert(std::is_nothrow_move_constructible_v<CandidatesQuery>,
              "CandidatesQuery must be movable");
static_assert(!std::is_copy_constructible_v<QueryRequest>,
              "QueryRequest holds a move-only alternative, so the whole "
              "request is move-only");
static_assert(!std::is_copy_assignable_v<QueryRequest>,
              "QueryRequest must not be copy-assignable");
static_assert(std::is_move_constructible_v<QueryRequest>,
              "QueryRequest must be movable");
// The plain payload structs stay copyable — only the candidate set is
// consumable.
static_assert(std::is_copy_constructible_v<PointQuery> &&
                  std::is_copy_constructible_v<MinQuery> &&
                  std::is_copy_constructible_v<MaxQuery> &&
                  std::is_copy_constructible_v<KnnQuery> &&
                  std::is_copy_constructible_v<Point2DQuery>,
              "non-consumable payload structs are plain value types");

QueryOptions TestOptions() {
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;
  return opt;
}

TEST(QueryRequestTest, KindIsDerivedFromTheEngagedPayload) {
  QueryOptions opt = TestOptions();
  EXPECT_EQ(QueryRequest(PointQuery{1.0, opt}).kind(), QueryKind::kPoint);
  EXPECT_EQ(QueryRequest(MinQuery{opt}).kind(), QueryKind::kMin);
  EXPECT_EQ(QueryRequest(MaxQuery{opt}).kind(), QueryKind::kMax);
  EXPECT_EQ(QueryRequest(KnnQuery{1.0, 3, opt}).kind(), QueryKind::kKnn);
  EXPECT_EQ(QueryRequest(CandidatesQuery(CandidateSet{}, opt)).kind(),
            QueryKind::kCandidates);
  EXPECT_EQ(QueryRequest(Point2DQuery{{1.0, 2.0}, opt}).kind(),
            QueryKind::kPoint2D);
  // Default request is a point query, like the old fat struct's default.
  EXPECT_EQ(QueryRequest{}.kind(), QueryKind::kPoint);
  EXPECT_EQ(ToString(QueryKind::kCandidates), "candidates");
}

TEST(QueryRequestTest, OptionsAccessorReachesEveryPayload) {
  QueryOptions opt = TestOptions();
  opt.report_probabilities = true;
  const std::vector<QueryRequest> requests = [&] {
    std::vector<QueryRequest> r;
    r.push_back(PointQuery{1.0, opt});
    r.push_back(MinQuery{opt});
    r.push_back(MaxQuery{opt});
    r.push_back(KnnQuery{1.0, 3, opt});
    r.push_back(CandidatesQuery(CandidateSet{}, opt));
    r.push_back(Point2DQuery{{1.0, 2.0}, opt});
    return r;
  }();
  for (const QueryRequest& request : requests) {
    EXPECT_TRUE(request.options().report_probabilities)
        << ToString(request.kind());
    EXPECT_EQ(request.options().params.threshold, 0.3)
        << ToString(request.kind());
  }
}

TEST(QueryRequestTest, MovingTransfersThePayloadExactlyOnce) {
  CandidatesQuery original(CandidateSet{}, TestOptions());
  EXPECT_TRUE(original.has_payload());

  CandidatesQuery moved = std::move(original);
  EXPECT_TRUE(moved.has_payload());
  EXPECT_FALSE(original.has_payload());

  (void)moved.TakeCandidates();
  EXPECT_FALSE(moved.has_payload());
  EXPECT_THROW(moved.TakeCandidates(), std::logic_error);
  EXPECT_THROW(original.TakeCandidates(), std::logic_error);
}

// Re-submission of a consumed CandidatesQuery is rejected at one shard
// and at two, in every build type (the engine_test covers the serial/batch
// paths in more detail).
TEST(QueryRequestTest, EveryShardCountRejectsConsumedCandidatesRequests) {
  Dataset data = datagen::MakeUniformScatter(120, 100.0, 2.0, /*seed=*/5);
  const CpnnExecutor exec(data);
  QueryOptions opt = TestOptions();
  const double q = 50.0;

  for (size_t shards : {1u, 2u}) {
    QueryEngine engine(data, EngineOptions{2, shards});
    FilterResult filtered = exec.Filter(q);
    QueryRequest request = CandidatesQuery(
        CandidateSet::Build1D(data, filtered.candidates, q), opt);
    QueryResult first = engine.Execute(std::move(request));
    EXPECT_GT(first.stats.candidates, 0u) << shards << " shards";
    EXPECT_THROW(engine.Execute(std::move(request)), std::logic_error)
        << shards << " shards";
  }
}

}  // namespace
}  // namespace pverify
