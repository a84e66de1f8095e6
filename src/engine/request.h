// The engines' typed request model.
//
// Each query family the engines serve has a payload struct of its own —
// PointQuery, MinQuery, MaxQuery, KnnQuery, CandidatesQuery, Point2DQuery —
// and a QueryRequest is a thin wrapper over a std::variant of them. The
// request kind is derived from the engaged alternative, never stored, so a
// request cannot carry fields that contradict its kind.
//
// CandidatesQuery owns a pre-built candidate set that is CONSUMED when the
// request executes; it is move-only, so the type system rules out the
// accidental payload copies the old fat-struct API had to police at
// runtime. Executing a consumed CandidatesQuery throws at execution time
// (wrapping one into a QueryRequest is unchecked — the error surfaces when
// the engine takes the payload; see has_payload() to check earlier).
// Because one variant alternative is move-only, the whole QueryRequest is
// move-only: build a fresh payload struct per submission (they are a
// couple of words each; the candidate-set payload is exactly the thing
// that must not be duplicated silently).
#ifndef PVERIFY_ENGINE_REQUEST_H_
#define PVERIFY_ENGINE_REQUEST_H_

#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/candidate.h"
#include "core/query.h"
#include "uncertain/geometry2d.h"

namespace pverify {

/// Which query family a request runs. Derived from a QueryRequest's engaged
/// variant alternative (see QueryRequest::kind), never stored.
enum class QueryKind {
  kPoint,       ///< C-PNN at a 1-D query point
  kMin,         ///< minimum query (PNN with q = −∞)
  kMax,         ///< maximum query (PNN with q = +∞)
  kKnn,         ///< constrained probabilistic k-NN
  kCandidates,  ///< C-PNN over a pre-built candidate set
  kPoint2D,     ///< C-PNN at a 2-D query point (needs a 2-D dataset)
  kKnn2D,       ///< constrained k-NN at a 2-D query point (needs 2-D data)
};

std::string_view ToString(QueryKind kind);

/// C-PNN at a 1-D query point.
struct PointQuery {
  double q = 0.0;
  QueryOptions options;
};

/// Minimum query: PNN evaluated below every uncertainty interval.
struct MinQuery {
  QueryOptions options;
};

/// Maximum query: PNN evaluated above every uncertainty interval.
struct MaxQuery {
  QueryOptions options;
};

/// Constrained probabilistic k-NN at a 1-D query point.
struct KnnQuery {
  double q = 0.0;
  int k = 2;
  QueryOptions options;
};

/// C-PNN at a 2-D query point (the engine must own a 2-D dataset).
struct Point2DQuery {
  Point2 q;
  QueryOptions options;
};

/// Constrained probabilistic k-NN at a 2-D query point (the engine must
/// own a 2-D dataset).
struct Knn2DQuery {
  Point2 q;
  int k = 2;
  QueryOptions options;
};

/// C-PNN over a pre-built candidate set. The payload is consumed when the
/// query executes, so the type is move-only: copying would silently
/// duplicate a potentially large candidate set, and the old API's runtime
/// consumption flag existed only to catch what the type system now rejects
/// at compile time. Moving transfers the payload and leaves the source
/// without one; executing a payload-less CandidatesQuery throws.
class CandidatesQuery {
 public:
  CandidatesQuery() = default;
  explicit CandidatesQuery(CandidateSet candidates, QueryOptions options = {});

  CandidatesQuery(const CandidatesQuery&) = delete;
  CandidatesQuery& operator=(const CandidatesQuery&) = delete;
  CandidatesQuery(CandidatesQuery&&) noexcept = default;
  CandidatesQuery& operator=(CandidatesQuery&&) noexcept = default;

  /// True until the payload is taken (by execution or TakeCandidates).
  bool has_payload() const { return candidates_ != nullptr; }

  /// Moves the payload out; throws std::logic_error when it was already
  /// consumed — a re-submitted request is rejected, never answered over a
  /// silently empty set.
  CandidateSet TakeCandidates();

  QueryOptions options;

 private:
  std::unique_ptr<CandidateSet> candidates_;
};

/// One query to execute: a variant over the per-kind payload structs.
/// Constructs implicitly from any payload, so callers write
/// `engine.Execute(PointQuery{12.0, options})`.
struct QueryRequest {
  using Variant = std::variant<PointQuery, MinQuery, MaxQuery, KnnQuery,
                               CandidatesQuery, Point2DQuery, Knn2DQuery>;

  /// The engaged payload. Defaults to PointQuery{} (kind() == kPoint).
  Variant query;

  QueryRequest() = default;
  QueryRequest(PointQuery q) : query(std::move(q)) {}       // NOLINT
  QueryRequest(MinQuery q) : query(std::move(q)) {}         // NOLINT
  QueryRequest(MaxQuery q) : query(std::move(q)) {}         // NOLINT
  QueryRequest(KnnQuery q) : query(std::move(q)) {}         // NOLINT
  QueryRequest(CandidatesQuery q) : query(std::move(q)) {}  // NOLINT
  QueryRequest(Point2DQuery q) : query(std::move(q)) {}     // NOLINT
  QueryRequest(Knn2DQuery q) : query(std::move(q)) {}       // NOLINT

  /// The request kind, derived from the engaged alternative.
  QueryKind kind() const { return static_cast<QueryKind>(query.index()); }

  /// The engaged payload's options (every payload carries one).
  const QueryOptions& options() const;
};

// kind() reads the variant index as a QueryKind; pin the mapping.
static_assert(
    std::is_same_v<std::variant_alternative_t<
                       static_cast<size_t>(QueryKind::kPoint),
                       QueryRequest::Variant>,
                   PointQuery> &&
        std::is_same_v<std::variant_alternative_t<
                           static_cast<size_t>(QueryKind::kMin),
                           QueryRequest::Variant>,
                       MinQuery> &&
        std::is_same_v<std::variant_alternative_t<
                           static_cast<size_t>(QueryKind::kMax),
                           QueryRequest::Variant>,
                       MaxQuery> &&
        std::is_same_v<std::variant_alternative_t<
                           static_cast<size_t>(QueryKind::kKnn),
                           QueryRequest::Variant>,
                       KnnQuery> &&
        std::is_same_v<std::variant_alternative_t<
                           static_cast<size_t>(QueryKind::kCandidates),
                           QueryRequest::Variant>,
                       CandidatesQuery> &&
        std::is_same_v<std::variant_alternative_t<
                           static_cast<size_t>(QueryKind::kPoint2D),
                           QueryRequest::Variant>,
                       Point2DQuery> &&
        std::is_same_v<std::variant_alternative_t<
                           static_cast<size_t>(QueryKind::kKnn2D),
                           QueryRequest::Variant>,
                       Knn2DQuery>,
    "QueryKind values must mirror the variant alternative order");

/// Result of one request, in the same shape regardless of kind.
struct QueryResult {
  /// IDs of objects satisfying the query, ascending.
  std::vector<ObjectId> ids;
  QueryStats stats;
  /// Per-candidate bounds (kPoint/kMin/kMax/kCandidates when
  /// options.report_probabilities is set).
  std::vector<AnswerEntry> candidate_probabilities;
  /// Full k-NN answer; engaged only for kKnn / kKnn2D requests.
  std::optional<CknnAnswer> knn;
};

/// Rejects with std::invalid_argument a request whose query coordinates are
/// not finite (NaN or ±inf), whose threshold P is outside (0, 1], whose
/// tolerance Δ is outside [0, 1], or whose k-NN k is below 1. Every engine
/// calls it first in Execute, ExecuteBatch and SubmitThen, so a bad field
/// never reaches a queue, the integrals or a cache key.
void Validate(const QueryRequest& request);

/// Repackages a core QueryAnswer as an engine QueryResult.
QueryResult ToQueryResult(QueryAnswer&& answer);

}  // namespace pverify

#endif  // PVERIFY_ENGINE_REQUEST_H_
