#include "engine/request.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.h"

namespace pverify {

std::string_view ToString(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPoint:
      return "point";
    case QueryKind::kMin:
      return "min";
    case QueryKind::kMax:
      return "max";
    case QueryKind::kKnn:
      return "knn";
    case QueryKind::kCandidates:
      return "candidates";
    case QueryKind::kPoint2D:
      return "point2d";
    case QueryKind::kKnn2D:
      return "knn2d";
  }
  return "?";
}

CandidatesQuery::CandidatesQuery(CandidateSet candidates,
                                 QueryOptions options)
    : options(std::move(options)),
      candidates_(std::make_unique<CandidateSet>(std::move(candidates))) {}

CandidateSet CandidatesQuery::TakeCandidates() {
  PV_CHECK_MSG(candidates_ != nullptr,
               "CandidatesQuery payload already consumed — a candidate-set "
               "request cannot be re-submitted");
  std::unique_ptr<CandidateSet> taken = std::move(candidates_);
  return std::move(*taken);
}

const QueryOptions& QueryRequest::options() const {
  return std::visit(
      [](const auto& payload) -> const QueryOptions& {
        return payload.options;
      },
      query);
}

namespace {

void RequireFinite(double v, const char* what) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument(std::string("query coordinate ") + what +
                                " must be finite");
  }
}

void RequirePositiveK(int k) {
  if (k < 1) throw std::invalid_argument("k must be positive");
}

void RequireInRange(int v, int cap, const char* what) {
  if (v < 1 || v > cap) {
    throw std::invalid_argument(std::string(what) + " must be in [1, " +
                                std::to_string(cap) + "]");
  }
}

}  // namespace

void Validate(const QueryRequest& request) {
  if (const auto* p = std::get_if<PointQuery>(&request.query)) {
    RequireFinite(p->q, "q");
  } else if (const auto* k = std::get_if<KnnQuery>(&request.query)) {
    RequireFinite(k->q, "q");
    RequirePositiveK(k->k);
  } else if (const auto* p2 = std::get_if<Point2DQuery>(&request.query)) {
    RequireFinite(p2->q.x, "x");
    RequireFinite(p2->q.y, "y");
  } else if (const auto* k2 = std::get_if<Knn2DQuery>(&request.query)) {
    RequireFinite(k2->q.x, "x");
    RequireFinite(k2->q.y, "y");
    RequirePositiveK(k2->k);
  }
  const QueryOptions& options = request.options();
  // Written so that NaN fails both: every comparison with it is false.
  const CpnnParams& params = options.params;
  if (!(params.threshold > 0.0 && params.threshold <= 1.0)) {
    throw std::invalid_argument("threshold P must be in (0, 1]");
  }
  if (!(params.tolerance >= 0.0 && params.tolerance <= 1.0)) {
    throw std::invalid_argument("tolerance must be in [0, 1]");
  }
  RequireInRange(options.monte_carlo.samples, kMaxMonteCarloSamples,
                 "Monte Carlo samples");
}

QueryResult ToQueryResult(QueryAnswer&& answer) {
  QueryResult result;
  result.ids = std::move(answer.ids);
  result.stats = std::move(answer.stats);
  result.candidate_probabilities =
      std::move(answer.candidate_probabilities);
  return result;
}

}  // namespace pverify
