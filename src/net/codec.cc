#include "net/codec.h"

#include <limits>
#include <string>
#include <variant>

namespace pverify {
namespace net {

namespace {

template <typename Enum>
Enum CheckedEnum(uint8_t raw, Enum max, const char* what) {
  if (raw > static_cast<uint8_t>(max)) {
    throw WireError(std::string("wire: out-of-range ") + what + " value " +
                    std::to_string(raw));
  }
  return static_cast<Enum>(raw);
}

/// Validates `count` elements of `elem_bytes` each against the remaining
/// body before the caller allocates — a hostile count field must fail here,
/// not in the allocator.
void CheckCount(const WireReader& r, uint64_t count, size_t elem_bytes,
                const char* what) {
  if (count > r.Remaining() / elem_bytes) {
    throw WireError(std::string("wire: ") + what + " count " +
                    std::to_string(count) + " exceeds the message body");
  }
}

void EncodeOptions(const QueryOptions& o, WireWriter& w) {
  w.F64(o.params.threshold);
  w.F64(o.params.tolerance);
  w.U8(static_cast<uint8_t>(o.strategy));
  w.I32(o.integration.gauss_points);
  w.I32(o.integration.splits_per_subregion);
  w.U8(static_cast<uint8_t>(o.refine_order));
  w.I32(o.monte_carlo.samples);
  w.U64(o.monte_carlo.seed);
  w.Bool(o.report_probabilities);
}

QueryOptions DecodeOptions(WireReader& r) {
  QueryOptions o;
  o.params.threshold = r.F64();
  o.params.tolerance = r.F64();
  o.strategy = CheckedEnum(r.U8(), Strategy::kMonteCarlo, "strategy");
  o.integration.gauss_points = r.I32();
  o.integration.splits_per_subregion = r.I32();
  o.refine_order =
      CheckedEnum(r.U8(), RefineOrder::kLeftToRight, "refine order");
  o.monte_carlo.samples = r.I32();
  o.monte_carlo.seed = r.U64();
  o.report_probabilities = r.Bool();
  return o;
}

void EncodeQueryStats(const QueryStats& s, WireWriter& w) {
  w.F64(s.filter_ms);
  w.F64(s.init_ms);
  w.F64(s.verify_ms);
  w.F64(s.refine_ms);
  w.F64(s.total_ms);
  w.U64(s.dataset_size);
  w.U64(s.candidates);
  w.U64(s.num_subregions);
  for (const StageStats& st : s.verification.stages) {
    w.Bool(st.ran);
    w.F64(st.ms);
    w.U64(st.unknown_after);
  }
  w.U64(s.unknown_after_verification);
  w.Bool(s.finished_after_verification);
  w.U64(s.refined_candidates);
  w.U64(s.subregion_integrations);
  w.Bool(s.served_from_cache);
}

QueryStats DecodeQueryStats(WireReader& r) {
  QueryStats s;
  s.filter_ms = r.F64();
  s.init_ms = r.F64();
  s.verify_ms = r.F64();
  s.refine_ms = r.F64();
  s.total_ms = r.F64();
  s.dataset_size = r.U64();
  s.candidates = r.U64();
  s.num_subregions = r.U64();
  for (StageStats& st : s.verification.stages) {
    st.ran = r.Bool();
    st.ms = r.F64();
    st.unknown_after = r.U64();
  }
  s.unknown_after_verification = r.U64();
  s.finished_after_verification = r.Bool();
  s.refined_candidates = r.U64();
  s.subregion_integrations = r.U64();
  s.served_from_cache = r.Bool();
  return s;
}

void EncodeIds(const std::vector<ObjectId>& ids, WireWriter& w) {
  w.U32(static_cast<uint32_t>(ids.size()));
  for (ObjectId id : ids) w.I64(id);
}

std::vector<ObjectId> DecodeIds(WireReader& r, const char* what) {
  uint32_t n = r.U32();
  CheckCount(r, n, sizeof(int64_t), what);
  std::vector<ObjectId> ids;
  ids.reserve(n);
  for (uint32_t i = 0; i < n; ++i) ids.push_back(r.I64());
  return ids;
}

void EncodeBound(const ProbabilityBound& b, WireWriter& w) {
  w.F64(b.lower);
  w.F64(b.upper);
}

ProbabilityBound DecodeBound(WireReader& r) {
  ProbabilityBound b;
  b.lower = r.F64();
  b.upper = r.F64();
  return b;
}

}  // namespace

void EncodeRequest(const QueryRequest& request, WireWriter& w) {
  if (request.kind() == QueryKind::kCandidates) {
    throw WireError(
        "wire: kCandidates requests carry a process-local payload and are "
        "not serializable");
  }
  w.U8(static_cast<uint8_t>(request.kind()));
  std::visit(
      [&w](const auto& q) {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, PointQuery>) {
          w.F64(q.q);
        } else if constexpr (std::is_same_v<T, KnnQuery>) {
          w.F64(q.q);
          w.I32(q.k);
        } else if constexpr (std::is_same_v<T, Point2DQuery>) {
          w.F64(q.q.x);
          w.F64(q.q.y);
        } else if constexpr (std::is_same_v<T, Knn2DQuery>) {
          w.F64(q.q.x);
          w.F64(q.q.y);
          w.I32(q.k);
        }
        // MinQuery / MaxQuery carry no payload beyond the options;
        // CandidatesQuery was rejected above.
      },
      request.query);
  EncodeOptions(request.options(), w);
}

QueryRequest DecodeRequest(WireReader& r) {
  uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(QueryKind::kKnn2D)) {
    throw WireError("wire: unknown query kind " + std::to_string(kind));
  }
  switch (static_cast<QueryKind>(kind)) {
    case QueryKind::kPoint: {
      double q = r.F64();
      return PointQuery{q, DecodeOptions(r)};
    }
    case QueryKind::kMin:
      return MinQuery{DecodeOptions(r)};
    case QueryKind::kMax:
      return MaxQuery{DecodeOptions(r)};
    case QueryKind::kKnn: {
      double q = r.F64();
      int32_t k = r.I32();
      return KnnQuery{q, k, DecodeOptions(r)};
    }
    case QueryKind::kCandidates:
      throw WireError("wire: kCandidates requests are not serializable");
    case QueryKind::kPoint2D: {
      Point2 q;
      q.x = r.F64();
      q.y = r.F64();
      return Point2DQuery{q, DecodeOptions(r)};
    }
    case QueryKind::kKnn2D: {
      Point2 q;
      q.x = r.F64();
      q.y = r.F64();
      int32_t k = r.I32();
      return Knn2DQuery{q, k, DecodeOptions(r)};
    }
  }
  throw WireError("wire: unknown query kind");  // unreachable
}

void EncodeResult(const QueryResult& result, WireWriter& w) {
  EncodeIds(result.ids, w);
  EncodeQueryStats(result.stats, w);
  w.U32(static_cast<uint32_t>(result.candidate_probabilities.size()));
  for (const AnswerEntry& e : result.candidate_probabilities) {
    w.I64(e.id);
    EncodeBound(e.bound, w);
  }
  w.Bool(result.knn.has_value());
  if (result.knn.has_value()) {
    const CknnAnswer& knn = *result.knn;
    EncodeIds(knn.ids, w);
    w.U32(static_cast<uint32_t>(knn.bounds.size()));
    for (const ProbabilityBound& b : knn.bounds) EncodeBound(b, w);
    w.U64(knn.pruned_by_bound);
    w.U64(knn.early_decided);
    w.U64(knn.segments_evaluated);
  }
}

QueryResult DecodeResult(WireReader& r) {
  QueryResult result;
  result.ids = DecodeIds(r, "answer id");
  result.stats = DecodeQueryStats(r);
  uint32_t entries = r.U32();
  CheckCount(r, entries, 8 + 16, "candidate probability");
  result.candidate_probabilities.reserve(entries);
  for (uint32_t i = 0; i < entries; ++i) {
    AnswerEntry e;
    e.id = r.I64();
    e.bound = DecodeBound(r);
    result.candidate_probabilities.push_back(e);
  }
  if (r.Bool()) {
    CknnAnswer knn;
    knn.ids = DecodeIds(r, "knn id");
    uint32_t bounds = r.U32();
    CheckCount(r, bounds, 16, "knn bound");
    knn.bounds.reserve(bounds);
    for (uint32_t i = 0; i < bounds; ++i) knn.bounds.push_back(DecodeBound(r));
    knn.pruned_by_bound = r.U64();
    knn.early_decided = r.U64();
    knn.segments_evaluated = r.U64();
    result.knn = std::move(knn);
  }
  return result;
}

}  // namespace net
}  // namespace pverify
