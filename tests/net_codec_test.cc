// Wire-format and codec tests: randomized round-trip properties over every
// serializable QueryKind and QueryResult shape (doubles must round-trip
// bit-identically), plus the malformed-frame matrix — truncated headers,
// bad magic/version/type, oversized bodies, unknown kinds, truncated and
// trailing bytes all throw WireError instead of reading wild.
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/codec.h"
#include "net/wire.h"

namespace pverify {
namespace net {
namespace {

// Bit-exact double comparison (0.0 vs -0.0 and NaN payloads count).
void ExpectBits(double expected, double actual, const std::string& what) {
  uint64_t e, a;
  std::memcpy(&e, &expected, sizeof(e));
  std::memcpy(&a, &actual, sizeof(a));
  EXPECT_EQ(e, a) << what << ": " << expected << " vs " << actual;
}

QueryOptions RandomOptions(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  QueryOptions o;
  o.params.threshold = unit(rng);
  o.params.tolerance = unit(rng) * 0.1;
  o.strategy = static_cast<Strategy>(rng() % 4);
  o.integration.gauss_points = static_cast<int>(rng() % 64) + 1;
  o.integration.splits_per_subregion = static_cast<int>(rng() % 8) + 1;
  o.refine_order = static_cast<RefineOrder>(rng() % 2);
  o.monte_carlo.samples = static_cast<int>(rng() % 10000) + 1;
  o.monte_carlo.seed = rng();
  o.report_probabilities = (rng() % 2) == 0;
  return o;
}

void ExpectOptionsEqual(const QueryOptions& e, const QueryOptions& g,
                        const std::string& what) {
  ExpectBits(e.params.threshold, g.params.threshold, what + " threshold");
  ExpectBits(e.params.tolerance, g.params.tolerance, what + " tolerance");
  EXPECT_EQ(e.strategy, g.strategy) << what;
  EXPECT_EQ(e.integration.gauss_points, g.integration.gauss_points) << what;
  EXPECT_EQ(e.integration.splits_per_subregion,
            g.integration.splits_per_subregion)
      << what;
  EXPECT_EQ(e.refine_order, g.refine_order) << what;
  EXPECT_EQ(e.monte_carlo.samples, g.monte_carlo.samples) << what;
  EXPECT_EQ(e.monte_carlo.seed, g.monte_carlo.seed) << what;
  EXPECT_EQ(e.report_probabilities, g.report_probabilities) << what;
}

QueryRequest RoundTrip(const QueryRequest& request) {
  WireWriter w;
  EncodeRequest(request, w);
  WireReader r(w.bytes().data(), w.size());
  QueryRequest decoded = DecodeRequest(r);
  r.ExpectEnd();
  return decoded;
}

TEST(NetCodecTest, PointRequestRoundTripsBitIdentical) {
  std::mt19937_64 rng(101);
  std::uniform_real_distribution<double> coord(-1e6, 1e6);
  for (int i = 0; i < 50; ++i) {
    QueryOptions opt = RandomOptions(rng);
    double q = coord(rng);
    QueryRequest decoded = RoundTrip(PointQuery{q, opt});
    ASSERT_EQ(decoded.kind(), QueryKind::kPoint);
    const PointQuery& p = std::get<PointQuery>(decoded.query);
    ExpectBits(q, p.q, "q");
    ExpectOptionsEqual(opt, p.options, "point options");
  }
}

TEST(NetCodecTest, MinMaxRequestsRoundTrip) {
  std::mt19937_64 rng(102);
  QueryOptions opt = RandomOptions(rng);
  QueryRequest min_decoded = RoundTrip(MinQuery{opt});
  ASSERT_EQ(min_decoded.kind(), QueryKind::kMin);
  ExpectOptionsEqual(opt, std::get<MinQuery>(min_decoded.query).options,
                     "min options");
  QueryRequest max_decoded = RoundTrip(MaxQuery{opt});
  ASSERT_EQ(max_decoded.kind(), QueryKind::kMax);
  ExpectOptionsEqual(opt, std::get<MaxQuery>(max_decoded.query).options,
                     "max options");
}

TEST(NetCodecTest, KnnRequestRoundTrips) {
  std::mt19937_64 rng(103);
  std::uniform_real_distribution<double> coord(-1e6, 1e6);
  for (int i = 0; i < 50; ++i) {
    QueryOptions opt = RandomOptions(rng);
    double q = coord(rng);
    int k = static_cast<int>(rng() % 16) + 1;
    QueryRequest decoded = RoundTrip(KnnQuery{q, k, opt});
    ASSERT_EQ(decoded.kind(), QueryKind::kKnn);
    const KnnQuery& knn = std::get<KnnQuery>(decoded.query);
    ExpectBits(q, knn.q, "q");
    EXPECT_EQ(k, knn.k);
    ExpectOptionsEqual(opt, knn.options, "knn options");
  }
}

TEST(NetCodecTest, TwoDimensionalRequestsRoundTrip) {
  std::mt19937_64 rng(104);
  std::uniform_real_distribution<double> coord(-1e6, 1e6);
  for (int i = 0; i < 50; ++i) {
    QueryOptions opt = RandomOptions(rng);
    Point2 q{coord(rng), coord(rng)};
    QueryRequest point = RoundTrip(Point2DQuery{q, opt});
    ASSERT_EQ(point.kind(), QueryKind::kPoint2D);
    const Point2DQuery& p = std::get<Point2DQuery>(point.query);
    ExpectBits(q.x, p.q.x, "x");
    ExpectBits(q.y, p.q.y, "y");
    ExpectOptionsEqual(opt, p.options, "2d options");

    int k = static_cast<int>(rng() % 16) + 1;
    QueryRequest knn = RoundTrip(Knn2DQuery{q, k, opt});
    ASSERT_EQ(knn.kind(), QueryKind::kKnn2D);
    const Knn2DQuery& kq = std::get<Knn2DQuery>(knn.query);
    ExpectBits(q.x, kq.q.x, "knn x");
    ExpectBits(q.y, kq.q.y, "knn y");
    EXPECT_EQ(k, kq.k);
  }
}

QueryResult RandomResult(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> ms(0.0, 50.0);
  QueryResult result;
  size_t ids = rng() % 8;
  for (size_t i = 0; i < ids; ++i) {
    result.ids.push_back(static_cast<ObjectId>(rng() % 100000));
  }
  result.stats.filter_ms = ms(rng);
  result.stats.init_ms = ms(rng);
  result.stats.verify_ms = ms(rng);
  result.stats.refine_ms = ms(rng);
  result.stats.total_ms = ms(rng);
  result.stats.dataset_size = rng() % 100000;
  result.stats.candidates = rng() % 200;
  result.stats.num_subregions = rng() % 400;
  for (StageStats& st : result.stats.verification.stages) {
    st.ran = (rng() % 2) == 0;
    st.ms = ms(rng);
    st.unknown_after = rng() % 100;
  }
  result.stats.unknown_after_verification = rng() % 100;
  result.stats.finished_after_verification = (rng() % 2) == 0;
  result.stats.refined_candidates = rng() % 100;
  result.stats.subregion_integrations = rng() % 1000;
  result.stats.served_from_cache = (rng() % 2) == 0;
  size_t entries = rng() % 6;
  for (size_t i = 0; i < entries; ++i) {
    AnswerEntry e;
    e.id = static_cast<ObjectId>(rng() % 100000);
    e.bound.lower = unit(rng);
    e.bound.upper = e.bound.lower + unit(rng) * (1.0 - e.bound.lower);
    result.candidate_probabilities.push_back(e);
  }
  if (rng() % 2 == 0) {
    CknnAnswer knn;
    size_t n = rng() % 5;
    for (size_t i = 0; i < n; ++i) {
      knn.ids.push_back(static_cast<ObjectId>(rng() % 100000));
      ProbabilityBound b;
      b.lower = unit(rng);
      b.upper = b.lower + unit(rng) * (1.0 - b.lower);
      knn.bounds.push_back(b);
    }
    knn.pruned_by_bound = rng() % 50;
    knn.early_decided = rng() % 50;
    knn.segments_evaluated = rng() % 500;
    result.knn = std::move(knn);
  }
  return result;
}

void ExpectResultsBitEqual(const QueryResult& e, const QueryResult& g) {
  EXPECT_EQ(e.ids, g.ids);
  ExpectBits(e.stats.filter_ms, g.stats.filter_ms, "filter_ms");
  ExpectBits(e.stats.init_ms, g.stats.init_ms, "init_ms");
  ExpectBits(e.stats.verify_ms, g.stats.verify_ms, "verify_ms");
  ExpectBits(e.stats.refine_ms, g.stats.refine_ms, "refine_ms");
  ExpectBits(e.stats.total_ms, g.stats.total_ms, "total_ms");
  EXPECT_EQ(e.stats.dataset_size, g.stats.dataset_size);
  EXPECT_EQ(e.stats.candidates, g.stats.candidates);
  EXPECT_EQ(e.stats.num_subregions, g.stats.num_subregions);
  for (size_t i = 0; i < kNumStages; ++i) {
    const StageStats& es = e.stats.verification.stages[i];
    const StageStats& gs = g.stats.verification.stages[i];
    EXPECT_EQ(es.ran, gs.ran);
    ExpectBits(es.ms, gs.ms, "stage ms");
    EXPECT_EQ(es.unknown_after, gs.unknown_after);
  }
  EXPECT_EQ(e.stats.unknown_after_verification,
            g.stats.unknown_after_verification);
  EXPECT_EQ(e.stats.finished_after_verification,
            g.stats.finished_after_verification);
  EXPECT_EQ(e.stats.refined_candidates, g.stats.refined_candidates);
  EXPECT_EQ(e.stats.subregion_integrations, g.stats.subregion_integrations);
  EXPECT_EQ(e.stats.served_from_cache, g.stats.served_from_cache);
  ASSERT_EQ(e.candidate_probabilities.size(),
            g.candidate_probabilities.size());
  for (size_t i = 0; i < e.candidate_probabilities.size(); ++i) {
    EXPECT_EQ(e.candidate_probabilities[i].id,
              g.candidate_probabilities[i].id);
    ExpectBits(e.candidate_probabilities[i].bound.lower,
               g.candidate_probabilities[i].bound.lower, "entry lower");
    ExpectBits(e.candidate_probabilities[i].bound.upper,
               g.candidate_probabilities[i].bound.upper, "entry upper");
  }
  ASSERT_EQ(e.knn.has_value(), g.knn.has_value());
  if (e.knn.has_value()) {
    EXPECT_EQ(e.knn->ids, g.knn->ids);
    ASSERT_EQ(e.knn->bounds.size(), g.knn->bounds.size());
    for (size_t i = 0; i < e.knn->bounds.size(); ++i) {
      ExpectBits(e.knn->bounds[i].lower, g.knn->bounds[i].lower,
                 "knn lower");
      ExpectBits(e.knn->bounds[i].upper, g.knn->bounds[i].upper,
                 "knn upper");
    }
    EXPECT_EQ(e.knn->pruned_by_bound, g.knn->pruned_by_bound);
    EXPECT_EQ(e.knn->early_decided, g.knn->early_decided);
    EXPECT_EQ(e.knn->segments_evaluated, g.knn->segments_evaluated);
  }
}

TEST(NetCodecTest, ResultRoundTripsBitIdentical) {
  std::mt19937_64 rng(105);
  for (int i = 0; i < 100; ++i) {
    QueryResult original = RandomResult(rng);
    WireWriter w;
    EncodeResult(original, w);
    WireReader r(w.bytes().data(), w.size());
    QueryResult decoded = DecodeResult(r);
    r.ExpectEnd();
    ExpectResultsBitEqual(original, decoded);
  }
}

TEST(NetCodecTest, CandidatesRequestsAreRejectedBothWays) {
  QueryRequest request = CandidatesQuery(CandidateSet{}, QueryOptions{});
  WireWriter w;
  EXPECT_THROW(EncodeRequest(request, w), WireError);

  WireWriter raw;
  raw.U8(static_cast<uint8_t>(QueryKind::kCandidates));
  WireReader r(raw.bytes().data(), raw.size());
  EXPECT_THROW(DecodeRequest(r), WireError);
}

// ------------------------------------------------------------ frame header

TEST(NetFrameTest, HeaderRoundTrips) {
  uint8_t buf[kFrameHeaderBytes];
  EncodeFrameHeader(MessageType::kResponse, 0xdeadbeefcafe1234ull, 77, buf);
  FrameHeader h = DecodeFrameHeader(buf, kDefaultMaxBodyBytes);
  EXPECT_EQ(buf[4] | (buf[5] << 8), kWireVersion);
  EXPECT_EQ(h.type, MessageType::kResponse);
  EXPECT_EQ(h.request_id, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(h.body_bytes, 77u);
}

TEST(NetFrameTest, BadMagicIsRejected) {
  uint8_t buf[kFrameHeaderBytes];
  EncodeFrameHeader(MessageType::kRequest, 1, 0, buf);
  buf[0] ^= 0xff;
  EXPECT_THROW(DecodeFrameHeader(buf, kDefaultMaxBodyBytes), WireError);
}

TEST(NetFrameTest, BadVersionIsRejected) {
  // Only kWireVersion (3) is spoken: the retired v1 and v2 layouts are as
  // foreign as a version from the future.
  for (uint16_t version : {1, 2, 4, 99}) {
    uint8_t buf[kFrameHeaderBytes];
    EncodeFrameHeader(MessageType::kRequest, 1, 0, buf);
    buf[4] = static_cast<uint8_t>(version);
    buf[5] = static_cast<uint8_t>(version >> 8);
    EXPECT_THROW(DecodeFrameHeader(buf, kDefaultMaxBodyBytes), WireError)
        << "version " << version;
  }
}

TEST(NetFrameTest, UnknownTypeIsRejected) {
  uint8_t buf[kFrameHeaderBytes];
  EncodeFrameHeader(MessageType::kRequest, 1, 0, buf);
  buf[6] = 9;
  EXPECT_THROW(DecodeFrameHeader(buf, kDefaultMaxBodyBytes), WireError);
}

TEST(NetFrameTest, OversizedBodyIsRejected) {
  uint8_t buf[kFrameHeaderBytes];
  EncodeFrameHeader(MessageType::kRequest, 1, 4096, buf);
  EXPECT_THROW(DecodeFrameHeader(buf, /*max_body_bytes=*/1024), WireError);
  // The same header passes under the default cap: the cap is the policy,
  // not the layout.
  EXPECT_EQ(DecodeFrameHeader(buf, kDefaultMaxBodyBytes).body_bytes, 4096u);
}

// ------------------------------------------------------- malformed bodies

TEST(NetCodecTest, UnknownKindByteIsRejected) {
  WireWriter w;
  w.U8(200);
  WireReader r(w.bytes().data(), w.size());
  EXPECT_THROW(DecodeRequest(r), WireError);
}

TEST(NetCodecTest, TruncatedBodyIsRejected) {
  WireWriter w;
  EncodeRequest(QueryRequest(PointQuery{1.5, QueryOptions{}}), w);
  // Every proper prefix must throw, never read past the end.
  for (size_t len = 0; len < w.size(); ++len) {
    WireReader r(w.bytes().data(), len);
    EXPECT_THROW(
        {
          QueryRequest decoded = DecodeRequest(r);
          r.ExpectEnd();
        },
        WireError)
        << "prefix length " << len;
  }
}

TEST(NetCodecTest, TrailingBytesAreRejected) {
  WireWriter w;
  EncodeRequest(QueryRequest(PointQuery{1.5, QueryOptions{}}), w);
  w.U8(0);  // one stray byte after a valid request
  WireReader r(w.bytes().data(), w.size());
  QueryRequest decoded = DecodeRequest(r);
  EXPECT_THROW(r.ExpectEnd(), WireError);
}

TEST(NetCodecTest, OutOfRangeEnumsAreRejected) {
  WireWriter w;
  EncodeRequest(QueryRequest(PointQuery{1.5, QueryOptions{}}), w);
  // Corrupt the strategy byte (first byte after kind + q + two F64 params).
  std::vector<uint8_t> bytes = w.bytes();
  bytes[1 + 8 + 8 + 8] = 200;
  WireReader r(bytes.data(), bytes.size());
  EXPECT_THROW(DecodeRequest(r), WireError);
}

TEST(NetCodecTest, NonPositiveKIsLeftToTheEngineToReject) {
  // k is a field value, not framing: it decodes intact, and the engine's
  // Validate rejects it, so the server answers kInvalidRequest on the
  // request's id and keeps the connection.
  for (int k : {0, -1}) {
    WireWriter w;
    EncodeRequest(QueryRequest(KnnQuery{1.0, k, QueryOptions{}}), w);
    WireReader r(w.bytes().data(), w.size());
    QueryRequest decoded = DecodeRequest(r);
    r.ExpectEnd();
    ASSERT_EQ(decoded.kind(), QueryKind::kKnn);
    EXPECT_EQ(std::get<KnnQuery>(decoded.query).k, k);
    EXPECT_THROW(Validate(decoded), std::invalid_argument);
  }
}

TEST(NetCodecTest, HostileCountFieldFailsBeforeAllocation) {
  // A result body claiming 4 billion ids in a 16-byte message must be
  // rejected by the count check, not die trying to reserve.
  WireWriter w;
  w.U32(0xffffffffu);
  w.U64(0);
  WireReader r(w.bytes().data(), w.size());
  EXPECT_THROW(DecodeResult(r), WireError);
}

TEST(NetCodecTest, BooleanBytesAreStrict) {
  WireWriter w;
  EncodeResult(QueryResult{}, w);
  std::vector<uint8_t> bytes = w.bytes();
  bytes.back() = 2;  // the trailing knn-presence flag
  WireReader r(bytes.data(), bytes.size());
  EXPECT_THROW(DecodeResult(r), WireError);
}

TEST(NetCodecTest, SpecialDoublesRoundTrip) {
  // -0.0, infinities and NaN payloads all travel as raw bits.
  const double specials[] = {-0.0, std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min()};
  for (double v : specials) {
    WireWriter w;
    w.F64(v);
    WireReader r(w.bytes().data(), w.size());
    ExpectBits(v, r.F64(), "special double");
  }
}

// ------------------------------------ checksum, extensions, error bodies

TEST(NetChecksumTest, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check vector.
  const char kNine[] = "123456789";
  EXPECT_EQ(Crc32(kNine, 9), 0xCBF43926u);
  // Chaining across splits equals one pass over the whole buffer.
  uint32_t chained = Crc32(kNine, 4);
  chained = Crc32(kNine + 4, 5, chained);
  EXPECT_EQ(chained, 0xCBF43926u);
  // Empty input is the identity.
  EXPECT_EQ(Crc32(kNine, 0), 0u);
}

TEST(NetExtensionsTest, DeadlineRoundTrips) {
  RequestExtensions ext;
  ext.deadline_ms = 1234;
  WireWriter w;
  EncodeRequestExtensions(ext, w);
  WireReader r(w.bytes().data(), w.size());
  EXPECT_EQ(DecodeRequestExtensions(r).deadline_ms, 1234u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(NetExtensionsTest, UnknownTrailingExtensionBytesAreSkipped) {
  // A future peer appends fields we do not know: ext_bytes covers them and
  // the decoder must step over without choking — and still leave the
  // request payload readable.
  WireWriter w;
  w.U32(12);    // ext_bytes: deadline + 8 unknown bytes
  w.U32(77);    // deadline_ms
  w.U64(0xDEADBEEFCAFEF00Dull);  // unknown extension payload
  w.U32(4242);  // first field of the request body proper
  WireReader r(w.bytes().data(), w.size());
  EXPECT_EQ(DecodeRequestExtensions(r).deadline_ms, 77u);
  EXPECT_EQ(r.U32(), 4242u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(NetExtensionsTest, OverrunningExtensionBlockIsRejected) {
  WireWriter w;
  w.U32(64);  // claims 64 extension bytes ...
  w.U32(5);   // ... but only 4 follow
  WireReader r(w.bytes().data(), w.size());
  EXPECT_THROW(DecodeRequestExtensions(r), WireError);
}

TEST(NetErrorBodyTest, TypedCodeRoundTripsInVersion2) {
  for (ErrorCode code :
       {ErrorCode::kGeneric, ErrorCode::kOverloaded,
        ErrorCode::kDeadlineExceeded, ErrorCode::kTooLarge,
        ErrorCode::kShuttingDown}) {
    WireWriter w;
    EncodeErrorBody(code, "something happened", w);
    WireReader r(w.bytes().data(), w.size());
    DecodedError err = DecodeErrorBody(r, kDefaultMaxBodyBytes);
    EXPECT_EQ(err.code, code);
    EXPECT_EQ(err.message, "something happened");
    EXPECT_TRUE(r.AtEnd());
  }
}

}  // namespace
}  // namespace net
}  // namespace pverify
