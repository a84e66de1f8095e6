// Request/response codecs for the pverify wire protocol.
//
// One encoder/decoder pair per message body: QueryRequest (every variant
// alternative except CandidatesQuery — its payload is a process-local
// candidate set and is rejected at encode AND decode time) and QueryResult
// (ids, per-query stats including the verifier stage breakdown — one fixed
// {ran, ms, unknown_after} record per StageId, no count and no names —
// candidate probability bounds, and the optional k-NN answer). Doubles travel as raw
// bits (see net/wire.h), so a round-tripped request executes bit-identically
// and a round-tripped result compares bit-identically — the property the
// loopback differential tests pin.
//
// Decoders are strict: every enum is range-checked, every element count is
// validated against the remaining body bytes BEFORE any allocation, and
// callers are expected to ExpectEnd() afterwards so trailing bytes fail
// loudly. Anything off throws net::WireError.
#ifndef PVERIFY_NET_CODEC_H_
#define PVERIFY_NET_CODEC_H_

#include "engine/request.h"
#include "net/wire.h"

namespace pverify {
namespace net {

/// Serializes a request body (kind byte, per-kind payload, options).
/// Throws WireError for CandidatesQuery — pre-built candidate sets do not
/// travel over the wire.
void EncodeRequest(const QueryRequest& request, WireWriter& w);

/// Decodes a request body. Throws WireError on unknown kind bytes,
/// out-of-range enums or truncated fields. Field values (P, Δ, k, finite
/// coordinates) are the engine's to check: its Validate rejects them
/// before execution, and the server reports that as a request-level
/// error, not a protocol error.
QueryRequest DecodeRequest(WireReader& r);

/// Serializes a result body (ids, stats, candidate bounds, k-NN answer).
void EncodeResult(const QueryResult& result, WireWriter& w);

/// Decodes a result body; element counts are bounds-checked against the
/// remaining bytes before anything is allocated.
QueryResult DecodeResult(WireReader& r);

}  // namespace net
}  // namespace pverify

#endif  // PVERIFY_NET_CODEC_H_
