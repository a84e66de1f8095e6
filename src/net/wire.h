// The pverify wire format: length-prefixed binary frames.
//
// Every message on a pverify_serve connection is one frame — a fixed
// 20-byte header followed by a body whose layout depends on the frame type
// (see net/codec.h for the request/result codecs):
//
//   offset  size  field
//        0     4  magic      0x50564659 ("PVFY")
//        4     2  version    kWireVersion (bumped on any layout change)
//        6     2  type       MessageType (request / response / error)
//        8     8  request_id client-chosen tag echoed in the response
//       16     4  body_bytes bytes following the header
//
// Every frame ends in a 4-byte CRC-32 trailer computed over the header and
// body, so a corrupted byte anywhere in the frame is detected at the
// receiver as a protocol error instead of decoding into a wrong answer.
// Request bodies open with an extension block ([u32 ext_bytes][u32
// deadline_ms][unknown trailing extension bytes are skipped]) ahead of the
// encoded request; that is how per-request deadlines travel. Only
// kWireVersion is accepted on decode.
//
// All integers are little-endian; doubles travel as their raw IEEE-754
// bits, so a decoded request re-executes with bit-identical arithmetic and
// a decoded result compares bit-identical to the local answer. Frames are
// self-delimiting (the header carries the body length), so requests pipeline
// back to back and responses may come back in any order — the request_id is
// the correlation tag, not the position.
//
// Decoding is strict and bounds-checked end to end: WireReader throws
// WireError instead of reading past the end, DecodeFrameHeader rejects bad
// magic/version/type and oversized lengths before any allocation, and the
// per-kind codecs validate counts against the remaining bytes before
// resizing anything. A malformed peer can terminate its own connection,
// never the process.
#ifndef PVERIFY_NET_WIRE_H_
#define PVERIFY_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pverify {
namespace net {

/// Any protocol violation: truncated or oversized frames, bad magic or
/// version, unknown enum values, trailing bytes, socket errors mid-frame.
/// Handlers catch it at the connection boundary and drop the connection.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A socket operation exceeded its configured timeout (SO_SNDTIMEO /
/// SO_RCVTIMEO). The server's slow-reader policy and the client's bounded
/// reads both key off this subtype to tell "peer is too slow" apart from
/// "peer is gone".
class WireTimeout : public WireError {
 public:
  using WireError::WireError;
};

/// A frame announced a body larger than the receiver's cap. Split out so
/// the server can answer with ErrorCode::kTooLarge instead of a generic
/// protocol error before closing.
class WireTooLarge : public WireError {
 public:
  using WireError::WireError;
};

inline constexpr uint32_t kWireMagic = 0x50564659;  // "PVFY"
/// The protocol version: frames with a CRC-32 trailer, a request-body
/// extension block (deadline_ms) and typed error codes; v3 result stats
/// carry three fixed verifier stage records. Any other version is a
/// protocol error.
inline constexpr uint16_t kWireVersion = 3;
inline constexpr size_t kFrameHeaderBytes = 20;
/// Bytes of CRC-32 trailer on every frame.
inline constexpr size_t kFrameChecksumBytes = 4;
/// Default cap on a frame body. Large enough for any realistic result
/// (ids + per-candidate bounds + k-NN answer); small enough that a hostile
/// length field cannot make the peer allocate unbounded memory.
inline constexpr uint32_t kDefaultMaxBodyBytes = 1u << 20;

/// What a frame carries.
enum class MessageType : uint16_t {
  kRequest = 1,   ///< client → server: one encoded QueryRequest
  kResponse = 2,  ///< server → client: the encoded QueryResult
  kError = 3,     ///< server → client: typed code + UTF-8 message;
                  ///< request-level errors keep the connection, protocol
                  ///< errors close it
};

/// Typed failure classes carried in error frames (u16 ahead of the message
/// string). Values are wire-stable; add new codes at the end.
enum class ErrorCode : uint16_t {
  kGeneric = 0,           ///< unclassified failure
  kProtocol = 1,          ///< malformed frame; the connection is closing
  kInvalidRequest = 2,    ///< engine rejected the request; connection lives
  kOverloaded = 3,        ///< admission/in-flight/connection cap hit; back
                          ///< off and retry
  kDeadlineExceeded = 4,  ///< the request's deadline_ms expired (checked at
                          ///< receipt and again at dequeue)
  kTooLarge = 5,          ///< frame body over the receiver's cap
  kShuttingDown = 6,      ///< server is draining; retry against a replica
};

/// Stable lower-case token for logs and stats lines.
const char* ErrorCodeName(ErrorCode code);

/// Codes a client may safely retry for idempotent requests (pverify queries
/// are pure reads): the server either never ran the request (kOverloaded,
/// kShuttingDown) or abandoned it on a deadline the client chose.
inline bool IsRetryable(ErrorCode code) {
  return code == ErrorCode::kOverloaded || code == ErrorCode::kShuttingDown ||
         code == ErrorCode::kDeadlineExceeded;
}

struct FrameHeader {
  MessageType type = MessageType::kRequest;
  uint64_t request_id = 0;
  uint32_t body_bytes = 0;
};

/// Appends little-endian primitives to a growing byte buffer. The writer
/// never fails; framing (header + cap check) happens at send time.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { AppendLe(v); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I32(int32_t v) { AppendLe(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// Raw IEEE-754 bits — the exact double round-trips.
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  /// u32 length + bytes.
  void String(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  void Clear() { buf_.clear(); }

 private:
  template <typename T>
  void AppendLe(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

/// Cursor over a received body. Every accessor bounds-checks and throws
/// WireError on overrun; Remaining() lets codecs validate element counts
/// before allocating.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : p_(data), n_(size) {}

  uint8_t U8() {
    Need(1);
    return p_[pos_++];
  }
  uint16_t U16() { return ReadLe<uint16_t>(); }
  uint32_t U32() { return ReadLe<uint32_t>(); }
  uint64_t U64() { return ReadLe<uint64_t>(); }
  int32_t I32() { return static_cast<int32_t>(ReadLe<uint32_t>()); }
  int64_t I64() { return static_cast<int64_t>(ReadLe<uint64_t>()); }
  bool Bool() {
    uint8_t v = U8();
    if (v > 1) throw WireError("wire: boolean byte out of range");
    return v != 0;
  }
  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string String(uint32_t max_len) {
    uint32_t len = U32();
    if (len > max_len) throw WireError("wire: string length over cap");
    Need(len);
    std::string s(reinterpret_cast<const char*>(p_ + pos_), len);
    pos_ += len;
    return s;
  }

  /// Skips k bytes (bounds-checked) — how unknown trailing extension bytes
  /// from a newer peer are passed over without understanding them.
  void Skip(size_t k) {
    Need(k);
    pos_ += k;
  }

  size_t Remaining() const { return n_ - pos_; }
  bool AtEnd() const { return pos_ == n_; }
  /// Codecs call this after the last field: trailing bytes mean the peer
  /// and we disagree about the layout, which must not pass silently.
  void ExpectEnd() const {
    if (!AtEnd()) throw WireError("wire: trailing bytes after message");
  }

 private:
  void Need(size_t k) const {
    if (n_ - pos_ < k) throw WireError("wire: truncated message body");
  }
  template <typename T>
  T ReadLe() {
    Need(sizeof(T));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(p_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* p_;
  size_t n_;
  size_t pos_ = 0;
};

/// Serializes a frame header (version kWireVersion) into
/// `out[kFrameHeaderBytes]`.
void EncodeFrameHeader(MessageType type, uint64_t request_id,
                       uint32_t body_bytes, uint8_t* out);

/// Parses and validates a frame header: magic, version == kWireVersion,
/// known type, body length within `max_body_bytes` (violations of the cap
/// throw WireTooLarge, everything else plain WireError).
FrameHeader DecodeFrameHeader(const uint8_t* in, uint32_t max_body_bytes);

/// Incremental IEEE CRC-32 (the frame trailer). Chain calls by passing the
/// previous return value as `crc` (start at 0).
uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0);

/// Per-request metadata carried in the extension block at the head of a
/// request body. All fields default to "absent".
struct RequestExtensions {
  uint32_t deadline_ms = 0;  ///< 0 = no deadline; else budget from the
                             ///< moment the server read the frame header
};

/// Appends the extension block: [u32 ext_bytes][u32 deadline_ms].
void EncodeRequestExtensions(const RequestExtensions& ext, WireWriter& out);

/// Reads the extension block, skipping trailing extension bytes a newer
/// peer may have appended. Throws WireError when ext_bytes overruns the
/// body or is implausibly large.
RequestExtensions DecodeRequestExtensions(WireReader& in);

/// One decoded error-frame body.
struct DecodedError {
  ErrorCode code = ErrorCode::kGeneric;
  std::string message;
};

/// Error-frame body: [u16 code][string message]. Unknown future codes
/// decode verbatim.
void EncodeErrorBody(ErrorCode code, std::string_view message,
                     WireWriter& out);
DecodedError DecodeErrorBody(WireReader& in, uint32_t max_message_bytes);

}  // namespace net
}  // namespace pverify

#endif  // PVERIFY_NET_WIRE_H_
