#include "net/wire.h"

namespace pverify {
namespace net {

namespace {

template <typename T>
void PutLe(uint8_t* out, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

template <typename T>
T GetLe(const uint8_t* in) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | (static_cast<T>(in[i]) << (8 * i)));
  }
  return v;
}

// The extension block is u32 ext_bytes + payload; this cap bounds what a
// hostile peer can make us skip. Far above any plausible extension growth.
constexpr uint32_t kMaxExtensionBytes = 4096;

}  // namespace

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kGeneric:
      return "generic";
    case ErrorCode::kProtocol:
      return "protocol";
    case ErrorCode::kInvalidRequest:
      return "invalid-request";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case ErrorCode::kTooLarge:
      return "too-large";
    case ErrorCode::kShuttingDown:
      return "shutting-down";
  }
  return "unknown";
}

void EncodeFrameHeader(MessageType type, uint64_t request_id,
                       uint32_t body_bytes, uint8_t* out) {
  PutLe<uint32_t>(out + 0, kWireMagic);
  PutLe<uint16_t>(out + 4, kWireVersion);
  PutLe<uint16_t>(out + 6, static_cast<uint16_t>(type));
  PutLe<uint64_t>(out + 8, request_id);
  PutLe<uint32_t>(out + 16, body_bytes);
}

FrameHeader DecodeFrameHeader(const uint8_t* in, uint32_t max_body_bytes) {
  if (GetLe<uint32_t>(in + 0) != kWireMagic) {
    throw WireError("wire: bad frame magic");
  }
  uint16_t version = GetLe<uint16_t>(in + 4);
  if (version != kWireVersion) {
    throw WireError("wire: unsupported protocol version " +
                    std::to_string(version));
  }
  FrameHeader h;
  uint16_t type = GetLe<uint16_t>(in + 6);
  if (type < static_cast<uint16_t>(MessageType::kRequest) ||
      type > static_cast<uint16_t>(MessageType::kError)) {
    throw WireError("wire: unknown frame type " + std::to_string(type));
  }
  h.type = static_cast<MessageType>(type);
  h.request_id = GetLe<uint64_t>(in + 8);
  h.body_bytes = GetLe<uint32_t>(in + 16);
  if (h.body_bytes > max_body_bytes) {
    throw WireTooLarge("wire: frame body of " + std::to_string(h.body_bytes) +
                       " bytes exceeds the " + std::to_string(max_body_bytes) +
                       "-byte cap");
  }
  return h;
}

uint32_t Crc32(const void* data, size_t n, uint32_t crc) {
  // Standard IEEE 802.3 polynomial (reflected: 0xEDB88320), table built on
  // first use.
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

void EncodeRequestExtensions(const RequestExtensions& ext, WireWriter& out) {
  out.U32(4);  // ext_bytes: just deadline_ms today
  out.U32(ext.deadline_ms);
}

RequestExtensions DecodeRequestExtensions(WireReader& in) {
  uint32_t ext_bytes = in.U32();
  if (ext_bytes > kMaxExtensionBytes) {
    throw WireError("wire: extension block of " + std::to_string(ext_bytes) +
                    " bytes is implausibly large");
  }
  if (ext_bytes > in.Remaining()) {
    throw WireError("wire: extension block overruns the frame body");
  }
  RequestExtensions ext;
  uint32_t consumed = 0;
  if (ext_bytes >= 4) {
    ext.deadline_ms = in.U32();
    consumed = 4;
  }
  in.Skip(ext_bytes - consumed);  // fields we do not know about yet
  return ext;
}

void EncodeErrorBody(ErrorCode code, std::string_view message,
                     WireWriter& out) {
  out.U16(static_cast<uint16_t>(code));
  out.String(message);
}

DecodedError DecodeErrorBody(WireReader& in, uint32_t max_message_bytes) {
  DecodedError err;
  err.code = static_cast<ErrorCode>(in.U16());
  err.message = in.String(max_message_bytes);
  return err;
}

}  // namespace net
}  // namespace pverify
