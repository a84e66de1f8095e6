#include "net/frame.h"

#include <cstring>

namespace pverify {
namespace net {

namespace {

void PutLe32(uint8_t* out, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t GetLe32(const uint8_t* in) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) v |= static_cast<uint32_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace

std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t request_id,
                                 const WireWriter& body) {
  const size_t n = body.size();
  std::vector<uint8_t> frame(kFrameHeaderBytes + n + kFrameChecksumBytes);
  EncodeFrameHeader(type, request_id, static_cast<uint32_t>(n), frame.data());
  if (n > 0) {
    std::memcpy(frame.data() + kFrameHeaderBytes, body.bytes().data(), n);
  }
  PutLe32(frame.data() + kFrameHeaderBytes + n,
          Crc32(frame.data(), kFrameHeaderBytes + n));
  return frame;
}

void SendFrameOn(Socket& sock, MessageType type, uint64_t request_id,
                 const WireWriter& body) {
  const std::vector<uint8_t> frame = EncodeFrame(type, request_id, body);
  sock.WriteAll(frame.data(), frame.size());
}

bool ReceiveFrame(Socket& sock, uint32_t max_body_bytes, ReceivedFrame* out) {
  uint8_t header_bytes[kFrameHeaderBytes];
  if (!sock.ReadExact(header_bytes, sizeof(header_bytes))) return false;
  out->header_at = std::chrono::steady_clock::now();
  out->header = DecodeFrameHeader(header_bytes, max_body_bytes);
  // Body and trailer arrive with one read; the trailer is cut off after
  // the checksum is verified.
  const size_t n = out->header.body_bytes;
  out->body.resize(n + kFrameChecksumBytes);
  if (!sock.ReadExact(out->body.data(), out->body.size())) {
    throw WireError("wire: connection closed before the frame body");
  }
  uint32_t crc = Crc32(header_bytes, sizeof(header_bytes));
  crc = Crc32(out->body.data(), n, crc);
  if (crc != GetLe32(out->body.data() + n)) {
    throw WireError("wire: frame checksum mismatch");
  }
  out->body.resize(n);
  return true;
}

}  // namespace net
}  // namespace pverify
