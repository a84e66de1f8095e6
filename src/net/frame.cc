#include "net/frame.h"

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

void SendFrameOn(Socket& sock, MessageType type, uint64_t request_id,
                 const WireWriter& body) {
  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(type, request_id, static_cast<uint32_t>(body.size()),
                    header);
  sock.WriteAll(header, sizeof(header));
  if (body.size() > 0) sock.WriteAll(body.bytes().data(), body.size());
  uint32_t crc = Crc32(header, sizeof(header));
  crc = Crc32(body.bytes().data(), body.size(), crc);
  uint8_t trailer[kFrameChecksumBytes];
  PutLe32(trailer, crc);
  sock.WriteAll(trailer, sizeof(trailer));
}

bool ReceiveFrame(Socket& sock, uint32_t max_body_bytes, ReceivedFrame* out) {
  uint8_t header_bytes[kFrameHeaderBytes];
  if (!sock.ReadExact(header_bytes, sizeof(header_bytes))) return false;
  out->header_at = std::chrono::steady_clock::now();
  out->header = DecodeFrameHeader(header_bytes, max_body_bytes);
  out->body.resize(out->header.body_bytes);
  if (out->header.body_bytes > 0 &&
      !sock.ReadExact(out->body.data(), out->body.size())) {
    throw WireError("wire: connection closed before the frame body");
  }
  uint8_t trailer[kFrameChecksumBytes];
  if (!sock.ReadExact(trailer, sizeof(trailer))) {
    throw WireError("wire: connection closed before the frame checksum");
  }
  uint32_t crc = Crc32(header_bytes, sizeof(header_bytes));
  crc = Crc32(out->body.data(), out->body.size(), crc);
  if (crc != GetLe32(trailer)) {
    throw WireError("wire: frame checksum mismatch");
  }
  return true;
}

}  // namespace net
}  // namespace pverify
