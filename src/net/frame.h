// Whole-frame I/O over a Socket, shared by the server, the client and the
// tests: one place that knows every frame carries a CRC-32 trailer.
// Centralizing this is what makes the fault-injection story sound — every
// byte a peer sends flows through ReceiveFrame's checksum verification, so
// injected corruption surfaces as a WireError at the connection boundary
// instead of decoding into a wrong answer.
#ifndef PVERIFY_NET_FRAME_H_
#define PVERIFY_NET_FRAME_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"

namespace pverify {
namespace net {

/// One received frame plus the instant its header finished arriving —
/// the server anchors per-request deadlines here, so a peer that trickles
/// the body burns its own deadline budget, not the engine's.
struct ReceivedFrame {
  FrameHeader header;
  std::vector<uint8_t> body;
  std::chrono::steady_clock::time_point header_at{};
};

/// Encodes a complete frame (header, body and the CRC-32 trailer over
/// both) into one buffer.
std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t request_id,
                                 const WireWriter& body);

/// Writes EncodeFrame's buffer with one Socket::WriteAll, so every request
/// and reply crosses the network as one write. Callers serialize
/// concurrent senders on one socket themselves; a frame must never
/// interleave with another.
void SendFrameOn(Socket& sock, MessageType type, uint64_t request_id,
                 const WireWriter& body);

/// Reads the next complete frame. Returns false on a clean EOF between
/// frames; throws WireError on truncation, header violations, an oversized
/// body (WireTooLarge) or a checksum mismatch, and WireTimeout when the
/// socket has a receive timeout configured and it expires.
bool ReceiveFrame(Socket& sock, uint32_t max_body_bytes, ReceivedFrame* out);

}  // namespace net
}  // namespace pverify

#endif  // PVERIFY_NET_FRAME_H_
