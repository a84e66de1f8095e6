// Thin RAII wrappers over POSIX TCP sockets, shared by the server and the
// client library. Blocking I/O, plus one non-blocking write (WriteSome) so
// a server pool worker can hand a reply to the kernel without waiting; the
// serving model is thread-per-connection (see net/server.h for why), so
// nothing here needs readiness notification. All failures throw
// net::WireError with errno context; SIGPIPE is avoided via MSG_NOSIGNAL on every send (plus
// SO_NOSIGPIPE where the platform has it) rather than a global signal
// disposition. Optional per-socket send/receive timeouts (SO_SNDTIMEO /
// SO_RCVTIMEO) surface as net::WireTimeout — the server's slow-reader
// policy and the client's bounded reads are built on them. Every transfer
// consults the process-global FaultInjector (net/fault.h); with faults
// disabled that costs one relaxed atomic load.
#ifndef PVERIFY_NET_SOCKET_H_
#define PVERIFY_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "net/wire.h"

namespace pverify {
namespace net {

/// One connected TCP socket. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void Close();
  /// shutdown(SHUT_RDWR): unblocks any thread parked in ReadExact/WriteAll
  /// on this socket (used to tear down reader/writer thread pairs) without
  /// racing the close of the descriptor itself.
  void ShutdownBoth();

  /// Writes all n bytes; throws WireError on any error or peer reset, and
  /// WireTimeout when a send timeout is configured and the peer stops
  /// draining (the slow-reader signal).
  void WriteAll(const void* data, size_t n);

  /// Non-blocking write: sends what the kernel takes right now and returns
  /// that byte count (0 when the send buffer is full), ignoring any send
  /// timeout. Throws WireError on any error or peer reset. Consults the
  /// fault injector like WriteAll; bytes a corrupt fault mangled but the
  /// kernel did not take are left unmangled in `data`.
  size_t WriteSome(const void* data, size_t n);

  /// Reads exactly n bytes. Returns false on EOF before the first byte (a
  /// clean peer close between frames); throws WireError on EOF mid-buffer
  /// (a truncated frame) or any socket error, and WireTimeout when a
  /// receive timeout is configured and expires.
  bool ReadExact(void* data, size_t n);

  /// Bytes the kernel holds ready to read right now (FIONREAD); 0 when
  /// the query fails. Reads nothing.
  size_t BytesAvailable() const;

  /// Bounds how long one send may block on a full socket buffer
  /// (SO_SNDTIMEO); 0 disables. A blocked send past the timeout throws
  /// WireTimeout from WriteAll.
  void SetSendTimeoutMs(uint32_t timeout_ms);
  /// Bounds how long one recv may block waiting for bytes (SO_RCVTIMEO);
  /// 0 disables.
  void SetRecvTimeoutMs(uint32_t timeout_ms);
  /// Shrinks/grows the kernel send buffer (SO_SNDBUF) — with the send
  /// timeout this bounds how much a slow reader can buffer server-side.
  void SetSendBufferBytes(int bytes);

 private:
  int fd_ = -1;
};

/// Connects to host:port (numeric IP or name). Throws WireError on failure.
/// `recv_buffer_bytes` > 0 shrinks SO_RCVBUF before connecting (before the
/// TCP window is negotiated) — the tests use it to simulate slow readers.
Socket ConnectTcp(const std::string& host, uint16_t port,
                  int recv_buffer_bytes = 0);

/// A listening TCP socket bound to the loopback-reachable wildcard address.
class Listener {
 public:
  Listener() = default;
  /// Binds and listens; port 0 picks an ephemeral port (read it back via
  /// port() — tools print it and tests connect to it).
  static Listener Bind(uint16_t port, int backlog);

  bool valid() const { return fd_.valid(); }
  uint16_t port() const { return port_; }

  /// Blocks for the next connection. Returns an invalid Socket once the
  /// listener was Shutdown() (the accept-loop exit signal).
  Socket Accept();

  /// Unblocks Accept() and prevents further connections.
  void Shutdown() { fd_.ShutdownBoth(); }

 private:
  Socket fd_;
  uint16_t port_ = 0;
};

}  // namespace net
}  // namespace pverify

#endif  // PVERIFY_NET_SOCKET_H_
