// pverify_serve's multi-client TCP server.
//
// Serving model: thread-per-connection (one reader + one writer thread per
// accepted socket) behind a hard connection cap — NOT epoll. The trade was
// deliberate: a pverify query costs tens of microseconds to milliseconds
// of CPU in the engine, so the scalability bottleneck is the worker pool,
// not socket readiness — a connection's requests run on the engine's
// shared work-stealing pool (and an optional CachingEngine wrapper
// memoizes across connections). Blocking reads keep the decode path a
// straight line with strict frame sequencing per connection, and the cap
// bounds the thread count (2 × max_connections) so thread-per-connection
// stays cheap: at the point where thousands of concurrent sockets would
// demand epoll, the engine would be saturated long before the kernel is.
//
// Who executes a request: the reader thread decodes frames into typed
// QueryRequests. It runs one itself, with Engine::Execute, when all of
// these hold: the connection has nothing else in flight, the socket holds
// no further bytes, the request is not a 1-D or 2-D k-NN, and the engine
// reports a parked pool worker (Engine::IdleWorkers). That lone request
// would otherwise pay a parked worker's wake-up, often longer than the
// verification itself. Every other request goes to Engine::SubmitThen, so
// a connection's pipelined requests still run in parallel on the pool,
// k-NN never holds up the frames behind it, and a busy pool is not
// oversubscribed by readers.
//
// The thread that finishes a request writes its reply, tagged with the
// client's request id: a pool worker, or the reader itself (a request it
// ran, or a CachingEngine hit). Replies therefore leave in completion
// order — a slow request holds back no other reply on its connection.
// Each frame is one write. A finisher never blocks on the socket: it tries
// a non-blocking send, and whatever the kernel will not take joins a
// per-connection backlog. The writer thread exists only for that backlog,
// which it flushes with blocking sends, and for the deadlines of the
// requests that carry one. Both dispatch paths settle a request through
// the same completion, so deadlines, admission counters and the
// one-frame-per-id rule do not depend on who ran it.
//
// Overload and failure discipline:
//  * backpressure — a per-connection in-flight cap and a global admission
//    limit on queued-but-unstarted requests. Requests over either cap are
//    answered kOverloaded immediately by the reader thread (the protocol
//    permits any reply order), so a client pipelining into a stalled
//    engine still hears the rejection and can back off; the connection
//    survives. The reader reads no further frame while the connection's
//    backlog holds more than 1 MiB, so the backlog stays within that plus
//    the replies of the requests already in flight.
//  * deadlines — a client can stamp deadline_ms on each request. The
//    budget is anchored when the frame header arrives. An already-expired
//    request is answered kDeadlineExceeded at decode without ever touching
//    the engine; otherwise the writer thread is the request's timer.
//    Whichever comes first — completion, expiry or Stop — settles the
//    request id, and at most one frame goes out for it: a completion after
//    the expiry is dropped.
//  * slow readers — the writer flushes the backlog under
//    options.write_timeout_ms (SO_SNDTIMEO) with an optionally shrunk
//    kernel send buffer. A peer that stops draining its socket stalls that
//    flush past the timeout and is disconnected (slow_reader_disconnects
//    counts them); other connections, and the pool, are unaffected.
//  * graceful drain — Drain(deadline) stops accepting, answers new
//    requests kShuttingDown, and waits for in-flight ones to finish within
//    the deadline. pverify_serve calls it on SIGTERM. A client that
//    half-closes after pipelining still receives every reply: the
//    connection closes once the last one is written.
//  * protocol errors (bad magic/version, checksum mismatch, oversized
//    length, unknown kind, truncated body) → a best-effort typed kError
//    frame (kTooLarge for cap violations, else kProtocol), sent after the
//    connection's in-flight replies; then the connection is closed. The
//    server itself always stays up.
//  * request-level failures (engine exceptions, e.g. a 2-D query against a
//    1-D-only engine or a non-finite coordinate) → kError/kInvalidRequest
//    tagged with the request id; the connection stays open.
//
// Lifetimes: completion callbacks hold their connection, and through it the
// server's counters, by shared_ptr, so a request the engine resolves after
// Stop() or ~Server only finds a dead connection and sends nothing.
#ifndef PVERIFY_NET_SERVER_H_
#define PVERIFY_NET_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <thread>

#include "engine/engine.h"
#include "net/socket.h"
#include "net/wire.h"

namespace pverify {
namespace net {

struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via Server::port()).
  uint16_t port = 0;
  /// Hard cap on concurrent connections; connection attempts beyond it get
  /// a kError/kOverloaded frame and an immediate close. Bounds the
  /// server's thread count at 2 × max_connections + 1.
  size_t max_connections = 64;
  /// Frame-body size cap enforced on every received header.
  uint32_t max_body_bytes = kDefaultMaxBodyBytes;
  int listen_backlog = 64;
  /// Requests one connection may have submitted-but-unanswered before the
  /// reader answers kOverloaded instead of submitting. 0 = unlimited.
  size_t max_inflight_per_conn = 128;
  /// Global admission limit across all connections on
  /// submitted-but-unanswered requests; over it the reader answers
  /// kOverloaded. 0 = unlimited.
  size_t max_pending = 1024;
  /// SO_SNDTIMEO on the writer thread's backlog flush; a flush blocked
  /// past this is the slow-reader signal and drops the connection.
  /// 0 = wait forever.
  uint32_t write_timeout_ms = 5000;
  /// When > 0, shrink each accepted socket's kernel send buffer so a slow
  /// reader's backlog is bounded by the kernel too (tests use this to
  /// trip the write timeout quickly).
  int send_buffer_bytes = 0;
};

/// Point-in-time server telemetry.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  ///< over the max_connections cap
  uint64_t requests_served = 0;       ///< response frames sent
  uint64_t request_errors = 0;        ///< kError frames for failed requests
  uint64_t protocol_errors = 0;       ///< malformed frames (connection dropped)
  uint64_t overload_rejections = 0;   ///< kOverloaded answers (either cap)
  uint64_t deadline_expirations = 0;  ///< kDeadlineExceeded answers
  uint64_t slow_reader_disconnects = 0;  ///< write-timeout teardowns
  uint64_t shutdown_rejections = 0;   ///< kShuttingDown answers while draining
};

/// Serves one Engine over TCP. The engine must outlive the server; Stop()
/// (or destruction) joins every thread before returning.
class Server {
 public:
  explicit Server(Engine& engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the accept loop. Throws WireError when the
  /// port cannot be bound.
  void Start();

  /// Graceful shutdown, phase 1: stop accepting, answer new requests with
  /// kShuttingDown, wait up to `deadline_ms` for in-flight requests to be
  /// answered. Returns true when everything drained, false on deadline.
  /// Call Stop() afterwards either way; callable before Start() (no-op).
  bool Drain(uint32_t deadline_ms);

  /// Hard stop: shuts every socket down and joins every thread. Replies
  /// not yet written are dropped; a request the engine resolves later
  /// (even after the server is destroyed) finds its connection dead and
  /// sends nothing, so engines that never resolve a SubmitThen cannot hold
  /// Stop up. A request a reader thread is running itself is the one
  /// exception: joining that reader waits for it to finish, which bounds
  /// Stop by one non-k-NN request per connection. Idempotent.
  void Stop();

  /// The bound port (valid after Start(); the ephemeral port when
  /// options.port was 0).
  uint16_t port() const { return listener_.port(); }

  /// Adjusts the frame-body cap; only valid before Start().
  void set_max_body_bytes(uint32_t bytes) { options_.max_body_bytes = bytes; }

  ServerStats stats() const;

 private:
  struct Counters;
  struct Connection;

  void AcceptLoop();
  void ReaderLoop(const std::shared_ptr<Connection>& conn);
  /// Joins and erases connections whose writer has exited. Called from the
  /// accept loop so a long-lived server does not accumulate dead threads.
  void ReapFinishedLocked();

  Engine& engine_;
  ServerOptions options_;
  Listener listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  bool started_ = false;

  /// Shared with every connection and, through it, every in-flight
  /// completion callback.
  std::shared_ptr<Counters> counters_;

  std::mutex conns_mu_;
  std::list<std::shared_ptr<Connection>> conns_;
};

}  // namespace net
}  // namespace pverify

#endif  // PVERIFY_NET_SERVER_H_
