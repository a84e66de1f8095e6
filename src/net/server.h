// pverify_serve's multi-client TCP server.
//
// Serving model: thread-per-connection (one reader + one writer thread per
// accepted socket) behind a hard connection cap — NOT epoll. The trade was
// deliberate: a pverify query costs milliseconds of CPU in the engine, so
// the scalability bottleneck is the worker pool, not socket readiness —
// every connection's requests are funneled through Engine::Submit, which
// posts each one to the engine's shared work-stealing pool (and an
// optional CachingEngine wrapper memoizes across connections). Blocking reads keep the decode path a straight line with
// strict frame sequencing per connection, and the cap bounds the thread
// count (2 × max_connections) so thread-per-connection stays cheap: at the
// point where thousands of concurrent sockets would demand epoll, the
// engine would be saturated long before the kernel is.
//
// Per connection: the reader thread decodes frames into typed
// QueryRequests and Submits them (so one connection's pipelined requests
// run in parallel on the pool), handing each pending future to the writer
// thread, which streams response frames back tagged with the client's
// request ids. The protocol permits out-of-order responses (ids are the
// correlation tags), but this implementation drains each connection's
// futures FIFO: a slow request still holds back the replies queued behind
// it on the same connection, though not their execution.
//
// Overload and failure discipline:
//  * backpressure — a per-connection in-flight cap and a global admission
//    limit on queued-but-unstarted requests. Requests over either cap are
//    answered kOverloaded *immediately by the reader thread* (out of order,
//    which the protocol permits) so a client pipelining into a stalled
//    writer still hears the rejection and can back off; the connection
//    survives. Because rejected requests never enter the writer queue, the
//    in-flight cap is also the bound on the per-connection write backlog.
//  * deadlines — a client can stamp deadline_ms on each request. The
//    budget is anchored when the frame header arrives and checked twice:
//    at decode (an already-expired request is answered kDeadlineExceeded
//    without ever touching the engine) and again at dequeue in the writer
//    (queue time counts; the writer abandons the future and answers
//    kDeadlineExceeded when the budget ran out while the engine worked).
//  * slow readers — response sends run under options.write_timeout_ms
//    (SO_SNDTIMEO) with an optionally shrunk kernel send buffer. A peer
//    that stops draining its socket stalls a send past the timeout and is
//    disconnected (slow_reader_disconnects counts them); other
//    connections are unaffected.
//  * graceful drain — Drain(deadline) stops accepting, answers new
//    requests kShuttingDown, and waits for in-flight ones to finish within
//    the deadline. pverify_serve calls it on SIGTERM.
//  * protocol errors (bad magic/version, checksum mismatch, oversized
//    length, unknown kind, truncated body) → best-effort typed kError
//    frame (kTooLarge for cap violations, else kProtocol), then the
//    connection is closed. The server itself always stays up.
//  * request-level failures (engine exceptions, e.g. a 2-D query against a
//    1-D-only engine) → kError/kInvalidRequest tagged with the request id;
//    the connection stays open.
#ifndef PVERIFY_NET_SERVER_H_
#define PVERIFY_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "engine/engine.h"
#include "net/frame.h"
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
  /// reader answers kOverloaded instead of Submitting. Also bounds the
  /// writer queue. 0 = unlimited.
  size_t max_inflight_per_conn = 128;
  /// Global admission limit across all connections on
  /// submitted-but-unanswered requests; over it the reader answers
  /// kOverloaded. 0 = unlimited.
  size_t max_pending = 1024;
  /// SO_SNDTIMEO on every response send; a send blocked past this is the
  /// slow-reader signal and drops the connection. 0 = wait forever.
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

  /// Hard stop: shuts every socket down and joins every thread. Responses
  /// still in flight are dropped (writers waiting on engine futures give
  /// up promptly, even if the engine never resolves them). Idempotent.
  void Stop();

  /// The bound port (valid after Start(); the ephemeral port when
  /// options.port was 0).
  uint16_t port() const { return listener_.port(); }

  /// Adjusts the frame-body cap; only valid before Start().
  void set_max_body_bytes(uint32_t bytes) { options_.max_body_bytes = bytes; }

  ServerStats stats() const;

 private:
  struct Outgoing {
    MessageType type = MessageType::kResponse;
    uint64_t request_id = 0;
    std::future<QueryResult> future;  ///< engaged for kResponse entries
    ErrorCode code = ErrorCode::kGeneric;  ///< for kError entries
    std::string error;                ///< message for kError entries
    bool close_after = false;         ///< protocol error: drop the connection
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
  };

  struct Connection {
    Socket sock;
    std::thread reader;
    std::thread writer;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Outgoing> queue;
    bool reader_done = false;
    bool writer_exited = false;  ///< guarded by mu; reader stops queueing
    std::atomic<bool> finished{false};  ///< writer exited; reapable
    /// Submitted-but-unanswered requests on this connection.
    std::atomic<size_t> inflight{0};
    /// Serializes reader-side immediate error frames against writer-side
    /// response frames on the one socket.
    std::mutex write_mu;
  };

  void AcceptLoop();
  void ReaderLoop(Connection* conn);
  void WriterLoop(Connection* conn);
  /// Sends one frame under the connection's write lock. Returns false when
  /// the send failed (timeout counts a slow reader) — the connection is
  /// already shut down then.
  bool SendOnConn(Connection* conn, MessageType type, uint64_t request_id,
                  const WireWriter& body);
  /// Reader-side immediate rejection (kOverloaded / kDeadlineExceeded /
  /// kShuttingDown): bypasses the writer queue so backpressure answers
  /// cannot sit behind blocked futures.
  bool RejectNow(Connection* conn, uint64_t request_id, ErrorCode code,
                 const std::string& message);
  /// Queues the final typed error frame for a malformed frame; the writer
  /// sends it after earlier responses drain, then closes.
  void QueueProtocolError(Connection* conn, uint64_t request_id,
                          ErrorCode code, const std::string& message);
  /// Finishes one popped kResponse entry: waits for the future (bounded by
  /// the deadline and the stop flag), encodes the response or a typed
  /// error, sends it. Returns false when the connection must close.
  bool DeliverResponse(Connection* conn, Outgoing& out);
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

  /// Submitted-but-unanswered requests across all connections (the
  /// admission-limit gauge; also Drain's "work left" signal).
  std::atomic<size_t> global_pending_{0};

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace net
}  // namespace pverify

#endif  // PVERIFY_NET_SERVER_H_
