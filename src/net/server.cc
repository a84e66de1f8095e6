#include "net/server.h"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/codec.h"
#include "net/frame.h"

namespace pverify {
namespace net {

using Clock = std::chrono::steady_clock;

namespace {

/// Over this many backlogged bytes the reader stops reading frames until
/// the writer thread has flushed the backlog: TCP backpressure on a client
/// that sends faster than it reads its replies.
constexpr size_t kMaxBacklogBytes = size_t{1} << 20;

/// k-NN costs 20-25 point queries, so a worker's wake-up is noise next to
/// it, while running it on the reader would hold the connection's next
/// frames for milliseconds: it always goes to the pool.
bool IsKnn(QueryKind kind) {
  return kind == QueryKind::kKnn || kind == QueryKind::kKnn2D;
}

std::vector<uint8_t> ErrorFrame(uint64_t request_id, ErrorCode code,
                                const std::string& message) {
  WireWriter body;
  EncodeErrorBody(code, message, body);
  return EncodeFrame(MessageType::kError, request_id, body);
}

}  // namespace

struct Server::Counters {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};
  std::atomic<uint64_t> requests_served{0};
  std::atomic<uint64_t> request_errors{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> overload_rejections{0};
  std::atomic<uint64_t> deadline_expirations{0};
  std::atomic<uint64_t> slow_reader_disconnects{0};
  std::atomic<uint64_t> shutdown_rejections{0};
  /// Submitted-but-unanswered requests across all connections (the
  /// admission-limit gauge; also Drain's "work left" signal).
  std::atomic<size_t> pending{0};
};

struct Server::Connection {
  /// Orders a connection's deadlines: (deadline, per-connection sequence).
  using DeadlineKey = std::pair<Clock::time_point, uint64_t>;

  Connection(Socket s, std::shared_ptr<Counters> c)
      : sock(std::move(s)), counters(std::move(c)) {}

  /// Writes `frame` with a non-blocking send and queues whatever the socket
  /// does not take for the writer thread. Never blocks. Caller holds mu.
  void SendLocked(const std::vector<uint8_t>& frame);
  /// Tears the connection down: nothing more is sent, and its unanswered
  /// requests leave the admission gauge. Caller holds mu.
  void KillLocked();
  /// The completion callback: writes one request's reply on the calling
  /// thread, unless its deadline or the teardown settled it first.
  void Finish(uint64_t request_id, const DeadlineKey* key, QueryResult result,
              std::exception_ptr error);
  /// The writer thread: flushes the backlog, expires deadlines and sends
  /// the final protocol error, until the connection is done or dead.
  void WriterLoop();

  Socket sock;
  const std::shared_ptr<Counters> counters;
  std::thread reader;
  std::thread writer;
  std::atomic<bool> finished{false};  ///< writer exited; reapable

  std::mutex mu;
  /// Wakes the writer (backlog, deadline, reader done, last reply) and a
  /// reader paused on a full backlog.
  std::condition_variable cv;
  // Everything below is guarded by mu.
  bool dead = false;         ///< torn down: nothing more is sent
  bool reader_done = false;
  bool flushing = false;     ///< the writer is writing a taken backlog
  size_t inflight = 0;       ///< submitted-but-unanswered requests
  uint64_t next_seq = 0;
  std::vector<uint8_t> backlog;      ///< bytes the socket has not taken yet
  std::vector<uint8_t> final_frame;  ///< protocol error, after the last reply
  std::map<DeadlineKey, uint64_t> deadlines;  ///< → request id
};

void Server::Connection::SendLocked(const std::vector<uint8_t>& frame) {
  if (dead) return;
  size_t sent = 0;
  if (backlog.empty() && !flushing) {
    try {
      sent = sock.WriteSome(frame.data(), frame.size());
    } catch (const WireError&) {
      KillLocked();
      return;
    }
  }
  if (sent < frame.size()) {
    backlog.insert(backlog.end(), frame.begin() + sent, frame.end());
    cv.notify_all();
  }
}

void Server::Connection::KillLocked() {
  if (dead) return;
  dead = true;
  counters->pending -= inflight;
  inflight = 0;
  deadlines.clear();
  backlog.clear();
  final_frame.clear();
  // Unblocks the reader parked in recv and a writer mid-flush.
  sock.ShutdownBoth();
  cv.notify_all();
}

void Server::Connection::Finish(uint64_t request_id, const DeadlineKey* key,
                                QueryResult result,
                                std::exception_ptr error) {
  // Encode outside the lock: only the write itself is serialized.
  WireWriter body;
  MessageType type = MessageType::kResponse;
  try {
    if (error) std::rethrow_exception(error);
    EncodeResult(result, body);
  } catch (const std::exception& e) {
    // Request-level failure (engine rejected the query): report it on this
    // request id and keep the connection alive.
    type = MessageType::kError;
    body.Clear();
    EncodeErrorBody(ErrorCode::kInvalidRequest, e.what(), body);
  }
  const std::vector<uint8_t> frame = EncodeFrame(type, request_id, body);
  std::lock_guard<std::mutex> lock(mu);
  if (dead) return;  // the teardown settled it
  if (key != nullptr && deadlines.erase(*key) == 0) return;  // expired
  --inflight;
  --counters->pending;
  if (type == MessageType::kResponse) {
    ++counters->requests_served;
  } else {
    ++counters->request_errors;
  }
  SendLocked(frame);
  if (reader_done && inflight == 0) cv.notify_all();
}

void Server::Connection::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu);
  while (!dead) {
    if (!backlog.empty()) {
      // Take the backlog and write it without the lock. Completions keep
      // appending behind it; nobody else writes while `flushing` is set.
      std::vector<uint8_t> chunk;
      chunk.swap(backlog);
      flushing = true;
      lock.unlock();
      bool failed = false;
      try {
        sock.WriteAll(chunk.data(), chunk.size());
      } catch (const WireTimeout&) {
        // The peer stopped draining its socket: the slow-reader policy cuts
        // it loose rather than let it pin an unbounded backlog.
        ++counters->slow_reader_disconnects;
        failed = true;
      } catch (const WireError&) {
        failed = true;
      }
      lock.lock();
      flushing = false;
      if (failed) KillLocked();
      cv.notify_all();  // a reader paused on the backlog
      continue;
    }
    const Clock::time_point now = Clock::now();
    while (!dead && !deadlines.empty() &&
           deadlines.begin()->first.first <= now) {
      // Queue time counts: the budget was anchored when the frame header
      // arrived. The engine keeps working; its completion is dropped.
      const uint64_t request_id = deadlines.begin()->second;
      deadlines.erase(deadlines.begin());
      --inflight;
      --counters->pending;
      ++counters->deadline_expirations;
      SendLocked(ErrorFrame(request_id, ErrorCode::kDeadlineExceeded,
                            "deadline exceeded while queued or executing"));
    }
    if (dead || !backlog.empty()) continue;
    if (reader_done && inflight == 0) {
      if (final_frame.empty()) break;  // every reply is written
      SendLocked(final_frame);
      final_frame.clear();
      continue;
    }
    if (deadlines.empty()) {
      cv.wait(lock);
    } else {
      // A copy: the node may be erased while the lock is released.
      const Clock::time_point next = deadlines.begin()->first.first;
      cv.wait_until(lock, next);
    }
  }
  // Done or dead: shutting the socket down also ends the reader; the accept
  // loop (or Stop) then reaps both threads.
  KillLocked();
  finished.store(true, std::memory_order_release);
}

Server::Server(Engine& engine, ServerOptions options)
    : engine_(engine),
      options_(options),
      counters_(std::make_shared<Counters>()) {}

Server::~Server() { Stop(); }

void Server::Start() {
  listener_ = Listener::Bind(options_.port, options_.listen_backlog);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
}

bool Server::Drain(uint32_t deadline_ms) {
  if (!started_) return true;
  draining_.store(true, std::memory_order_release);
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // In-flight work is everything submitted-but-unanswered plus bytes and
  // error frames the connections still owe; readers reject anything new
  // with kShuttingDown from here on.
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  for (;;) {
    bool idle = counters_->pending.load() == 0;
    if (idle) {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto& conn : conns_) {
        std::lock_guard<std::mutex> conn_lock(conn->mu);
        if (!conn->backlog.empty() || conn->flushing ||
            !conn->final_frame.empty()) {
          idle = false;
          break;
        }
      }
    }
    if (idle) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void Server::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();

  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& conn : conns_) {
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    conn->KillLocked();
  }
  for (auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
  conns_.clear();
  started_ = false;
}

ServerStats Server::stats() const {
  const Counters& c = *counters_;
  ServerStats s;
  s.connections_accepted = c.connections_accepted;
  s.connections_rejected = c.connections_rejected;
  s.requests_served = c.requests_served;
  s.request_errors = c.request_errors;
  s.protocol_errors = c.protocol_errors;
  s.overload_rejections = c.overload_rejections;
  s.deadline_expirations = c.deadline_expirations;
  s.slow_reader_disconnects = c.slow_reader_disconnects;
  s.shutdown_rejections = c.shutdown_rejections;
  return s;
}

void Server::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& conn = **it;
    if (conn.finished.load(std::memory_order_acquire)) {
      if (conn.reader.joinable()) conn.reader.join();
      if (conn.writer.joinable()) conn.writer.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire) &&
         !draining_.load(std::memory_order_acquire)) {
    Socket sock = listener_.Accept();
    if (!sock.valid()) continue;  // shutdown or a racing client; re-check
    try {
      if (options_.write_timeout_ms > 0) {
        sock.SetSendTimeoutMs(options_.write_timeout_ms);
      }
      if (options_.send_buffer_bytes > 0) {
        sock.SetSendBufferBytes(options_.send_buffer_bytes);
      }
    } catch (const WireError&) {
      // Losing the options degrades the slow-reader bound, nothing else.
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    ReapFinishedLocked();
    if (conns_.size() >= options_.max_connections) {
      // Over the cap: tell the client why, then hang up. A best-effort
      // write — a peer that already vanished only costs us the syscall.
      // Count before the write: a client that has read the rejection frame
      // must already observe the counter.
      ++counters_->connections_rejected;
      const std::vector<uint8_t> frame = ErrorFrame(
          0, ErrorCode::kOverloaded, "server connection limit reached");
      try {
        sock.WriteAll(frame.data(), frame.size());
      } catch (const WireError&) {
      }
      continue;
    }
    // Count before the reader starts: a client that has been answered must
    // already observe the counter.
    ++counters_->connections_accepted;
    auto conn = std::make_shared<Connection>(std::move(sock), counters_);
    Connection* raw = conn.get();
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    conn->writer = std::thread([raw] { raw->WriterLoop(); });
    conns_.push_back(std::move(conn));
  }
}

void Server::ReaderLoop(const std::shared_ptr<Connection>& conn) {
  Connection& c = *conn;
  Counters& counters = *counters_;
  // Sends one typed answer from this thread; false once the connection is
  // dead.
  auto reply_error = [&c](uint64_t request_id, ErrorCode code,
                          const std::string& message) {
    const std::vector<uint8_t> frame = ErrorFrame(request_id, code, message);
    std::lock_guard<std::mutex> lock(c.mu);
    c.SendLocked(frame);
    return !c.dead;
  };
  // A malformed frame ends the connection: its typed error goes out after
  // the in-flight replies, then the writer closes.
  auto protocol_error = [&c, &counters](uint64_t request_id, ErrorCode code,
                                        const std::string& message) {
    ++counters.protocol_errors;
    std::lock_guard<std::mutex> lock(c.mu);
    if (!c.dead) c.final_frame = ErrorFrame(request_id, code, message);
  };
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(c.mu);
      c.cv.wait(lock, [&c] {
        return c.dead || c.backlog.size() <= kMaxBacklogBytes;
      });
      if (c.dead) break;
    }
    ReceivedFrame frame;
    uint64_t request_id = 0;
    try {
      if (!ReceiveFrame(c.sock, options_.max_body_bytes, &frame)) {
        break;  // clean EOF between frames: client is done
      }
      request_id = frame.header.request_id;
      if (frame.header.type != MessageType::kRequest) {
        throw WireError("wire: expected a request frame");
      }
      WireReader reader(frame.body.data(), frame.body.size());
      RequestExtensions ext = DecodeRequestExtensions(reader);
      QueryRequest request = DecodeRequest(reader);
      reader.ExpectEnd();

      // Admission control, in rejection-priority order. Every rejection is
      // sent by this thread at once (the protocol allows any reply order),
      // so a client whose requests are stuck in the engine still hears the
      // backpressure.
      const bool has_deadline = ext.deadline_ms > 0;
      const Clock::time_point deadline =
          frame.header_at + std::chrono::milliseconds(ext.deadline_ms);
      if (has_deadline && Clock::now() >= deadline) {
        // Expired on arrival (or while the body trickled in): answer
        // without ever running the engine.
        ++counters.deadline_expirations;
        if (!reply_error(request_id, ErrorCode::kDeadlineExceeded,
                         "deadline expired before execution")) {
          break;
        }
        continue;
      }
      if (draining_.load(std::memory_order_acquire)) {
        ++counters.shutdown_rejections;
        if (!reply_error(request_id, ErrorCode::kShuttingDown,
                         "server is draining")) {
          break;
        }
        continue;
      }
      if (options_.max_pending > 0 &&
          counters.pending.load() >= options_.max_pending) {
        ++counters.overload_rejections;
        if (!reply_error(request_id, ErrorCode::kOverloaded,
                         "server admission limit reached")) {
          break;
        }
        continue;
      }
      Connection::DeadlineKey key{deadline, 0};
      bool over_cap = false;
      bool alone = false;  // nothing else of this connection in flight
      {
        std::lock_guard<std::mutex> lock(c.mu);
        if (c.dead) break;
        over_cap = options_.max_inflight_per_conn > 0 &&
                   c.inflight >= options_.max_inflight_per_conn;
        if (!over_cap) {
          alone = c.inflight == 0;
          ++c.inflight;
          ++counters.pending;
          if (has_deadline) {
            key.second = c.next_seq++;
            // The writer sleeps until the earliest deadline; wake it when
            // this one is earlier.
            const auto it = c.deadlines.emplace(key, request_id).first;
            if (it == c.deadlines.begin()) c.cv.notify_all();
          }
        }
      }
      if (over_cap) {
        ++counters.overload_rejections;
        if (!reply_error(request_id, ErrorCode::kOverloaded,
                         "per-connection in-flight limit reached")) {
          break;
        }
        continue;
      }
      auto done = [conn, request_id, has_deadline, key](
                      QueryResult result, std::exception_ptr error) {
        conn->Finish(request_id, has_deadline ? &key : nullptr,
                     std::move(result), error);
      };
      // Run to completion here when posting would only wake a parked worker
      // for one request: the connection has nothing else in flight, no
      // further frame is waiting behind this one, the request is not a
      // k-NN, and a worker is idle (with every worker busy the post wakes
      // nobody, and running here would oversubscribe the cores). The
      // socket probe is a syscall, so it goes last.
      if (alone && !IsKnn(request.kind()) && engine_.IdleWorkers() > 0 &&
          c.sock.BytesAvailable() == 0) {
        QueryResult result;
        std::exception_ptr error;
        try {
          result = engine_.Execute(std::move(request));
        } catch (...) {
          error = std::current_exception();
        }
        done(std::move(result), error);
      } else {
        engine_.SubmitThen(std::move(request), std::move(done));
      }
    } catch (const WireTooLarge& e) {
      // Oversized frame: resynchronizing with an unread multi-megabyte body
      // is not worth trusting the peer's framing again.
      protocol_error(request_id, ErrorCode::kTooLarge, e.what());
      break;
    } catch (const WireError& e) {
      // Malformed frame (or socket error). The frame is best effort — if
      // the socket itself died, its send just fails and the teardown path
      // is the same.
      protocol_error(request_id, ErrorCode::kProtocol, e.what());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(c.mu);
  c.reader_done = true;
  c.cv.notify_all();
}

}  // namespace net
}  // namespace pverify
