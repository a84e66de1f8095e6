#include "net/server.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "net/codec.h"

namespace pverify {
namespace net {

using Clock = std::chrono::steady_clock;

Server::Server(Engine& engine, ServerOptions options)
    : engine_(engine), options_(options) {}

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
  // In-flight work is everything submitted-but-unanswered
  // (global_pending_) plus queued error frames the writers still owe;
  // readers reject anything new with kShuttingDown from here on.
  Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  for (;;) {
    bool idle = global_pending_.load(std::memory_order_acquire) == 0;
    if (idle) {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto& conn : conns_) {
        std::lock_guard<std::mutex> conn_lock(conn->mu);
        if (!conn->queue.empty()) {
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
    conn->sock.ShutdownBoth();
    conn->cv.notify_all();
  }
  for (auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
  conns_.clear();
  started_ = false;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
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
      WireWriter body;
      EncodeErrorBody(ErrorCode::kOverloaded, "server connection limit reached",
                      body);
      {
        // Count before the write: a client that has read the rejection
        // frame must already observe the counter.
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.connections_rejected;
      }
      try {
        SendFrameOn(sock, MessageType::kError, 0, body);
      } catch (const WireError&) {
      }
      continue;
    }
    {
      // Count before the reader starts: a client that has been answered
      // must already observe the counter.
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.connections_accepted;
    }
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(sock);
    Connection* raw = conn.get();
    conn->reader = std::thread([this, raw] { ReaderLoop(raw); });
    conn->writer = std::thread([this, raw] { WriterLoop(raw); });
    conns_.push_back(std::move(conn));
  }
}

bool Server::SendOnConn(Connection* conn, MessageType type,
                        uint64_t request_id, const WireWriter& body) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  try {
    SendFrameOn(conn->sock, type, request_id, body);
    return true;
  } catch (const WireTimeout&) {
    // The peer stopped draining its socket: the slow-reader policy cuts it
    // loose rather than let one stalled connection pin a writer thread and
    // an unbounded backlog.
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.slow_reader_disconnects;
    }
    conn->sock.ShutdownBoth();
    return false;
  } catch (const WireError&) {
    conn->sock.ShutdownBoth();
    return false;
  }
}

bool Server::RejectNow(Connection* conn, uint64_t request_id, ErrorCode code,
                       const std::string& message) {
  WireWriter body;
  EncodeErrorBody(code, message, body);
  return SendOnConn(conn, MessageType::kError, request_id, body);
}

void Server::QueueProtocolError(Connection* conn, uint64_t request_id,
                                ErrorCode code, const std::string& message) {
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.protocol_errors;
  }
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->writer_exited) return;
  Outgoing out;
  out.type = MessageType::kError;
  out.request_id = request_id;
  out.code = code;
  out.error = message;
  out.close_after = true;
  conn->queue.push_back(std::move(out));
  conn->cv.notify_one();
}

void Server::ReaderLoop(Connection* conn) {
  for (;;) {
    ReceivedFrame frame;
    uint64_t request_id = 0;
    try {
      if (!ReceiveFrame(conn->sock, options_.max_body_bytes, &frame)) {
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
      // sent by this thread directly (the protocol allows out-of-order
      // frames), so a client whose responses are stuck behind a full
      // writer queue still hears the backpressure immediately.
      bool has_deadline = ext.deadline_ms > 0;
      Clock::time_point deadline =
          frame.header_at + std::chrono::milliseconds(ext.deadline_ms);
      if (has_deadline && Clock::now() >= deadline) {
        // Expired on arrival (or while the body trickled in): answer
        // without ever running the engine.
        {
          std::lock_guard<std::mutex> stats_lock(stats_mu_);
          ++stats_.deadline_expirations;
        }
        if (!RejectNow(conn, request_id, ErrorCode::kDeadlineExceeded,
                       "deadline expired before execution")) {
          break;
        }
        continue;
      }
      if (draining_.load(std::memory_order_acquire)) {
        {
          std::lock_guard<std::mutex> stats_lock(stats_mu_);
          ++stats_.shutdown_rejections;
        }
        if (!RejectNow(conn, request_id, ErrorCode::kShuttingDown,
                       "server is draining")) {
          break;
        }
        continue;
      }
      if (options_.max_pending > 0 &&
          global_pending_.load(std::memory_order_acquire) >=
              options_.max_pending) {
        {
          std::lock_guard<std::mutex> stats_lock(stats_mu_);
          ++stats_.overload_rejections;
        }
        if (!RejectNow(conn, request_id, ErrorCode::kOverloaded,
                       "server admission limit reached")) {
          break;
        }
        continue;
      }
      if (options_.max_inflight_per_conn > 0 &&
          conn->inflight.load(std::memory_order_acquire) >=
              options_.max_inflight_per_conn) {
        {
          std::lock_guard<std::mutex> stats_lock(stats_mu_);
          ++stats_.overload_rejections;
        }
        if (!RejectNow(conn, request_id, ErrorCode::kOverloaded,
                       "per-connection in-flight limit reached")) {
          break;
        }
        continue;
      }

      global_pending_.fetch_add(1, std::memory_order_acq_rel);
      conn->inflight.fetch_add(1, std::memory_order_acq_rel);
      Outgoing out;
      out.type = MessageType::kResponse;
      out.request_id = request_id;
      out.has_deadline = has_deadline;
      out.deadline = deadline;
      out.future = engine_.Submit(std::move(request));
      bool writer_gone = false;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->writer_exited) {
          writer_gone = true;
        } else {
          conn->queue.push_back(std::move(out));
          conn->cv.notify_one();
        }
      }
      if (writer_gone) {
        conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
        global_pending_.fetch_sub(1, std::memory_order_acq_rel);
        break;
      }
    } catch (const WireTooLarge& e) {
      // Oversized frame: answer kTooLarge (after earlier responses drain),
      // then close — resynchronizing with an unread multi-megabyte body is
      // not worth trusting the peer's framing again.
      QueueProtocolError(conn, request_id, ErrorCode::kTooLarge, e.what());
      break;
    } catch (const WireError& e) {
      // Malformed frame (or socket error): queue a final error frame and
      // drop the connection once earlier responses have drained. The frame
      // is best effort — if the socket itself died, the writer's send just
      // fails and the teardown path is the same.
      QueueProtocolError(conn, request_id, ErrorCode::kProtocol, e.what());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->reader_done = true;
  conn->cv.notify_all();
}

bool Server::DeliverResponse(Connection* conn, Outgoing& out) {
  // Bounded wait: poll the stop flag so a hard Stop() never deadlocks on
  // an engine future that will not resolve, and cut over to the deadline
  // answer the moment the request's budget runs out (queue time counted —
  // the budget was anchored when the frame header arrived).
  bool expired = false;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    std::chrono::milliseconds wait(50);
    if (out.has_deadline) {
      Clock::time_point now = Clock::now();
      if (now >= out.deadline) {
        expired = true;
        break;
      }
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      out.deadline - now) +
                  std::chrono::milliseconds(1);
      wait = std::min(wait, left);
    }
    if (out.future.wait_for(wait) == std::future_status::ready) break;
  }
  WireWriter body;
  MessageType type = MessageType::kResponse;
  if (expired) {
    type = MessageType::kError;
    EncodeErrorBody(ErrorCode::kDeadlineExceeded,
                    "deadline exceeded while queued or executing", body);
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.deadline_expirations;
  } else {
    try {
      // The future resolves even while this connection's peer pipelines
      // more frames — the reader keeps Submitting concurrently.
      QueryResult result = out.future.get();
      EncodeResult(result, body);
    } catch (const std::exception& e) {
      // Request-level failure (engine rejected the query): report it on
      // this request id and keep the connection alive.
      type = MessageType::kError;
      body.Clear();
      EncodeErrorBody(ErrorCode::kInvalidRequest, e.what(), body);
    }
  }
  if (!SendOnConn(conn, type, out.request_id, body)) return false;
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  if (type == MessageType::kResponse) {
    ++stats_.requests_served;
  } else if (!expired) {
    ++stats_.request_errors;
  }
  return true;
}

void Server::WriterLoop(Connection* conn) {
  bool close = false;
  while (!close) {
    Outgoing out;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->cv.wait(lock, [conn] {
        return !conn->queue.empty() || conn->reader_done;
      });
      if (conn->queue.empty()) break;  // reader done and nothing pending
      out = std::move(conn->queue.front());
      conn->queue.pop_front();
    }
    close = out.close_after;
    if (out.type == MessageType::kResponse) {
      bool sent = DeliverResponse(conn, out);
      conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
      global_pending_.fetch_sub(1, std::memory_order_acq_rel);
      if (!sent) break;
    } else {
      WireWriter body;
      EncodeErrorBody(out.code, out.error, body);
      if (!SendOnConn(conn, MessageType::kError, out.request_id, body)) break;
    }
  }
  // Account for anything still queued (and stop the reader from queueing
  // more) so Drain's pending gauge cannot leak entries this writer will
  // never send.
  std::deque<Outgoing> leftovers;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->writer_exited = true;
    leftovers.swap(conn->queue);
  }
  for (const Outgoing& left : leftovers) {
    if (left.type == MessageType::kResponse) {
      conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
      global_pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  // Unblock the reader if it is still parked in recv, then let the accept
  // loop (or Stop) reap both threads.
  conn->sock.ShutdownBoth();
  conn->finished.store(true, std::memory_order_release);
}

}  // namespace net
}  // namespace pverify
