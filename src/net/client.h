// Client side of the pverify wire protocol, shared by the CLI's --connect
// mode, the loopback tests and the load generator.
//
// The connection is full duplex: Send() pipelines request frames without
// waiting, ReadNext()/Await() pull response frames back. Sending and
// receiving take separate locks, so one sender thread and one receiver
// thread can drive the same connection concurrently (the load generator's
// open-loop pattern); multiple concurrent receivers are NOT supported —
// ReadNext hands out whole frames in arrival order and a second reader
// would interleave demux state. Await() buffers out-of-order arrivals so
// callers can collect responses in any order they like.
#ifndef PVERIFY_NET_CLIENT_H_
#define PVERIFY_NET_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/request.h"
#include "net/socket.h"
#include "net/wire.h"

namespace pverify {
namespace net {

/// One server reply. `ok` distinguishes a result from a request-level
/// error frame (whose typed code and message land in `code`/`error`).
struct ServeResponse {
  uint64_t request_id = 0;
  bool ok = false;
  ErrorCode code = ErrorCode::kGeneric;
  std::string error;
  QueryResult result;
};

struct ClientOptions {
  uint32_t max_body_bytes = kDefaultMaxBodyBytes;
  /// Bounds every blocking read (SO_RCVTIMEO); a server that stops
  /// answering surfaces as WireTimeout instead of a hang. 0 = wait
  /// forever. Retrying callers should set this: it is what makes the
  /// chaos suite's "never hang" guarantee hold on the client side too.
  uint32_t recv_timeout_ms = 0;
};

class Client {
 public:
  /// Connects to a running pverify_serve. Throws WireError on failure.
  static Client Connect(const std::string& host, uint16_t port,
                        ClientOptions options = {});

  /// Heap-allocating variant for callers that reconnect (the RetryingClient
  /// replaces a dead connection in place; Client itself is not movable).
  static std::unique_ptr<Client> ConnectUnique(const std::string& host,
                                               uint16_t port,
                                               ClientOptions options = {});

  // Not movable (mutex members); Connect returns by guaranteed elision.
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Encodes and sends one request frame, returning the request id the
  /// response will carry. Does not wait for the response — callers pipeline
  /// freely. Thread-safe against a concurrent receiver. `deadline_ms` > 0
  /// rides the request extension block: the server answers kDeadlineExceeded
  /// instead of running a request whose budget (counted from the server
  /// reading the frame) ran out.
  uint64_t Send(const QueryRequest& request, uint32_t deadline_ms = 0);

  /// Blocks for the next response frame in arrival order. Throws WireError
  /// when the server closes the connection or sends a malformed frame.
  ServeResponse ReadNext();

  /// Blocks until the response for `request_id` arrives, buffering any
  /// other responses that land first (so out-of-order completion is
  /// transparent to callers awaiting in send order).
  ServeResponse Await(uint64_t request_id);

  /// Pipelines the whole batch, then awaits every response; results come
  /// back in request order. Throws WireError on connection loss.
  /// `deadline_ms` applies per request.
  std::vector<ServeResponse> Call(const std::vector<QueryRequest>& requests,
                                  uint32_t deadline_ms = 0);

  /// Half-closes the write side so the server sees a clean EOF and winds
  /// the connection down; pending responses can still be read.
  void Close();

 private:
  explicit Client(Socket sock, ClientOptions options)
      : sock_(std::move(sock)), options_(options) {}

  Socket sock_;
  ClientOptions options_;

  std::mutex send_mu_;
  uint64_t next_id_ = 1;

  std::mutex recv_mu_;
  std::map<uint64_t, ServeResponse> stash_;  ///< out-of-order arrivals
};

}  // namespace net
}  // namespace pverify

#endif  // PVERIFY_NET_CLIENT_H_
