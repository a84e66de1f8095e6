// Retry/backoff client wrapper: the polite response to kOverloaded.
//
// The server's backpressure story (net/server.h) only works if clients
// back off instead of dying, so this is the client half: RetryingClient
// owns a (re)connectable Client and re-runs failed requests under a
// RetryPolicy — exponential backoff with deterministic jitter (seeded, so
// a failing run replays exactly and tests assert the schedule), transparent
// reconnect after connection loss, and retry only where it is safe:
// connect failures, kOverloaded/kShuttingDown rejections (the server
// never started the request), deadline expirations and connection-level
// errors (pverify queries are pure reads, so re-running one at most wastes
// work — it cannot double-apply anything).
//
// pverify_cli --connect surfaces this through --retries/--deadline-ms;
// chaos_test drives a full differential batch through a fault-injecting
// server with it.
#ifndef PVERIFY_NET_RETRY_H_
#define PVERIFY_NET_RETRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"

namespace pverify {
namespace net {

struct RetryPolicy {
  /// Total tries per request (first attempt included). 1 = never retry.
  int max_attempts = 3;
  uint32_t initial_backoff_ms = 10;
  uint32_t max_backoff_ms = 1000;
  double multiplier = 2.0;
  /// Seed for the deterministic jitter (attempt k sleeps
  /// backoff_k × U[0.5, 1.0) where U is a pure function of seed and k).
  uint64_t jitter_seed = 1;
  /// Whether kDeadlineExceeded answers are retried. Safe for pverify's
  /// read-only queries; turn off for latency-budgeted callers that prefer
  /// the typed error over a late answer.
  bool retry_timeouts = true;
};

/// Client-side counterpart of ServerStats.
struct ClientStats {
  uint64_t send_attempts = 0;      ///< request frames sent, retries included
  uint64_t retries = 0;            ///< re-sends beyond a request's first try
  uint64_t reconnects = 0;         ///< successful reconnects after a loss
  uint64_t connect_failures = 0;   ///< failed connection attempts
  uint64_t overloaded = 0;         ///< kOverloaded answers seen
  uint64_t deadline_exceeded = 0;  ///< kDeadlineExceeded answers seen
  uint64_t connection_errors = 0;  ///< WireError-level failures (sever, ...)
  uint64_t exhausted = 0;          ///< requests failed after max_attempts
};

/// The backoff before attempt `attempt` (2 = first retry): exponential in
/// the policy with deterministic jitter. Exposed for tests.
uint32_t RetryBackoffMs(const RetryPolicy& policy, int attempt);

/// A Client that survives faults. Connects lazily on first use; any
/// connection-level failure tears the Client down and the next attempt
/// reconnects. NOT thread-safe — one RetryingClient per driving thread.
class RetryingClient {
 public:
  RetryingClient(std::string host, uint16_t port, ClientOptions options = {},
                 RetryPolicy policy = {});

  /// Runs the whole batch, retrying retryable failures per policy.
  /// Returns one response per request, in request order: `ok` on success,
  /// else the last typed error (never throws for per-request failures —
  /// exhausted retries surface as that request's final error response).
  std::vector<ServeResponse> Call(const std::vector<QueryRequest>& requests,
                                  uint32_t deadline_ms = 0);

  /// One request, retried per policy. Throws WireError when every attempt
  /// failed.
  QueryResult Execute(const QueryRequest& request, uint32_t deadline_ms = 0);

  const ClientStats& stats() const { return stats_; }
  bool connected() const { return client_ != nullptr; }

 private:
  /// True when a usable connection exists afterwards.
  bool EnsureConnected();
  void DropConnection();
  void Backoff(int attempt);

  std::string host_;
  uint16_t port_;
  ClientOptions options_;
  RetryPolicy policy_;
  std::unique_ptr<Client> client_;
  bool ever_connected_ = false;
  ClientStats stats_;
};

}  // namespace net
}  // namespace pverify

#endif  // PVERIFY_NET_RETRY_H_
