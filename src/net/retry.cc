#include "net/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace pverify {
namespace net {

namespace {

/// Growth factor of the backoff between consecutive retries.
constexpr double kBackoffMultiplier = 2.0;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

uint32_t RetryBackoffMs(const RetryPolicy& policy, int attempt) {
  if (attempt <= 1) return 0;
  double base = static_cast<double>(policy.initial_backoff_ms);
  for (int k = 2; k < attempt; ++k) base *= kBackoffMultiplier;
  base = std::min(base, static_cast<double>(policy.max_backoff_ms));
  // Deterministic jitter in [0.5, 1.0): a pure function of (seed, attempt),
  // so two clients with different seeds desynchronize their retry storms
  // while any single run replays exactly.
  uint64_t h = SplitMix64(policy.jitter_seed ^
                          (static_cast<uint64_t>(attempt) *
                           0x9E3779B97F4A7C15ull));
  double frac = 0.5 + 0.5 * (static_cast<double>(h >> 11) *
                             (1.0 / 9007199254740992.0));  // 2^53
  return static_cast<uint32_t>(base * frac);
}

RetryingClient::RetryingClient(std::string host, uint16_t port,
                               ClientOptions options, RetryPolicy policy)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      policy_(policy) {}

bool RetryingClient::EnsureConnected() {
  if (client_) return true;
  try {
    client_ = Client::ConnectUnique(host_, port_, options_);
  } catch (const WireError&) {
    ++stats_.connect_failures;
    return false;
  }
  if (ever_connected_) ++stats_.reconnects;
  ever_connected_ = true;
  return true;
}

void RetryingClient::DropConnection() { client_.reset(); }

void RetryingClient::Backoff(int attempt) {
  uint32_t ms = RetryBackoffMs(policy_, attempt);
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::vector<ServeResponse> RetryingClient::Call(
    const std::vector<QueryRequest>& requests, uint32_t deadline_ms) {
  const size_t n = requests.size();
  std::vector<ServeResponse> out(n);
  std::vector<bool> done(n, false);
  std::vector<bool> sent_once(n, false);
  std::vector<size_t> remaining(n);
  for (size_t i = 0; i < n; ++i) remaining[i] = i;

  for (int attempt = 1;
       attempt <= policy_.max_attempts && !remaining.empty(); ++attempt) {
    if (attempt > 1) Backoff(attempt);
    if (!EnsureConnected()) {
      for (size_t idx : remaining) {
        out[idx] = ServeResponse{};
        out[idx].error = "connect to " + host_ + ":" +
                         std::to_string(port_) + " failed";
      }
      continue;
    }
    try {
      std::vector<uint64_t> ids;
      ids.reserve(remaining.size());
      for (size_t idx : remaining) {
        ids.push_back(client_->Send(requests[idx], deadline_ms));
        ++stats_.send_attempts;
        if (sent_once[idx]) ++stats_.retries;
        sent_once[idx] = true;
      }
      std::vector<size_t> still;
      for (size_t k = 0; k < ids.size(); ++k) {
        size_t idx = remaining[k];
        ServeResponse response = client_->Await(ids[k]);
        if (response.ok) {
          done[idx] = true;
        } else {
          if (response.code == ErrorCode::kOverloaded) ++stats_.overloaded;
          if (response.code == ErrorCode::kDeadlineExceeded) {
            ++stats_.deadline_exceeded;
          }
          if (IsRetryable(response.code)) {
            still.push_back(idx);
          } else {
            done[idx] = true;  // typed, final: surface it as-is
          }
        }
        out[idx] = std::move(response);
      }
      remaining.swap(still);
    } catch (const WireError& e) {
      // Connection-level failure (severed, corrupted framing, timeout):
      // the connection is useless; reconnect next attempt and re-run
      // everything not yet answered. Queries are pure reads, so a request
      // the server did manage to execute is merely recomputed.
      ++stats_.connection_errors;
      DropConnection();
      std::vector<size_t> still;
      for (size_t idx : remaining) {
        if (done[idx]) continue;
        out[idx] = ServeResponse{};
        out[idx].error = std::string("connection failure: ") + e.what();
        still.push_back(idx);
      }
      remaining.swap(still);
    }
  }
  stats_.exhausted += remaining.size();
  return out;
}

QueryResult RetryingClient::Execute(const QueryRequest& request,
                                    uint32_t deadline_ms) {
  std::string last_error = "never attempted";
  for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (attempt > 1) Backoff(attempt);
    if (!EnsureConnected()) {
      last_error = "connect to " + host_ + ":" + std::to_string(port_) +
                   " failed";
      continue;
    }
    try {
      uint64_t id = client_->Send(request, deadline_ms);
      ++stats_.send_attempts;
      if (attempt > 1) ++stats_.retries;
      ServeResponse response = client_->Await(id);
      if (response.ok) return std::move(response.result);
      if (response.code == ErrorCode::kOverloaded) ++stats_.overloaded;
      if (response.code == ErrorCode::kDeadlineExceeded) {
        ++stats_.deadline_exceeded;
      }
      last_error = response.error;
      if (!IsRetryable(response.code)) break;
    } catch (const WireError& e) {
      ++stats_.connection_errors;
      DropConnection();
      last_error = e.what();
    }
  }
  ++stats_.exhausted;
  throw WireError("request failed after " +
                  std::to_string(policy_.max_attempts) + " attempts: " +
                  last_error);
}

}  // namespace net
}  // namespace pverify
