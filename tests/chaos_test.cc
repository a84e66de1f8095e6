// The chaos suite: the serving path under byte-level fault injection.
//
// Contract under test (the robustness tentpole): with delays, corruption,
// truncation and severed connections injected into every socket transfer,
// the client/server pair must never hang, never crash and never return a
// wrong answer — every completed response is bit-identical to local
// execution and every failure is a clean typed error. The RetryingClient
// is the recovery mechanism, so this is also its integration test.
//
// Plus deterministic single-fault scenarios (ForceOnce) and unit tests for
// the PVERIFY_FAULTS spec parser and the backoff schedule.
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "differential_testutil.h"
#include "engine/query_engine.h"
#include "net/client.h"
#include "net/fault.h"
#include "net/retry.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"

namespace pverify {
namespace {

using Clock = std::chrono::steady_clock;

constexpr char kLoopback[] = "127.0.0.1";

/// Guard that guarantees the process-global injector is off again when a
/// test exits, even on assertion failure.
struct FaultScope {
  explicit FaultScope(const net::FaultConfig& config) {
    net::FaultInjector::Global().Configure(config);
  }
  ~FaultScope() { net::FaultInjector::Global().Disable(); }
};

QueryOptions TestOptions() {
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;
  return opt;
}

TEST(FaultSpecTest, ParsesDisabledAndDefaultForms) {
  EXPECT_FALSE(net::FaultInjector::ParseSpec("").enabled);
  EXPECT_FALSE(net::FaultInjector::ParseSpec("0").enabled);
  EXPECT_FALSE(net::FaultInjector::ParseSpec("off").enabled);

  net::FaultConfig mild = net::FaultInjector::ParseSpec("1");
  EXPECT_TRUE(mild.enabled);
  EXPECT_GT(mild.delay_p, 0.0);
  EXPECT_GT(mild.corrupt_p, 0.0);
  EXPECT_TRUE(net::FaultInjector::ParseSpec("on").enabled);
}

TEST(FaultSpecTest, ParsesKeyValueSpec) {
  net::FaultConfig config = net::FaultInjector::ParseSpec(
      "seed=42,delay_p=0.25,delay_ms=3,corrupt_p=0.5,truncate_p=0.125,"
      "sever_p=0.0625");
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.seed, 42u);
  EXPECT_DOUBLE_EQ(config.delay_p, 0.25);
  EXPECT_EQ(config.delay_ms, 3u);
  EXPECT_DOUBLE_EQ(config.corrupt_p, 0.5);
  EXPECT_DOUBLE_EQ(config.truncate_p, 0.125);
  EXPECT_DOUBLE_EQ(config.sever_p, 0.0625);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(net::FaultInjector::ParseSpec("bogus_key=1"),
               std::invalid_argument);
  EXPECT_THROW(net::FaultInjector::ParseSpec("corrupt_p=1.5"),
               std::invalid_argument);
  EXPECT_THROW(net::FaultInjector::ParseSpec("delay_p=-0.1"),
               std::invalid_argument);
  EXPECT_THROW(net::FaultInjector::ParseSpec("seed="),
               std::invalid_argument);
}

TEST(RetryBackoffTest, DeterministicExponentialWithCappedJitter) {
  net::RetryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.max_backoff_ms = 100;
  policy.jitter_seed = 7;

  // First attempt never waits; retries wait base × U[0.5, 1.0).
  EXPECT_EQ(net::RetryBackoffMs(policy, 1), 0u);
  for (int attempt = 2; attempt <= 10; ++attempt) {
    double base = 10.0;
    for (int k = 2; k < attempt; ++k) base *= 2.0;
    base = std::min(base, 100.0);
    uint32_t ms = net::RetryBackoffMs(policy, attempt);
    EXPECT_GE(ms, static_cast<uint32_t>(base * 0.5)) << attempt;
    EXPECT_LT(ms, static_cast<uint32_t>(base) + 1) << attempt;
    // Deterministic: same (policy, attempt) → same schedule.
    EXPECT_EQ(ms, net::RetryBackoffMs(policy, attempt)) << attempt;
  }

  // Different seeds desynchronize the schedules somewhere.
  net::RetryPolicy other = policy;
  other.jitter_seed = 8;
  bool differs = false;
  for (int attempt = 2; attempt <= 10; ++attempt) {
    differs |= net::RetryBackoffMs(policy, attempt) !=
               net::RetryBackoffMs(other, attempt);
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosTest, CorruptedFrameIsDetectedNeverMisdecoded) {
  Dataset data = datagen::MakeUniformScatter(200, 1000.0);
  QueryEngine engine(data, EngineOptions{});
  net::Server server(engine);
  server.Start();

  net::ClientOptions copt;
  copt.recv_timeout_ms = 2000;
  {
    net::Client client = net::Client::Connect(kLoopback, server.port(), copt);
    // Flip one byte of the next write — the request frame. The server's
    // checksum rejects it as a typed protocol error (or the teardown races
    // into a connection error); it can never decode into a wrong answer.
    net::FaultInjector::Global().ForceOnce(net::FaultKind::kCorrupt, 10);
    try {
      uint64_t id = client.Send(QueryRequest(PointQuery{100.0,
                                                        TestOptions()}));
      net::ServeResponse response = client.Await(id);
      EXPECT_FALSE(response.ok);
      EXPECT_EQ(response.code, net::ErrorCode::kProtocol);
    } catch (const net::WireError&) {
      // equally clean: the connection died before the error frame landed
    }
  }
  net::FaultInjector::Global().Disable();

  // The server survived and serves fresh connections correctly.
  net::Client again = net::Client::Connect(kLoopback, server.port(), copt);
  uint64_t id = again.Send(QueryRequest(PointQuery{100.0, TestOptions()}));
  net::ServeResponse response = again.Await(id);
  EXPECT_TRUE(response.ok);
  server.Stop();
}

TEST(ChaosTest, TruncatedSendDeliversAPrefixOfTheWholeFrame) {
  // A frame is one write, so a truncating fault cuts the frame itself: the
  // peer gets exactly its first 30 bytes — a whole header and 10 body
  // bytes — then the close. A frame written as header, body and trailer
  // would lose the fault to the 20-byte header write (30 % 20 = 10 bytes).
  net::Listener listener = net::Listener::Bind(0, 4);
  net::Client client = net::Client::Connect(kLoopback, listener.port());
  net::Socket peer = listener.Accept();
  {
    net::FaultConfig off;
    FaultScope scope(off);
    net::FaultInjector::Global().ForceOnce(net::FaultKind::kTruncate, 30);
    EXPECT_THROW(client.Send(QueryRequest(PointQuery{100.0, TestOptions()})),
                 net::WireError);
  }
  std::vector<uint8_t> got;
  uint8_t byte = 0;
  while (peer.ReadExact(&byte, 1)) got.push_back(byte);
  ASSERT_EQ(got.size(), 30u);
  const net::FrameHeader header =
      net::DecodeFrameHeader(got.data(), net::kDefaultMaxBodyBytes);
  EXPECT_EQ(header.type, net::MessageType::kRequest);
  EXPECT_GT(header.body_bytes + net::kFrameHeaderBytes, 30u);
}

TEST(ChaosTest, SeveredConnectionIsACleanTypedFailure) {
  Dataset data = datagen::MakeUniformScatter(200, 1000.0);
  QueryEngine engine(data, EngineOptions{});
  net::Server server(engine);
  server.Start();

  net::ClientOptions copt;
  copt.recv_timeout_ms = 2000;
  net::Client client = net::Client::Connect(kLoopback, server.port(), copt);
  net::FaultInjector::Global().ForceOnce(net::FaultKind::kSever);
  try {
    uint64_t id = client.Send(QueryRequest(PointQuery{100.0, TestOptions()}));
    client.Await(id);  // if the send survived, the read must fail cleanly
    FAIL() << "a severed connection cannot produce an answer";
  } catch (const net::WireError&) {
    // the clean typed failure the contract demands
  }
  net::FaultInjector::Global().Disable();
  server.Stop();
}

// The main event: a differential batch through a faulty network. Every
// request retries until it completes; every completed answer must be
// bit-identical to local execution.
TEST(ChaosTest, DifferentialStreamSurvivesInjectedFaults) {
  Dataset data = datagen::MakeUniformScatter(300, 1000.0);
  QueryEngine local(data, EngineOptions{});
  QueryEngine served(std::move(data), EngineOptions{});
  net::Server server(served);
  server.Start();

  const QueryOptions opt = TestOptions();
  const std::vector<double> points =
      datagen::MakeQueryPoints(5, 0.0, 1000.0, /*seed=*/23);
  std::vector<testutil::RequestFactory> stream =
      testutil::MakeMixedKindStream(points, opt, /*seed=*/29);

  // Ground truth first (local execution never touches a socket).
  std::vector<QueryResult> expected;
  expected.reserve(stream.size());
  for (const testutil::RequestFactory& make : stream) {
    expected.push_back(local.Execute(make()));
  }

  net::FaultConfig faults;
  faults.enabled = true;
  faults.seed = 2024;
  faults.delay_p = 0.05;
  faults.delay_ms = 2;
  faults.corrupt_p = 0.02;
  faults.truncate_p = 0.02;
  faults.sever_p = 0.01;
  FaultScope scope(faults);

  net::ClientOptions copt;
  copt.recv_timeout_ms = 3000;
  net::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 2;
  policy.max_backoff_ms = 50;
  net::RetryingClient client(kLoopback, server.port(), copt, policy);

  std::vector<bool> done(stream.size(), false);
  size_t completed = 0;
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
  while (completed < stream.size() && Clock::now() < give_up) {
    std::vector<size_t> pending_idx;
    std::vector<QueryRequest> pending;
    for (size_t i = 0; i < stream.size(); ++i) {
      if (done[i]) continue;
      pending_idx.push_back(i);
      pending.push_back(stream[i]());
    }
    std::vector<net::ServeResponse> responses =
        client.Call(pending, /*deadline_ms=*/2000);
    ASSERT_EQ(responses.size(), pending.size());
    for (size_t k = 0; k < responses.size(); ++k) {
      const size_t i = pending_idx[k];
      net::ServeResponse& r = responses[k];
      if (r.ok) {
        testutil::ExpectEquivalentResult(
            expected[i], r.result, "chaos request " + std::to_string(i));
        done[i] = true;
        ++completed;
      } else {
        // Not done yet — but the failure must be typed, never silent.
        EXPECT_FALSE(r.error.empty()) << "request " << i;
      }
    }
  }
  EXPECT_EQ(completed, stream.size())
      << "requests still failing after 60 s of retries";

  const net::ClientStats& stats = client.stats();
  EXPECT_GE(stats.send_attempts, stream.size());

  net::FaultInjector::Global().Disable();
  server.Stop();
}

}  // namespace
}  // namespace pverify
