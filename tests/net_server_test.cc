// Loopback tests of the pverify_serve stack: a real Server on an ephemeral
// port, real Clients, and the differential harness asserting that every
// answer a client reads off the wire is bit-identical to local execution.
// Also covers the failure matrix the protocol promises: malformed frames
// drop only their own connection, request-level errors keep it open, the
// connection cap rejects politely, and a caching server marks replays.
// And the dispatch rule: a lone request on an idle engine runs on the
// reader thread (Execute); pipelined bursts, k-NN and a busy pool go
// through SubmitThen.
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "counting_engine.h"
#include "datagen/workload.h"
#include "differential_testutil.h"
#include "engine/caching_engine.h"
#include "engine/query_engine.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/frame.h"
#include "net/server.h"

namespace pverify {
namespace {

constexpr char kLoopback[] = "127.0.0.1";

Dataset TestDataset() { return datagen::MakeUniformScatter(400, 1000.0); }

Dataset2D TestDataset2D() {
  datagen::Synthetic2DConfig config;
  config.count = 120;
  return datagen::MakeSynthetic2D(config);
}

QueryOptions TestOptions() {
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;
  return opt;
}

EngineOptions SmallEngine() {
  EngineOptions eopt;
  eopt.num_threads = 2;
  return eopt;
}

/// Polls `cond` until true or ~5 s passed.
template <typename Cond>
bool WaitFor(Cond cond) {
  const auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!cond()) {
    if (std::chrono::steady_clock::now() > limit) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Engine adapter over a net::Client, so RunDifferentialStream can drive a
/// remote server exactly like any local backend. Execute round-trips one
/// frame; ExecuteBatch pipelines the lot. Telemetry accessors return zeros
/// (they describe local pools, which a remote proxy does not have).
class RemoteEngine : public Engine {
 public:
  RemoteEngine(const std::string& host, uint16_t port)
      : client_(net::Client::Connect(host, port)) {}

  size_t num_threads() const override { return 0; }
  size_t IdleWorkers() const override { return 0; }

  QueryResult Execute(QueryRequest request) override {
    uint64_t id = client_.Send(request);
    return Unwrap(client_.Await(id));
  }

  std::vector<QueryResult> ExecuteBatch(std::vector<QueryRequest> requests,
                                        EngineStats* stats) override {
    std::vector<net::ServeResponse> responses = client_.Call(requests);
    std::vector<QueryResult> results;
    results.reserve(responses.size());
    for (net::ServeResponse& r : responses) {
      results.push_back(Unwrap(std::move(r)));
    }
    if (stats != nullptr) {
      *stats = EngineStats{};
      for (const QueryResult& r : results) {
        AccumulateBatchResult(r.stats, stats);
      }
    }
    return results;
  }

  void SubmitThen(QueryRequest request, QueryCallback done) override {
    Complete(done, [&] { return Execute(std::move(request)); });
  }

  size_t ScratchQueriesServed() const override { return 0; }
  size_t ScratchBytes() const override { return 0; }

  net::Client& client() { return client_; }

 private:
  static QueryResult Unwrap(net::ServeResponse response) {
    if (!response.ok) {
      throw net::WireError("remote error: " + response.error);
    }
    return std::move(response.result);
  }

  net::Client client_;
};

TEST(NetServerTest, ServedAnswersMatchLocalExecutionBitIdentically) {
  Dataset data = TestDataset();
  QueryEngine local(data, SmallEngine());
  QueryEngine served(std::move(data), SmallEngine());
  net::Server server(served);
  server.Start();

  const QueryOptions opt = TestOptions();
  const std::vector<double> points =
      datagen::MakeQueryPoints(6, 0.0, 1000.0, /*seed=*/19);
  std::vector<testutil::RequestFactory> stream =
      testutil::MakeMixedKindStream(points, opt);

  RemoteEngine remote(kLoopback, server.port());
  testutil::NamedEngine named{"remote", &remote};
  // What the client decodes off the wire must be the exact doubles local
  // execution produces.
  testutil::RunDifferentialStream(local, {named}, stream,
                                  {/*rounds=*/2, /*exercise_submit=*/false});
}

TEST(NetServerTest, DualModeServerAnswersTwoDimensionalKinds) {
  Dataset data = TestDataset();
  Dataset2D data2d = TestDataset2D();
  QueryEngine local(data, data2d, SmallEngine());
  QueryEngine served(std::move(data), std::move(data2d), SmallEngine());
  net::Server server(served);
  server.Start();

  const QueryOptions opt = TestOptions();
  const std::vector<Point2> points =
      datagen::MakeQueryPoints2D(5, 0.0, 1000.0, /*seed=*/23);

  RemoteEngine remote(kLoopback, server.port());
  for (const Point2& q : points) {
    QueryResult expected = local.Execute(Point2DQuery{q, opt});
    QueryResult got = remote.Execute(Point2DQuery{q, opt});
    testutil::ExpectEquivalentResult(expected, got, "point2d");

    QueryResult expected_knn = local.Execute(Knn2DQuery{q, 3, opt});
    QueryResult got_knn = remote.Execute(Knn2DQuery{q, 3, opt});
    testutil::ExpectEquivalentResult(expected_knn, got_knn, "knn2d");
  }
}

TEST(NetServerTest, ResponsesDemuxOutOfAwaitOrder) {
  Dataset data = TestDataset();
  QueryEngine local(data, SmallEngine());
  QueryEngine served(std::move(data), SmallEngine());
  net::Server server(served);
  server.Start();

  const QueryOptions opt = TestOptions();
  const std::vector<double> points =
      datagen::MakeQueryPoints(8, 0.0, 1000.0, /*seed=*/29);

  net::Client client = net::Client::Connect(kLoopback, server.port());
  std::vector<uint64_t> ids;
  for (double q : points) {
    ids.push_back(client.Send(QueryRequest(PointQuery{q, opt})));
  }
  // Await in reverse send order: the stash buffers earlier arrivals.
  for (size_t i = points.size(); i-- > 0;) {
    net::ServeResponse response = client.Await(ids[i]);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.request_id, ids[i]);
    QueryResult expected = local.Execute(PointQuery{points[i], opt});
    testutil::ExpectEquivalentResult(expected, response.result,
                                     "reverse await " + std::to_string(i));
  }
}

TEST(NetServerTest, ConcurrentConnectionsAllMatchLocal) {
  Dataset data = TestDataset();
  QueryEngine local(data, SmallEngine());
  QueryEngine served(std::move(data), SmallEngine());
  net::Server server(served);
  server.Start();

  const QueryOptions opt = TestOptions();
  const std::vector<double> points =
      datagen::MakeQueryPoints(5, 0.0, 1000.0, /*seed=*/31);
  std::vector<QueryResult> expected;
  for (double q : points) {
    expected.push_back(local.Execute(PointQuery{q, opt}));
  }

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      net::Client client = net::Client::Connect(kLoopback, server.port());
      std::vector<QueryRequest> batch;
      for (double q : points) batch.push_back(PointQuery{q, opt});
      std::vector<net::ServeResponse> responses = client.Call(batch);
      if (responses.size() != expected.size()) {
        ++failures;
        return;
      }
      for (size_t i = 0; i < responses.size(); ++i) {
        if (!responses[i].ok ||
            responses[i].result.ids != expected[i].ids) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.stats().connections_accepted, (uint64_t)kClients);
}

TEST(NetServerTest, MalformedFrameDropsOnlyThatConnection) {
  Dataset data = TestDataset();
  QueryEngine served(std::move(data), SmallEngine());
  net::Server server(served);
  server.Start();

  {
    // 20 bytes of garbage: the header decoder rejects the magic, the
    // server answers with one error frame and hangs up.
    net::Socket raw = net::ConnectTcp(kLoopback, server.port());
    uint8_t garbage[net::kFrameHeaderBytes];
    for (size_t i = 0; i < sizeof(garbage); ++i) {
      garbage[i] = static_cast<uint8_t>(0xa5);
    }
    raw.WriteAll(garbage, sizeof(garbage));
    net::ReceivedFrame frame;
    ASSERT_TRUE(
        net::ReceiveFrame(raw, net::kDefaultMaxBodyBytes, &frame));
    EXPECT_EQ(frame.header.type, net::MessageType::kError);
    net::WireReader reader(frame.body.data(), frame.body.size());
    net::DecodedError err =
        net::DecodeErrorBody(reader, net::kDefaultMaxBodyBytes);
    EXPECT_EQ(err.code, net::ErrorCode::kProtocol);
    // After the error frame the server closes: the next read is EOF.
    uint8_t byte;
    EXPECT_FALSE(raw.ReadExact(&byte, 1));
  }
  {
    // A header truncated by a disappearing peer is dropped silently.
    net::Socket raw = net::ConnectTcp(kLoopback, server.port());
    uint8_t partial[5] = {1, 2, 3, 4, 5};
    raw.WriteAll(partial, sizeof(partial));
  }

  // The server survives both: a well-behaved client still gets answers.
  net::Client client = net::Client::Connect(kLoopback, server.port());
  uint64_t id =
      client.Send(QueryRequest(PointQuery{500.0, TestOptions()}));
  net::ServeResponse response = client.Await(id);
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

TEST(NetServerTest, ConnectionCapRejectsPolitely) {
  Dataset data = TestDataset();
  QueryEngine served(std::move(data), SmallEngine());
  net::ServerOptions sopt;
  sopt.max_connections = 1;
  net::Server server(served, sopt);
  server.Start();

  net::Client first = net::Client::Connect(kLoopback, server.port());
  uint64_t id = first.Send(QueryRequest(PointQuery{500.0, TestOptions()}));
  ASSERT_TRUE(first.Await(id).ok);

  // The second connection gets a kError frame, then EOF.
  net::Client second = net::Client::Connect(kLoopback, server.port());
  net::ServeResponse rejection = second.ReadNext();
  EXPECT_FALSE(rejection.ok);
  // The rejection is a typed error the client can branch on, not an EOF.
  EXPECT_EQ(rejection.code, net::ErrorCode::kOverloaded);
  EXPECT_NE(rejection.error.find("connection limit"), std::string::npos)
      << rejection.error;
  EXPECT_EQ(server.stats().connections_rejected, 1u);

  // The first connection is unaffected.
  uint64_t id2 = first.Send(QueryRequest(PointQuery{250.0, TestOptions()}));
  EXPECT_TRUE(first.Await(id2).ok);
}

TEST(NetServerTest, RequestLevelErrorKeepsConnectionOpen) {
  // A 1-D-only engine rejects 2-D kinds at execution time; that is the
  // request's failure, not the connection's.
  Dataset data = TestDataset();
  QueryEngine served(std::move(data), SmallEngine());
  net::Server server(served);
  server.Start();

  net::Client client = net::Client::Connect(kLoopback, server.port());
  uint64_t bad =
      client.Send(QueryRequest(Point2DQuery{{1.0, 2.0}, TestOptions()}));
  net::ServeResponse error = client.Await(bad);
  EXPECT_FALSE(error.ok);
  EXPECT_EQ(error.request_id, bad);
  EXPECT_FALSE(error.error.empty());

  uint64_t good =
      client.Send(QueryRequest(PointQuery{500.0, TestOptions()}));
  net::ServeResponse response = client.Await(good);
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(server.stats().request_errors, 1u);
}

TEST(NetServerTest, NonFiniteCoordinateIsAnInvalidRequest) {
  // The engine's Validate rejects a NaN q; over the wire that is a typed
  // kInvalidRequest on the request's id, and the connection stays open.
  Dataset data = TestDataset();
  QueryEngine served(std::move(data), SmallEngine());
  net::Server server(served);
  server.Start();

  net::Client client = net::Client::Connect(kLoopback, server.port());
  uint64_t bad = client.Send(QueryRequest(
      PointQuery{std::numeric_limits<double>::quiet_NaN(), TestOptions()}));
  net::ServeResponse error = client.Await(bad);
  EXPECT_FALSE(error.ok);
  EXPECT_EQ(error.code, net::ErrorCode::kInvalidRequest);
  EXPECT_NE(error.error.find("finite"), std::string::npos) << error.error;

  uint64_t good =
      client.Send(QueryRequest(PointQuery{500.0, TestOptions()}));
  net::ServeResponse response = client.Await(good);
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(server.stats().request_errors, 1u);
}

TEST(NetServerTest, CachingServerMarksReplaysAndStaysExact) {
  Dataset data = TestDataset();
  QueryEngine local(data, SmallEngine());
  CachingEngine served(
      std::make_unique<QueryEngine>(std::move(data), SmallEngine()),
      CachingEngineOptions{64});
  net::Server server(served);
  server.Start();

  const QueryOptions opt = TestOptions();
  net::Client client = net::Client::Connect(kLoopback, server.port());
  QueryResult expected = local.Execute(PointQuery{321.0, opt});

  uint64_t cold = client.Send(QueryRequest(PointQuery{321.0, opt}));
  net::ServeResponse first = client.Await(cold);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.result.stats.served_from_cache);
  testutil::ExpectEquivalentResult(expected, first.result, "cold");

  uint64_t warm = client.Send(QueryRequest(PointQuery{321.0, opt}));
  net::ServeResponse second = client.Await(warm);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.result.stats.served_from_cache);
  // The memoized answer crosses the wire bit-identical too.
  testutil::ExpectEquivalentResult(expected, second.result, "warm");
}

// A closed-loop client (one request in flight, nothing behind it) on an
// engine whose workers are all parked is served entirely on the reader
// thread: no request pays a worker's wake-up.
TEST(NetServerTest, ClosedLoopClientOnIdleEngineRunsOnTheReader) {
  Dataset data = TestDataset();
  QueryEngine local(data, SmallEngine());
  QueryEngine backend(std::move(data), SmallEngine());
  // Spawn the pool, so the rule reads the parked-worker count itself.
  backend.ExecuteBatch({});
  CountingEngine served(backend);
  net::Server server(served);
  server.Start();

  const QueryOptions opt = TestOptions();
  const std::vector<double> points =
      datagen::MakeQueryPoints(12, 0.0, 1000.0, /*seed=*/37);
  std::vector<std::function<QueryRequest()>> requests;
  for (double q : points) {
    requests.push_back([q, opt] { return QueryRequest(PointQuery{q, opt}); });
  }
  requests.push_back([opt] { return QueryRequest(MinQuery{opt}); });
  requests.push_back([opt] { return QueryRequest(MaxQuery{opt}); });

  net::Client client = net::Client::Connect(kLoopback, server.port());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(WaitFor([&] { return backend.IdleWorkers() == 2; }));
    net::ServeResponse response = client.Await(client.Send(requests[i]()));
    ASSERT_TRUE(response.ok) << response.error;
    testutil::ExpectEquivalentResult(local.Execute(requests[i]()),
                                     response.result,
                                     "closed loop " + std::to_string(i));
  }
  EXPECT_EQ(served.executes(), requests.size());
  EXPECT_EQ(served.submits(), 0u);
}

// 64 frames in one send: the reader finds bytes behind the first frame,
// so the burst fans out to the pool, and every reply is still exact.
TEST(NetServerTest, PipelinedBurstInOneSendFansOutToThePool) {
  Dataset data = TestDataset();
  QueryEngine local(data, SmallEngine());
  QueryEngine backend(std::move(data), SmallEngine());
  CountingEngine served(backend);
  net::Server server(served);
  server.Start();

  constexpr size_t kFrames = 64;
  const QueryOptions opt = TestOptions();
  const std::vector<double> points =
      datagen::MakeQueryPoints(kFrames, 0.0, 1000.0, /*seed=*/41);
  std::vector<uint8_t> burst;
  for (size_t i = 0; i < kFrames; ++i) {
    net::WireWriter body;
    net::EncodeRequestExtensions(net::RequestExtensions{}, body);
    net::EncodeRequest(QueryRequest(PointQuery{points[i], opt}), body);
    const std::vector<uint8_t> frame =
        net::EncodeFrame(net::MessageType::kRequest, /*request_id=*/i, body);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  net::Socket sock = net::ConnectTcp(kLoopback, server.port());
  sock.SetRecvTimeoutMs(5000);
  sock.WriteAll(burst.data(), burst.size());

  std::vector<bool> answered(kFrames, false);
  for (size_t n = 0; n < kFrames; ++n) {
    net::ReceivedFrame frame;
    ASSERT_TRUE(net::ReceiveFrame(sock, net::kDefaultMaxBodyBytes, &frame));
    ASSERT_EQ(frame.header.type, net::MessageType::kResponse);
    const uint64_t id = frame.header.request_id;
    ASSERT_LT(id, kFrames);
    ASSERT_FALSE(answered[id]) << "second reply for id " << id;
    answered[id] = true;
    net::WireReader reader(frame.body.data(), frame.body.size());
    testutil::ExpectEquivalentResult(
        local.Execute(PointQuery{points[id], opt}), net::DecodeResult(reader),
        "burst frame " + std::to_string(id));
  }
  EXPECT_GE(served.submits(), 1u);
  EXPECT_EQ(served.executes() + served.submits(), kFrames);
}

// k-NN costs 20-25 point queries: it always goes to the pool, even alone
// on an idle engine, so it never holds up a connection's later frames.
TEST(NetServerTest, KnnAlwaysGoesThroughThePool) {
  Dataset data = TestDataset();
  Dataset2D data2d = TestDataset2D();
  QueryEngine local(data, data2d, SmallEngine());
  QueryEngine backend(std::move(data), std::move(data2d), SmallEngine());
  CountingEngine served(backend);
  net::Server server(served);
  server.Start();

  const QueryOptions opt = TestOptions();
  net::Client client = net::Client::Connect(kLoopback, server.port());
  size_t sent = 0;
  for (double x : {120.0, 480.0, 910.0}) {
    for (int k : {1, 3}) {
      QueryResult got =
          client.Await(client.Send(QueryRequest(KnnQuery{x, k, opt}))).result;
      testutil::ExpectEquivalentResult(local.Execute(KnnQuery{x, k, opt}), got,
                                       "knn");
      const Point2 q{x, 1000.0 - x};
      got = client.Await(client.Send(QueryRequest(Knn2DQuery{q, k, opt})))
                .result;
      testutil::ExpectEquivalentResult(local.Execute(Knn2DQuery{q, k, opt}),
                                       got, "knn2d");
      sent += 2;
    }
  }
  EXPECT_EQ(served.executes(), 0u);
  EXPECT_EQ(served.submits(), sent);
}

// With no parked worker, posting wakes nobody and running on the reader
// would oversubscribe the cores: every request goes through SubmitThen.
TEST(NetServerTest, EngineWithoutIdleWorkersAlwaysGetsSubmitThen) {
  Dataset data = TestDataset();
  QueryEngine local(data, SmallEngine());
  QueryEngine backend(std::move(data), SmallEngine());
  CountingEngine served(backend, /*idle_workers=*/0);
  net::Server server(served);
  server.Start();

  const QueryOptions opt = TestOptions();
  net::Client client = net::Client::Connect(kLoopback, server.port());
  const std::vector<double> points =
      datagen::MakeQueryPoints(8, 0.0, 1000.0, /*seed=*/43);
  for (double q : points) {
    net::ServeResponse response =
        client.Await(client.Send(QueryRequest(PointQuery{q, opt})));
    ASSERT_TRUE(response.ok) << response.error;
    testutil::ExpectEquivalentResult(local.Execute(PointQuery{q, opt}),
                                     response.result, "busy pool");
  }
  EXPECT_EQ(served.executes(), 0u);
  EXPECT_EQ(served.submits(), points.size());
}

// Out-of-range P, Δ, k, Monte Carlo samples and splits per subregion are
// the request's failure on either dispatch path: kInvalidRequest on its id,
// the connection stays open, and the cache in front of the engine gains no
// entry.
TEST(NetServerTest, OutOfRangeParametersAreInvalidRequestsOnBothPaths) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto with = [](double threshold, double tolerance) {
    QueryOptions opt = TestOptions();
    opt.params = {threshold, tolerance};
    return opt;
  };
  auto costing = [](int samples, int splits) {
    QueryOptions opt = TestOptions();
    opt.strategy = Strategy::kMonteCarlo;
    opt.monte_carlo.samples = samples;
    opt.integration.splits_per_subregion = splits;
    return opt;
  };
  const int big = std::numeric_limits<int>::max();
  const std::vector<std::function<QueryRequest()>> bad = {
      [&] { return QueryRequest(PointQuery{500.0, with(0.0, 0.01)}); },
      [&] { return QueryRequest(PointQuery{500.0, with(-0.1, 0.01)}); },
      [&] { return QueryRequest(PointQuery{500.0, with(1.5, 0.01)}); },
      [&] { return QueryRequest(PointQuery{500.0, with(nan, 0.01)}); },
      [&] { return QueryRequest(PointQuery{500.0, with(0.3, -0.01)}); },
      [&] { return QueryRequest(PointQuery{500.0, with(0.3, 1.5)}); },
      [&] { return QueryRequest(PointQuery{500.0, with(0.3, nan)}); },
      [&] { return QueryRequest(KnnQuery{500.0, 0, TestOptions()}); },
      [&] { return QueryRequest(KnnQuery{500.0, -1, TestOptions()}); },
      [&] { return QueryRequest(Knn2DQuery{{1.0, 2.0}, 0, TestOptions()}); },
      [&] { return QueryRequest(Knn2DQuery{{1.0, 2.0}, -1, TestOptions()}); },
      [&] { return QueryRequest(PointQuery{500.0, costing(0, 2)}); },
      [&] {
        return QueryRequest(
            PointQuery{500.0, costing(kMaxMonteCarloSamples + 1, 2)});
      },
      [&] { return QueryRequest(PointQuery{500.0, costing(big, 2)}); },
      [&] { return QueryRequest(PointQuery{500.0, costing(1000, 0)}); },
      [&] {
        return QueryRequest(
            PointQuery{500.0, costing(1000, kMaxSplitsPerSubregion + 1)});
      },
      [&] { return QueryRequest(KnnQuery{500.0, 2, costing(1000, big)}); },
  };
  for (size_t idle : {size_t{2}, size_t{0}}) {
    SCOPED_TRACE(idle == 0 ? "SubmitThen path" : "reader path");
    CachingEngine cache(
        std::make_unique<QueryEngine>(TestDataset(), SmallEngine()));
    CountingEngine served(cache, idle);
    net::Server server(served);
    server.Start();
    net::Client client = net::Client::Connect(kLoopback, server.port());
    for (size_t i = 0; i < bad.size(); ++i) {
      SCOPED_TRACE(i);
      net::ServeResponse error = client.Await(client.Send(bad[i]()));
      EXPECT_FALSE(error.ok);
      EXPECT_EQ(error.code, net::ErrorCode::kInvalidRequest);
    }
    EXPECT_EQ(cache.GetCacheStats().entries, 0u);
    EXPECT_EQ(server.stats().request_errors, bad.size());
    EXPECT_EQ(server.stats().protocol_errors, 0u);
    net::ServeResponse good = client.Await(
        client.Send(QueryRequest(PointQuery{500.0, TestOptions()})));
    EXPECT_TRUE(good.ok) << good.error;
  }
}

TEST(NetServerTest, StopWithConnectedClientsShutsDownCleanly) {
  Dataset data = TestDataset();
  QueryEngine served(std::move(data), SmallEngine());
  auto server = std::make_unique<net::Server>(served);
  server->Start();

  net::Client client = net::Client::Connect(kLoopback, server->port());
  uint64_t id = client.Send(QueryRequest(PointQuery{500.0, TestOptions()}));
  ASSERT_TRUE(client.Await(id).ok);

  // Stop with the client still connected: joins must not hang, and the
  // client sees the connection end rather than a stuck read.
  server->Stop();
  EXPECT_THROW(
      {
        // At most one buffered read can still succeed; a bounded number of
        // reads must hit the teardown.
        for (int i = 0; i < 3; ++i) client.ReadNext();
      },
      net::WireError);
}

}  // namespace
}  // namespace pverify
