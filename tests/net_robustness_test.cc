// Overload, deadline and shutdown behavior of the serving path, pinned at
// the wire level: the in-flight and admission caps answer kOverloaded
// without dropping the connection, deadlines fire both before submission
// and at writer dequeue, slow readers are disconnected within the write
// timeout while other connections keep serving, Stop() wins races against
// in-flight Submit futures (even ones that never resolve), and Drain()
// finishes in-flight work while rejecting new requests as kShuttingDown.
//
// Most tests use ManualEngine (tests/manual_engine.h) — an Engine whose
// SubmitThen parks requests until the test resolves them — so "the future is still pending" is a
// controlled state instead of a timing accident.
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "engine/engine.h"
#include "engine/query_engine.h"
#include "manual_engine.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/frame.h"
#include "net/server.h"

namespace pverify {
namespace {

using Clock = std::chrono::steady_clock;

constexpr char kLoopback[] = "127.0.0.1";

Dataset TestDataset() { return datagen::MakeUniformScatter(200, 1000.0); }

QueryOptions TestOptions() {
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;
  return opt;
}

QueryRequest MakePoint(double q) {
  return QueryRequest(PointQuery{q, TestOptions()});
}

/// Polls `cond` until true or ~5 s passed.
template <typename Cond>
bool WaitFor(Cond cond) {
  const Clock::time_point limit = Clock::now() + std::chrono::seconds(5);
  while (!cond()) {
    if (Clock::now() > limit) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST(NetRobustnessTest, InflightCapAnswersOverloadedWithoutDropping) {
  ManualEngine engine(TestDataset());
  net::ServerOptions sopt;
  sopt.max_inflight_per_conn = 2;
  sopt.max_pending = 0;  // isolate the per-connection cap
  net::Server server(engine, sopt);
  server.Start();

  net::Client client = net::Client::Connect(kLoopback, server.port());
  uint64_t id1 = client.Send(MakePoint(100.0));
  uint64_t id2 = client.Send(MakePoint(200.0));
  ASSERT_TRUE(WaitFor([&] { return engine.PendingCount() == 2; }));

  // Third request over the cap: rejected by the reader immediately, while
  // both earlier futures are still unresolved (the writer is blocked).
  uint64_t id3 = client.Send(MakePoint(300.0));
  net::ServeResponse rejected = client.Await(id3);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, net::ErrorCode::kOverloaded);
  EXPECT_EQ(engine.PendingCount(), 2u);

  // The connection survived: resolving the backlog delivers both answers.
  engine.ResolveAll();
  EXPECT_TRUE(client.Await(id1).ok);
  EXPECT_TRUE(client.Await(id2).ok);

  // Capacity freed: a fourth request goes through.
  uint64_t id4 = client.Send(MakePoint(400.0));
  ASSERT_TRUE(WaitFor([&] { return engine.PendingCount() == 1; }));
  engine.ResolveAll();
  EXPECT_TRUE(client.Await(id4).ok);

  EXPECT_EQ(server.stats().overload_rejections, 1u);
  server.Stop();
}

TEST(NetRobustnessTest, GlobalAdmissionLimitSpansConnections) {
  ManualEngine engine(TestDataset());
  net::ServerOptions sopt;
  sopt.max_inflight_per_conn = 0;  // isolate the global limit
  sopt.max_pending = 1;
  net::Server server(engine, sopt);
  server.Start();

  net::Client first = net::Client::Connect(kLoopback, server.port());
  uint64_t id1 = first.Send(MakePoint(100.0));
  ASSERT_TRUE(WaitFor([&] { return engine.PendingCount() == 1; }));

  // A DIFFERENT connection hits the global limit.
  net::Client second = net::Client::Connect(kLoopback, server.port());
  uint64_t id2 = second.Send(MakePoint(200.0));
  net::ServeResponse rejected = second.Await(id2);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, net::ErrorCode::kOverloaded);

  engine.ResolveAll();
  EXPECT_TRUE(first.Await(id1).ok);
  EXPECT_EQ(server.stats().overload_rejections, 1u);
  server.Stop();
}

TEST(NetRobustnessTest, DeadlineExpiresWhileQueuedBehindStalledEngine) {
  ManualEngine engine(TestDataset());
  net::Server server(engine);
  server.Start();

  net::Client client = net::Client::Connect(kLoopback, server.port());
  const Clock::time_point sent = Clock::now();
  uint64_t id = client.Send(MakePoint(100.0), /*deadline_ms=*/80);
  net::ServeResponse response = client.Await(id);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - sent);

  // Never resolved by the engine: the writer abandons the future when the
  // budget runs out and answers the typed error, promptly.
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, net::ErrorCode::kDeadlineExceeded);
  EXPECT_GE(waited.count(), 70);
  EXPECT_LT(waited.count(), 3000);
  EXPECT_EQ(server.stats().deadline_expirations, 1u);

  // The connection still serves afterwards.
  uint64_t id2 = client.Send(MakePoint(200.0));
  ASSERT_TRUE(WaitFor([&] { return engine.PendingCount() == 2; }));
  engine.ResolveAll();
  EXPECT_TRUE(client.Await(id2).ok);
  server.Stop();
}

TEST(NetRobustnessTest, ExpiredDeadlineNeverReachesTheEngine) {
  ManualEngine engine(TestDataset());
  net::Server server(engine);
  server.Start();

  // Hand-built frame whose header arrives well before its body: the
  // deadline is anchored at the header, so by the time the request decodes
  // its 50 ms budget is gone and the server must answer without
  // Submitting.
  net::Socket sock = net::ConnectTcp(kLoopback, server.port());
  net::WireWriter body;
  net::RequestExtensions ext;
  ext.deadline_ms = 50;
  net::EncodeRequestExtensions(ext, body);
  net::EncodeRequest(MakePoint(100.0), body);

  uint8_t header[net::kFrameHeaderBytes];
  net::EncodeFrameHeader(net::MessageType::kRequest, /*request_id=*/7,
                         static_cast<uint32_t>(body.size()), header);
  sock.WriteAll(header, sizeof(header));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  sock.WriteAll(body.bytes().data(), body.size());
  uint32_t crc = net::Crc32(header, sizeof(header));
  crc = net::Crc32(body.bytes().data(), body.size(), crc);
  uint8_t trailer[net::kFrameChecksumBytes];
  for (size_t i = 0; i < 4; ++i) {
    trailer[i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  sock.WriteAll(trailer, sizeof(trailer));

  net::ReceivedFrame frame;
  ASSERT_TRUE(net::ReceiveFrame(sock, net::kDefaultMaxBodyBytes, &frame));
  ASSERT_EQ(frame.header.type, net::MessageType::kError);
  EXPECT_EQ(frame.header.request_id, 7u);
  net::WireReader reader(frame.body.data(), frame.body.size());
  net::DecodedError err =
      net::DecodeErrorBody(reader, net::kDefaultMaxBodyBytes);
  EXPECT_EQ(err.code, net::ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(engine.PendingCount(), 0u);
  EXPECT_EQ(server.stats().deadline_expirations, 1u);
  server.Stop();
}

TEST(NetRobustnessTest, SlowReaderIsDisconnectedOthersKeepServing) {
  Dataset data = TestDataset();
  QueryEngine engine(data, EngineOptions{});
  net::ServerOptions sopt;
  sopt.write_timeout_ms = 250;
  sopt.send_buffer_bytes = 4096;
  sopt.max_inflight_per_conn = 512;
  net::Server server(engine, sopt);
  server.Start();

  // The slow reader: shrunk receive buffer, pipelines requests, never
  // reads a byte back. Responses fill the two kernel buffers, the server's
  // writer blocks past the timeout and the connection is torn down.
  net::Socket slow = net::ConnectTcp(kLoopback, server.port(),
                                     /*recv_buffer_bytes=*/4096);
  const QueryOptions opt = TestOptions();
  bool send_failed = false;
  for (uint64_t id = 1; id <= 300 && !send_failed; ++id) {
    net::WireWriter body;
    net::EncodeRequestExtensions(net::RequestExtensions{}, body);
    net::EncodeRequest(QueryRequest(PointQuery{
                           static_cast<double>(id % 200) * 5.0, opt}),
                       body);
    try {
      net::SendFrameOn(slow, net::MessageType::kRequest, id, body);
    } catch (const net::WireError&) {
      send_failed = true;  // server already tore the connection down
    }
  }

  EXPECT_TRUE(WaitFor(
      [&] { return server.stats().slow_reader_disconnects >= 1; }));

  // A well-behaved connection is unaffected while (and after) the slow one
  // is being disconnected.
  net::Client good = net::Client::Connect(kLoopback, server.port());
  std::vector<net::ServeResponse> responses =
      good.Call([&] {
        std::vector<QueryRequest> requests;
        for (int i = 0; i < 5; ++i) {
          requests.push_back(MakePoint(100.0 * (i + 1)));
        }
        return requests;
      }());
  for (const net::ServeResponse& r : responses) EXPECT_TRUE(r.ok);
  server.Stop();
}

TEST(NetRobustnessTest, StopRacesInflightSubmitFutures) {
  Dataset data = TestDataset();
  QueryEngine engine(data, EngineOptions{});
  net::Server server(engine);
  server.Start();

  // Pipeline a burst, stop the server mid-flight. The contract is purely
  // "no hang, no crash": every client outcome (responses, typed errors,
  // connection loss) is legal.
  net::Client client = net::Client::Connect(kLoopback, server.port());
  std::thread pusher([&] {
    try {
      for (int i = 0; i < 50; ++i) client.Send(MakePoint(10.0 * (i + 1)));
    } catch (const net::WireError&) {
      // server went away mid-send; expected
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.Stop();
  pusher.join();
  try {
    for (;;) client.ReadNext();
  } catch (const net::WireError&) {
    // connection wound down — expected
  }
}

TEST(NetRobustnessTest, StopReturnsDespiteNeverResolvingFutures) {
  ManualEngine engine(TestDataset());
  net::Server server(engine);
  server.Start();

  net::Client client = net::Client::Connect(kLoopback, server.port());
  for (int i = 0; i < 5; ++i) client.Send(MakePoint(100.0 * (i + 1)));
  ASSERT_TRUE(WaitFor([&] { return engine.PendingCount() == 5; }));

  // The writer is parked on futures nobody will ever fulfill; Stop() must
  // still return promptly (the wait polls the stop flag).
  const Clock::time_point before = Clock::now();
  server.Stop();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - before)
                .count(),
            3000);
}

TEST(NetRobustnessTest, DrainFinishesInflightAndRejectsNew) {
  ManualEngine engine(TestDataset());
  net::Server server(engine);
  server.Start();

  net::Client client = net::Client::Connect(kLoopback, server.port());
  uint64_t id1 = client.Send(MakePoint(100.0));
  uint64_t id2 = client.Send(MakePoint(200.0));
  ASSERT_TRUE(WaitFor([&] { return engine.PendingCount() == 2; }));

  std::promise<bool> drained_promise;
  std::future<bool> drained = drained_promise.get_future();
  std::thread drainer(
      [&] { drained_promise.set_value(server.Drain(5000)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // While draining: existing connections may not add work.
  uint64_t id3 = client.Send(MakePoint(300.0));
  net::ServeResponse rejected = client.Await(id3);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, net::ErrorCode::kShuttingDown);
  EXPECT_EQ(engine.PendingCount(), 2u);

  // In-flight work still completes and the drain reports success.
  engine.ResolveAll();
  EXPECT_TRUE(client.Await(id1).ok);
  EXPECT_TRUE(client.Await(id2).ok);
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_TRUE(drained.get());
  drainer.join();
  EXPECT_GE(server.stats().shutdown_rejections, 1u);
  server.Stop();
}

TEST(NetRobustnessTest, DrainGivesUpAtItsDeadline) {
  ManualEngine engine(TestDataset());
  net::Server server(engine);
  server.Start();

  net::Client client = net::Client::Connect(kLoopback, server.port());
  client.Send(MakePoint(100.0));
  ASSERT_TRUE(WaitFor([&] { return engine.PendingCount() == 1; }));

  EXPECT_FALSE(server.Drain(150));  // request never resolves
  server.Stop();
}

TEST(NetRobustnessTest, OversizedFrameAnsweredTooLargeThenClosed) {
  ManualEngine engine(TestDataset());
  net::Server server(engine);
  server.set_max_body_bytes(1024);
  server.Start();

  net::Socket sock = net::ConnectTcp(kLoopback, server.port());
  uint8_t header[net::kFrameHeaderBytes];
  net::EncodeFrameHeader(net::MessageType::kRequest, /*request_id=*/1,
                         /*body_bytes=*/2048, header);
  sock.WriteAll(header, sizeof(header));

  net::ReceivedFrame frame;
  ASSERT_TRUE(net::ReceiveFrame(sock, net::kDefaultMaxBodyBytes, &frame));
  ASSERT_EQ(frame.header.type, net::MessageType::kError);
  net::WireReader reader(frame.body.data(), frame.body.size());
  net::DecodedError err =
      net::DecodeErrorBody(reader, net::kDefaultMaxBodyBytes);
  EXPECT_EQ(err.code, net::ErrorCode::kTooLarge);

  // And then the connection is closed — the cap violation is fatal to the
  // connection (the stream position is unrecoverable), not to the server.
  uint8_t byte = 0;
  EXPECT_FALSE(sock.ReadExact(&byte, 1));
  EXPECT_EQ(engine.PendingCount(), 0u);
  server.Stop();
}

TEST(NetRobustnessTest, RetiredWireVersionIsAProtocolError) {
  Dataset data = TestDataset();
  QueryEngine local(data, EngineOptions{});
  QueryEngine served(std::move(data), EngineOptions{});
  net::Server server(served);
  server.Start();

  {
    // A hand-built version-1 request frame: the same 20-byte header but
    // version 1, the bare request body (no extension block) and no CRC-32
    // trailer. Only kWireVersion is spoken, so the server answers kProtocol
    // and hangs up.
    net::WireWriter frame_bytes;
    net::WireWriter body;
    net::EncodeRequest(MakePoint(250.0), body);
    frame_bytes.U32(net::kWireMagic);
    frame_bytes.U16(1);  // version
    frame_bytes.U16(static_cast<uint16_t>(net::MessageType::kRequest));
    frame_bytes.U64(/*request_id=*/3);
    frame_bytes.U32(static_cast<uint32_t>(body.size()));
    ASSERT_EQ(frame_bytes.size(), net::kFrameHeaderBytes);
    net::Socket sock = net::ConnectTcp(kLoopback, server.port());
    sock.WriteAll(frame_bytes.bytes().data(), frame_bytes.size());
    sock.WriteAll(body.bytes().data(), body.size());

    net::ReceivedFrame frame;
    ASSERT_TRUE(net::ReceiveFrame(sock, net::kDefaultMaxBodyBytes, &frame));
    ASSERT_EQ(frame.header.type, net::MessageType::kError);
    net::WireReader reader(frame.body.data(), frame.body.size());
    net::DecodedError err =
        net::DecodeErrorBody(reader, net::kDefaultMaxBodyBytes);
    EXPECT_EQ(err.code, net::ErrorCode::kProtocol);
    uint8_t byte = 0;
    EXPECT_FALSE(sock.ReadExact(&byte, 1));  // then the connection closes
  }
  EXPECT_EQ(server.stats().protocol_errors, 1u);
  EXPECT_EQ(server.stats().requests_served, 0u);

  // The server keeps serving: a fresh connection speaking kWireVersion is
  // answered exactly as the in-process engine answers.
  net::Client client = net::Client::Connect(kLoopback, server.port());
  net::ServeResponse response = client.Await(client.Send(MakePoint(250.0)));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(local.Execute(MakePoint(250.0)).ids, response.result.ids);
  server.Stop();
}

}  // namespace
}  // namespace pverify
