// Bit-identity pin on the answers the engines produce.
//
// A seeded 1-D workload runs through QueryEngine, a 4-shard
// ShardedQueryEngine, a CachingEngine (cold and warm), two threads calling
// Execute concurrently on one engine, and a loopback net::Server on both
// of its dispatch paths (requests one at a time run on the reader thread;
// a pipelined batch fans out to the pool). Every answer id
// and the raw bit pattern of every probability bound is folded into one
// 64-bit FNV-1a digest, which must equal a constant recorded from an
// earlier build. Any change to the verifier numerics (subregion table,
// RS / L-SR / U-SR, the Eq. 4 refresh, refinement, exact integration,
// k-NN) that moves a single bit of a single bound fails this test.
//
// The workload is restricted to uniform pdfs in 1-D on purpose: their
// distance pdfs are step functions and every quantity downstream needs
// only + − × ÷, which IEEE 754 rounds exactly the same way everywhere.
// Gaussian pdfs (exp/erfc) and the 2-D paths (sqrt/acos) call libm, whose
// last bits can differ across glibc versions, so a digest over them would
// pin the C library rather than this code. The generator's interval
// lengths come from std::exponential_distribution (std::log); the interval
// endpoints are snapped to a 1/1024 grid so a last-bit difference there
// cannot reach the data either.
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "counting_engine.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "engine/caching_engine.h"
#include "engine/query_engine.h"
#include "engine/sharded_engine.h"
#include "fnv1a_testutil.h"
#include "net/client.h"
#include "net/server.h"

namespace pverify {
namespace {

using testutil::Fnv1a;
using testutil::Hex;

// Digest of the workload below, recorded before the verifier numerics
// were last restructured. It is a regression pin: never update it to
// make a change pass; an intended change of answer bits needs its own
// justification.
constexpr uint64_t kGoldenDigest = 0x52c9eb88cd2f0e25ULL;

Dataset GoldenDataset() {
  datagen::SyntheticConfig config;
  config.count = 3000;
  config.domain_hi = 1000.0;
  config.mean_length = 12.0;
  config.max_length = 40.0;
  config.cluster_fraction = 0.5;
  config.num_clusters = 8;
  config.cluster_stddev = 40.0;
  config.pdf = datagen::PdfKind::kUniform;
  config.seed = 2008;
  Dataset snapped;
  for (const UncertainObject& o : datagen::MakeSynthetic(config)) {
    const double lo = std::floor(o.lo() * 1024.0) / 1024.0;
    const double hi = std::ceil(o.hi() * 1024.0) / 1024.0;
    snapped.emplace_back(o.id(), MakeUniformPdf(lo, hi));
  }
  return snapped;
}

std::vector<QueryRequest> GoldenRequests() {
  const std::vector<double> points =
      datagen::MakeQueryPoints(5, 0.0, 1000.0, /*seed=*/41);
  std::vector<QueryRequest> batch;
  for (double threshold : {0.1, 0.3, 0.7}) {
    for (double tolerance : {0.0, 0.01}) {
      for (Strategy strategy : {Strategy::kBasic, Strategy::kRefine,
                                Strategy::kVR, Strategy::kMonteCarlo}) {
        QueryOptions opt;
        opt.params = {threshold, tolerance};
        opt.strategy = strategy;
        opt.report_probabilities = true;
        for (double q : points) batch.push_back(PointQuery{q, opt});
        batch.push_back(MinQuery{opt});
        batch.push_back(MaxQuery{opt});
      }
      QueryOptions knn_opt;
      knn_opt.params = {threshold, tolerance};
      for (double q : points) {
        for (int k : {2, 4}) batch.push_back(KnnQuery{q, k, knn_opt});
      }
    }
  }
  return batch;
}

uint64_t Digest(const std::vector<QueryResult>& results) {
  Fnv1a h;
  for (const QueryResult& r : results) {
    h.AddIds(r.ids);
    h.Add(static_cast<uint64_t>(r.candidate_probabilities.size()));
    for (const AnswerEntry& e : r.candidate_probabilities) {
      h.Add(static_cast<uint64_t>(e.id));
      h.Add(e.bound);
    }
    h.Add(static_cast<uint64_t>(r.knn.has_value()));
    if (r.knn.has_value()) {
      h.AddIds(r.knn->ids);
      h.Add(static_cast<uint64_t>(r.knn->bounds.size()));
      for (const ProbabilityBound& b : r.knn->bounds) h.Add(b);
    }
  }
  return h.value();
}

TEST(GoldenAnswersTest, EveryEngineReproducesTheRecordedDigest) {
  const Dataset data = GoldenDataset();
  const size_t n = GoldenRequests().size();

  QueryEngine unsharded(data, EngineOptions{2});
  const std::vector<QueryResult> reference =
      unsharded.ExecuteBatch(GoldenRequests());
  ASSERT_EQ(reference.size(), n);
  const uint64_t digest = Digest(reference);
  EXPECT_EQ(Hex(digest), Hex(kGoldenDigest)) << "QueryEngine";

  ShardedEngineOptions sopt;
  sopt.num_shards = 4;
  sopt.num_threads = 2;
  ShardedQueryEngine sharded(data, sopt);
  EXPECT_EQ(Hex(Digest(sharded.ExecuteBatch(GoldenRequests()))),
            Hex(digest))
      << "4-shard ShardedQueryEngine";

  QueryEngine backend(data, EngineOptions{2});
  CachingEngine cached(backend);
  EXPECT_EQ(Hex(Digest(cached.ExecuteBatch(GoldenRequests()))), Hex(digest))
      << "CachingEngine, cold";
  EXPECT_EQ(Hex(Digest(cached.ExecuteBatch(GoldenRequests()))), Hex(digest))
      << "CachingEngine, warm";
  EXPECT_GT(cached.GetCacheStats().hits, 0u);

  // Two threads calling Execute at once on one engine, each on a caller
  // arena of its own.
  QueryEngine shared(data, EngineOptions{2});
  std::vector<QueryRequest> requests = GoldenRequests();
  std::vector<QueryResult> concurrent(n);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < 2; ++t) {
    callers.emplace_back([&, t] {
      for (size_t i = t; i < n; i += 2) {
        concurrent[i] = shared.Execute(std::move(requests[i]));
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(Hex(Digest(concurrent)), Hex(digest))
      << "two concurrent Execute callers";
}

std::vector<QueryResult> Unwrap(std::vector<net::ServeResponse> responses) {
  std::vector<QueryResult> results;
  for (net::ServeResponse& response : responses) {
    EXPECT_TRUE(response.ok) << response.error;
    results.push_back(std::move(response.result));
  }
  return results;
}

// Every answer field crosses the wire bit for bit, whichever thread ran
// the request.
TEST(GoldenAnswersTest, LoopbackServerReproducesTheRecordedDigest) {
  QueryEngine backend(GoldenDataset(), EngineOptions{2});
  CountingEngine engine(backend);
  net::ServerOptions sopt;
  sopt.max_inflight_per_conn = 0;  // the pipelined leg sends every request
  net::Server server(engine, sopt);
  server.Start();
  net::Client client = net::Client::Connect("127.0.0.1", server.port());

  std::vector<net::ServeResponse> one_at_a_time;
  for (const QueryRequest& request : GoldenRequests()) {
    one_at_a_time.push_back(client.Await(client.Send(request)));
  }
  EXPECT_EQ(Hex(Digest(Unwrap(std::move(one_at_a_time)))),
            Hex(kGoldenDigest))
      << "loopback, one request at a time";
  EXPECT_GT(engine.executes(), 0u);  // the reader ran the lone ones
  EXPECT_GT(engine.submits(), 0u);   // k-NN always goes to the pool
  EXPECT_EQ(Hex(Digest(Unwrap(client.Call(GoldenRequests())))),
            Hex(kGoldenDigest))
      << "loopback, whole batch pipelined";
}

}  // namespace
}  // namespace pverify
