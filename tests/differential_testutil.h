// Differential-testing harness: one helper that runs a randomized
// mixed-kind request stream across a set of Engine backends and asserts
// every backend answers exactly like a reference engine — labels/ids
// and probability bounds bit-identical.
//
// The Engine contract says answers must not depend on the implementation:
// unsharded vs. sharded 1/2/4-way, disjoint or overlapping range shards,
// cached vs. uncached — only scheduling may differ.
// This header is that contract as a reusable assertion. Tests build a
// stream of request FACTORIES (requests are move-only, so each engine and
// each round rebuilds its own), hand the harness a reference and a list of
// named variants, and get per-request failure messages naming the variant,
// round and stream position.
#ifndef PVERIFY_TESTS_DIFFERENTIAL_TESTUTIL_H_
#define PVERIFY_TESTS_DIFFERENTIAL_TESTUTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"

namespace pverify {
namespace testutil {

/// One backend under differential test, with the label used in failures.
struct NamedEngine {
  std::string name;
  Engine* engine = nullptr;
};

/// Rebuilds one request of the stream. Factories are invoked once per
/// engine per round (plus once for the reference), so consumed payloads
/// (CandidatesQuery) must be rebuilt inside the lambda, not captured.
using RequestFactory = std::function<QueryRequest()>;

struct DifferentialConfig {
  /// Times each engine replays the whole stream. Rounds past the first
  /// exercise memoized paths (a CachingEngine serves them from the cache);
  /// every round must still match the reference exactly.
  int rounds = 1;
  /// Also push each round's stream through Submit() and check the futures,
  /// covering the async path that posts each request to the pool.
  bool exercise_submit = false;
};

/// The raw IEEE 754 bit pattern of `v`.
inline uint64_t BitPattern(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Asserts two doubles have the same bit pattern.
inline void ExpectSameBits(double expected, double got,
                           const std::string& what) {
  EXPECT_EQ(BitPattern(expected), BitPattern(got))
      << what << ": " << expected << " vs " << got;
}

/// Asserts `got` is equivalent to `expected`: ids, entries and every
/// probability bound bit-identical.
inline void ExpectEquivalentResult(const QueryResult& expected,
                                   const QueryResult& got,
                                   const std::string& what) {
  EXPECT_EQ(expected.ids, got.ids) << what;
  ASSERT_EQ(expected.candidate_probabilities.size(),
            got.candidate_probabilities.size())
      << what;
  for (size_t i = 0; i < expected.candidate_probabilities.size(); ++i) {
    const AnswerEntry& e = expected.candidate_probabilities[i];
    const AnswerEntry& g = got.candidate_probabilities[i];
    const std::string entry = what + " entry " + std::to_string(i);
    EXPECT_EQ(e.id, g.id) << entry;
    ExpectSameBits(e.bound.lower, g.bound.lower, entry + " lower");
    ExpectSameBits(e.bound.upper, g.bound.upper, entry + " upper");
  }
  ASSERT_EQ(expected.knn.has_value(), got.knn.has_value()) << what;
  if (expected.knn.has_value()) {
    EXPECT_EQ(expected.knn->ids, got.knn->ids) << what;
    ASSERT_EQ(expected.knn->bounds.size(), got.knn->bounds.size()) << what;
    for (size_t i = 0; i < expected.knn->bounds.size(); ++i) {
      const std::string bound = what + " knn bound " + std::to_string(i);
      ExpectSameBits(expected.knn->bounds[i].lower, got.knn->bounds[i].lower,
                     bound + " lower");
      ExpectSameBits(expected.knn->bounds[i].upper, got.knn->bounds[i].upper,
                     bound + " upper");
    }
  }
}

/// Builds a randomized mixed-kind stream: point, min, max and k-NN requests
/// over `points` in a seed-shuffled order, so batches interleave kinds the
/// way production traffic does. Candidate-set requests carry consumed
/// payloads and are the caller's job (append factories that rebuild them).
inline std::vector<RequestFactory> MakeMixedKindStream(
    const std::vector<double>& points, const QueryOptions& opt,
    uint64_t seed = 17) {
  std::vector<RequestFactory> stream;
  for (double q : points) {
    stream.push_back([q, opt] { return QueryRequest(PointQuery{q, opt}); });
    stream.push_back(
        [q, opt] { return QueryRequest(KnnQuery{q, 3, opt}); });
  }
  stream.push_back([opt] { return QueryRequest(MinQuery{opt}); });
  stream.push_back([opt] { return QueryRequest(MaxQuery{opt}); });
  std::mt19937_64 rng(seed);
  std::shuffle(stream.begin(), stream.end(), rng);
  return stream;
}

/// The harness. Computes ground truth by running the stream serially
/// through `reference.Execute`, then replays it `config.rounds` times
/// through every engine's ExecuteBatch (and optionally Submit), asserting
/// every answer equivalent to the reference.
inline void RunDifferentialStream(Engine& reference,
                                  const std::vector<NamedEngine>& engines,
                                  const std::vector<RequestFactory>& stream,
                                  const DifferentialConfig& config = {}) {
  std::vector<QueryResult> expected;
  expected.reserve(stream.size());
  for (const RequestFactory& make : stream) {
    expected.push_back(reference.Execute(make()));
  }

  for (const NamedEngine& named : engines) {
    ASSERT_NE(named.engine, nullptr) << named.name;
    for (int round = 0; round < config.rounds; ++round) {
      const std::string where =
          named.name + " round " + std::to_string(round);
      std::vector<QueryRequest> batch;
      batch.reserve(stream.size());
      for (const RequestFactory& make : stream) batch.push_back(make());
      std::vector<QueryResult> got =
          named.engine->ExecuteBatch(std::move(batch));
      ASSERT_EQ(expected.size(), got.size()) << where;
      for (size_t i = 0; i < expected.size(); ++i) {
        ExpectEquivalentResult(expected[i], got[i],
                               where + " request " + std::to_string(i));
      }

      if (config.exercise_submit) {
        std::vector<std::future<QueryResult>> futures;
        futures.reserve(stream.size());
        for (const RequestFactory& make : stream) {
          futures.push_back(named.engine->Submit(make()));
        }
        for (size_t i = 0; i < expected.size(); ++i) {
          ExpectEquivalentResult(expected[i], futures[i].get(),
                                 where + " submit " + std::to_string(i));
        }
      }
    }
  }
}

}  // namespace testutil
}  // namespace pverify

#endif  // PVERIFY_TESTS_DIFFERENTIAL_TESTUTIL_H_
