// The abstract query-engine interface.
//
// Everything that serves QueryRequests — the scatter/gather QueryEngine
// (one shard or many) and the CachingEngine decorator — implements
// pverify::Engine. Callers are written once against `Engine&`; how many
// shards the dataset is partitioned across, and whether a cache sits in
// front, is decided only at construction.
// Every implementation honors the same contracts:
//
//  * Execute runs one request on the calling thread and ExecuteBatch fans a
//    batch across the implementation's worker pool, returning results in
//    request order; answers are bit-identical across implementations, shard
//    counts and the sequential executors (only timings differ).
//  * SubmitThen posts one request straight to the worker pool and calls
//    back when it finishes; Submit wraps it in a future. Nothing queues in
//    front of the pool, so a slow request occupies one worker and never
//    holds back the requests submitted after it.
//  * ExecuteBatch may be called from one thread at a time; Execute and
//    Submit may be called concurrently with everything. Concurrent Execute
//    callers never wait on each other: each borrows a scratch arena of its
//    own (pverify_serve's reader threads are such callers).
//  * IdleWorkers says how many pool workers are parked, so a caller holding
//    one cheap request can run it with Execute instead of paying a
//    worker's wake-up through SubmitThen.
//  * Scratch telemetry (ScratchQueriesServed / ScratchBytes) exposes the
//    per-worker and per-caller arenas so callers can pin steady-state
//    footprint.
#ifndef PVERIFY_ENGINE_ENGINE_H_
#define PVERIFY_ENGINE_ENGINE_H_

#include <atomic>
#include <exception>
#include <functional>
#include <future>
#include <utility>
#include <vector>

#include "engine/engine_stats.h"
#include "engine/request.h"

namespace pverify {

class Engine {
 public:
  /// Completion of an async request: the result, or the exception the
  /// request raised (with an empty result). Called exactly once, on the
  /// thread that finished the request; it must not throw.
  using QueryCallback =
      std::function<void(QueryResult result, std::exception_ptr error)>;

  virtual ~Engine();

  /// Worker threads the batch paths fan out over.
  virtual size_t num_threads() const = 0;

  /// Pool workers parked right now: the ones SubmitThen would have to wake.
  /// A racy snapshot, for the caller's choice between Execute and
  /// SubmitThen.
  virtual size_t IdleWorkers() const = 0;

  /// Executes one request on the calling thread (no pool dispatch).
  virtual QueryResult Execute(QueryRequest request) = 0;

  /// Executes a batch across the worker pool; results are in request
  /// order. When `stats` is non-null it receives the batch aggregate.
  virtual std::vector<QueryResult> ExecuteBatch(
      std::vector<QueryRequest> requests, EngineStats* stats = nullptr) = 0;

  /// The async primitive: starts the request and returns at once; `done`
  /// receives the same result Execute would produce. Thread-safe.
  virtual void SubmitThen(QueryRequest request, QueryCallback done) = 0;

  /// SubmitThen with a future in place of the callback. Thread-safe.
  std::future<QueryResult> Submit(QueryRequest request);

  /// Submit telemetry. With no queue every request is its own batch.
  SubmitQueueStats SubmitStats() const;

  /// Total queries served from the scratch arenas (telemetry).
  virtual size_t ScratchQueriesServed() const = 0;
  /// Approximate heap footprint of all scratch arenas.
  virtual size_t ScratchBytes() const = 0;

 protected:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Validate(request) for the async path: when the request is invalid,
  /// hands the exception to `done` and returns false.
  static bool Admit(const QueryRequest& request, const QueryCallback& done);

  /// Runs `run` (returning a QueryResult) and hands its result, or the
  /// exception it threw, to `done`.
  template <typename Run>
  static void Complete(const QueryCallback& done, Run&& run) {
    QueryResult result;
    try {
      result = run();
    } catch (...) {
      done(QueryResult{}, std::current_exception());
      return;
    }
    done(std::move(result), nullptr);
  }

 private:
  std::atomic<size_t> submitted_{0};
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_ENGINE_H_
