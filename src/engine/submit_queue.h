// The engines' async submission queue.
//
// Submit(request) returns a future immediately; a dedicated dispatcher
// thread drains everything queued since the last dispatch into ONE batch
// and hands it to the owning engine's batch runner. While a batch executes,
// new submissions pile up and are coalesced into the next batch — so
// interactive callers pipeline single requests and still get batched
// execution across the worker pool, without ever forming a batch
// themselves. The runner fans the batch out on the engine's worker pool;
// even a coalesced batch of ONE sharded request uses every core, because
// the request's shard loop nests inside the batch worker (see
// sharded_engine.h).
//
// The runner fulfills each pending promise (value or exception) and must
// not let exceptions escape per request; if the runner itself throws, the
// queue fails every still-unfulfilled promise in the batch so no future is
// left to die with a broken_promise. The destructor drains the queue —
// every future obtained from Submit is eventually resolved.
#ifndef PVERIFY_ENGINE_SUBMIT_QUEUE_H_
#define PVERIFY_ENGINE_SUBMIT_QUEUE_H_

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/engine.h"

namespace pverify {

class SubmitQueue {
 public:
  /// Executes one coalesced batch, fulfilling every promise. Called from
  /// the dispatcher thread with the batch by reference: entries whose
  /// promise is still unfulfilled when the runner returns by exception are
  /// failed by the queue.
  using BatchRunner = std::function<void(std::vector<PendingQuery>&)>;

  explicit SubmitQueue(BatchRunner runner);

  /// Drains every queued request through the runner, then joins.
  ~SubmitQueue();

  SubmitQueue(const SubmitQueue&) = delete;
  SubmitQueue& operator=(const SubmitQueue&) = delete;

  /// Enqueues the request; the future resolves once a dispatched batch
  /// containing it finishes. Safe to call from any number of threads.
  std::future<QueryResult> Submit(QueryRequest request);

  SubmitQueueStats GetStats() const;

 private:
  void DispatcherLoop();

  BatchRunner runner_;
  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::vector<PendingQuery> pending_;
  bool stopping_ = false;
  SubmitQueueStats stats_;
  std::thread dispatcher_;  ///< last member: runs as soon as it starts
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_SUBMIT_QUEUE_H_
