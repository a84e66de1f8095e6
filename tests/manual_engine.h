// ManualEngine: an Engine whose async path answers only when the test says
// so. SubmitThen parks the request; ResolveAll() executes the backlog (and
// ResolveLast() only the newest request) through a real QueryEngine and
// runs the callbacks on the calling thread. This makes states like
// "N requests in flight" and "future never resolves" deterministic.
#ifndef PVERIFY_TESTS_MANUAL_ENGINE_H_
#define PVERIFY_TESTS_MANUAL_ENGINE_H_

#include <iterator>
#include <list>
#include <mutex>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/query_engine.h"

namespace pverify {

class ManualEngine : public Engine {
 public:
  explicit ManualEngine(Dataset data)
      : inner_(std::move(data), EngineOptions{}) {}

  size_t num_threads() const override { return 1; }
  /// No worker is ever idle, so a server never runs a request with Execute
  /// on its reader thread: every request parks.
  size_t IdleWorkers() const override { return 0; }

  QueryResult Execute(QueryRequest request) override {
    return inner_.Execute(std::move(request));
  }

  std::vector<QueryResult> ExecuteBatch(std::vector<QueryRequest> requests,
                                        EngineStats* stats) override {
    return inner_.ExecuteBatch(std::move(requests), stats);
  }

  void SubmitThen(QueryRequest request, QueryCallback done) override {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(Parked{std::move(request), std::move(done)});
  }

  size_t PendingCount() {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  }

  void ResolveAll() {
    std::list<Parked> taken;
    {
      std::lock_guard<std::mutex> lock(mu_);
      taken.swap(pending_);
    }
    Run(taken);
  }

  void ResolveLast() {
    std::list<Parked> taken;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.empty()) return;
      taken.splice(taken.begin(), pending_, std::prev(pending_.end()));
    }
    Run(taken);
  }

  size_t ScratchQueriesServed() const override { return 0; }
  size_t ScratchBytes() const override { return 0; }

 private:
  struct Parked {
    QueryRequest request;
    QueryCallback done;
  };

  void Run(std::list<Parked>& taken) {
    for (Parked& p : taken) {
      Complete(p.done, [&] { return inner_.Execute(std::move(p.request)); });
    }
  }

  QueryEngine inner_;
  std::mutex mu_;
  std::list<Parked> pending_;
};

}  // namespace pverify

#endif  // PVERIFY_TESTS_MANUAL_ENGINE_H_
