// ManualEngine: an Engine whose async path answers only when the test says
// so. SubmitThen parks the request, ResolveAll() executes the backlog
// through a real QueryEngine and runs the callbacks. This makes states like
// "N requests in flight" and "future never resolves" deterministic.
#ifndef PVERIFY_TESTS_MANUAL_ENGINE_H_
#define PVERIFY_TESTS_MANUAL_ENGINE_H_

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
    for (Parked& p : taken) {
      Complete(p.done, [&] { return inner_.Execute(std::move(p.request)); });
    }
  }

  size_t ScratchQueriesServed() const override { return 0; }
  size_t ScratchBytes() const override { return 0; }

 private:
  struct Parked {
    QueryRequest request;
    QueryCallback done;
  };

  QueryEngine inner_;
  std::mutex mu_;
  std::list<Parked> pending_;
};

}  // namespace pverify

#endif  // PVERIFY_TESTS_MANUAL_ENGINE_H_
