// CountingEngine: an Engine decorator that records how a caller dispatched
// each request — Execute (run on the calling thread) or SubmitThen (posted
// to the pool) — so server tests can pin which path a request took.
// Optionally it reports a fixed IdleWorkers() in place of the backend's,
// and a Hold keeps every Execute at a gate until the test releases it,
// which makes "a request is running on the reader thread" a controlled
// state.
#ifndef PVERIFY_TESTS_COUNTING_ENGINE_H_
#define PVERIFY_TESTS_COUNTING_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace pverify {

class CountingEngine : public Engine {
 public:
  /// Decorates `backend`, which must outlive this engine. When
  /// `idle_workers` is set, IdleWorkers() answers it instead of asking the
  /// backend.
  explicit CountingEngine(Engine& backend,
                          std::optional<size_t> idle_workers = std::nullopt)
      : backend_(backend), idle_workers_(idle_workers) {}

  size_t num_threads() const override { return backend_.num_threads(); }
  size_t IdleWorkers() const override {
    return idle_workers_ ? *idle_workers_ : backend_.IdleWorkers();
  }

  QueryResult Execute(QueryRequest request) override {
    ++executes_;
    {
      std::unique_lock<std::mutex> lock(gate_mu_);
      gate_cv_.wait(lock, [this] { return !gate_closed_; });
    }
    struct Finished {
      std::atomic<size_t>& count;
      ~Finished() { ++count; }
    } finished{executes_finished_};
    return backend_.Execute(std::move(request));
  }

  std::vector<QueryResult> ExecuteBatch(std::vector<QueryRequest> requests,
                                        EngineStats* stats) override {
    return backend_.ExecuteBatch(std::move(requests), stats);
  }

  void SubmitThen(QueryRequest request, QueryCallback done) override {
    ++submits_;
    backend_.SubmitThen(std::move(request), std::move(done));
  }

  size_t ScratchQueriesServed() const override {
    return backend_.ScratchQueriesServed();
  }
  size_t ScratchBytes() const override { return backend_.ScratchBytes(); }

  /// Execute calls entered / returned, and SubmitThen calls.
  size_t executes() const { return executes_; }
  size_t executes_finished() const { return executes_finished_; }
  size_t submits() const { return submits_; }

  /// Holds every Execute before it reaches the backend until Release()
  /// or destruction, so a failed assertion never leaves a server's reader
  /// inside Execute for ~Server to join. Declare it after the server.
  class Hold {
   public:
    explicit Hold(CountingEngine& engine) : engine_(&engine) {
      engine.SetGate(true);
    }
    ~Hold() { Release(); }
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

    /// Lets held and later Execute calls through.
    void Release() {
      if (engine_ != nullptr) engine_->SetGate(false);
      engine_ = nullptr;
    }

   private:
    CountingEngine* engine_;
  };

 private:
  void SetGate(bool closed) {
    {
      std::lock_guard<std::mutex> lock(gate_mu_);
      gate_closed_ = closed;
    }
    gate_cv_.notify_all();
  }

  Engine& backend_;
  const std::optional<size_t> idle_workers_;
  std::atomic<size_t> executes_{0};
  std::atomic<size_t> executes_finished_{0};
  std::atomic<size_t> submits_{0};

  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool gate_closed_ = false;
};

}  // namespace pverify

#endif  // PVERIFY_TESTS_COUNTING_ENGINE_H_
