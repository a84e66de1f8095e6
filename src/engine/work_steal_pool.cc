#include "engine/work_steal_pool.h"

#include <algorithm>
#include <exception>

#include "common/timer.h"

namespace pverify {

namespace {

/// Worker-thread registration: which pool this thread belongs to (if any)
/// and its stable id there. A thread belongs to at most one pool, so one
/// slot suffices; CurrentWorkerId compares the pool pointer.
thread_local WorkStealingPool* tls_pool = nullptr;
thread_local size_t tls_id = 0;  ///< meaningful only while tls_pool is set

/// Per-thread foreign-work clock (see ForeignWorkMsOnThisThread). Plain
/// thread_local: only this thread writes or reads it.
thread_local double tls_foreign_ms = 0.0;

}  // namespace

/// State of one ParallelFor, living on the caller's stack. Every runner
/// finishes (and decrements pending) before ParallelFor returns, so no
/// queued pointer outlives this frame. A posted state lives on the heap
/// instead, and its single runner deletes it.
struct WorkStealingPool::LoopState {
  std::atomic<size_t> cursor{0};
  size_t n = 0;
  const std::function<void(size_t, size_t)>* fn = nullptr;
  /// Runners not yet finished. The final release-decrement, paired with
  /// the caller's acquire-read, publishes every callback's writes.
  std::atomic<size_t> pending{0};
  /// True when the caller is an external thread blocked on cv (a worker
  /// caller spins-and-helps on `pending` instead). Decides the runner
  /// epilogue: with a cv waiter the decrement must happen under mu, or a
  /// spurious wakeup could observe pending == 0 and free this frame while
  /// the decrementer is still mid-notify.
  bool external_waiter = false;
  std::mutex mu;  ///< guards first_error; latch protocol when external
  std::condition_variable cv;
  std::exception_ptr first_error;
  /// Set by Post: `fn` points at `owned_fn`, n is 1, and nobody waits.
  bool self_owned = false;
  std::function<void(size_t, size_t)> owned_fn;
};

size_t WorkStealingPool::DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

WorkStealingPool::WorkStealingPool(size_t num_threads) {
  const size_t n = num_threads == 0 ? DefaultThreadCount() : num_threads;
  deques_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    deques_.push_back(std::make_unique<TaskDeque>());
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  stopping_.store(true, std::memory_order_release);
  // The empty critical section serializes against a worker between its
  // last failed scan and its wait, so the notification cannot be missed.
  { std::lock_guard<std::mutex> g(sleep_mu_); }
  sleep_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

size_t WorkStealingPool::CurrentWorkerId() const {
  return tls_pool == this ? tls_id : kNotAWorker;
}

double WorkStealingPool::ForeignWorkMsOnThisThread() const {
  return tls_foreign_ms;
}

void WorkStealingPool::RunRunner(LoopState& state, size_t worker) {
  for (;;) {
    const size_t index = state.cursor.fetch_add(1, std::memory_order_relaxed);
    if (index >= state.n) break;
    try {
      (*state.fn)(worker, index);
    } catch (...) {
      std::lock_guard<std::mutex> g(state.mu);
      if (!state.first_error) state.first_error = std::current_exception();
    }
  }
  if (state.self_owned) {
    delete &state;
  } else if (state.external_waiter) {
    std::lock_guard<std::mutex> g(state.mu);
    if (state.pending.fetch_sub(1, std::memory_order_release) == 1) {
      state.cv.notify_all();
    }
  } else {
    state.pending.fetch_sub(1, std::memory_order_release);
  }
}

void WorkStealingPool::ParallelFor(
    size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t self = CurrentWorkerId();

  LoopState state;
  state.n = n;
  state.fn = &fn;
  const size_t spawned = std::min(size(), n);
  state.pending.store(spawned, std::memory_order_relaxed);
  state.external_waiter = self == kNotAWorker;

  // One runner per participant; each claims indices through the shared
  // cursor until the loop is exhausted, so stragglers never serialize the
  // batch and a runner that starts late simply finds nothing left.
  if (self != kNotAWorker) {
    // Nested call: spawn the other runners onto our own deque (thieves
    // take them FIFO from the top), then participate instead of blocking.
    for (size_t t = 0; t + 1 < spawned; ++t) {
      PushToOwnDeque(self, &state);
    }
    if (spawned > 1) SignalWork(spawned - 1);
    RunRunner(state, self);
    // Our indices are done but thieves may still hold runners (or our own
    // deque may still hold unstolen ones): drain and steal — executing
    // whatever work exists, including other loops' — until the latch
    // trips. Never block: that is what makes nesting deadlock-free.
    //
    // Every task picked up here is foreign to whatever this thread was
    // timing (another query's runner, an injected task — at best a leftover
    // runner of this very loop that finds the cursor exhausted and returns
    // in nanoseconds), so its wall time goes on the thread's foreign-work
    // clock. Writing `before + elapsed` rather than `+= elapsed` makes the
    // charge net of any bumps the task's own nested drains performed —
    // those are already inside `elapsed` — so nested stealing never
    // double-counts.
    while (state.pending.load(std::memory_order_acquire) != 0) {
      const double before = tls_foreign_ms;
      Timer drained;
      if (!RunOneTask(self)) {
        std::this_thread::yield();
        continue;
      }
      tls_foreign_ms = before + drained.ElapsedMs();
    }
  } else {
    for (size_t t = 0; t < spawned; ++t) {
      Inject(&state);
    }
    SignalWork(spawned);
    std::unique_lock<std::mutex> lk(state.mu);
    state.cv.wait(lk, [&state] {
      return state.pending.load(std::memory_order_acquire) == 0;
    });
  }
  if (state.first_error) std::rethrow_exception(state.first_error);
}

void WorkStealingPool::Post(std::function<void(size_t)> fn) {
  auto* state = new LoopState;
  state->n = 1;
  state->self_owned = true;
  // noexcept: no caller is left to receive the exception.
  state->owned_fn = [fn = std::move(fn)](size_t worker, size_t) noexcept {
    fn(worker);
  };
  state->fn = &state->owned_fn;
  Inject(state);
  SignalWork(1);
}

void WorkStealingPool::WorkerLoop(size_t worker_id) {
  tls_pool = this;
  tls_id = worker_id;
  for (;;) {
    if (RunOneTask(worker_id)) continue;
    const uint64_t epoch = work_epoch_.load(std::memory_order_acquire);
    // Re-scan after reading the epoch: a task pushed between the failed
    // scan above and the epoch read would otherwise be slept through.
    if (RunOneTask(worker_id)) continue;
    if (stopping_.load(std::memory_order_acquire)) return;  // drained
    std::unique_lock<std::mutex> lk(sleep_mu_);
    sleep_cv_.wait(lk, [this, epoch] {
      return stopping_.load(std::memory_order_relaxed) ||
             work_epoch_.load(std::memory_order_relaxed) != epoch;
    });
  }
}

bool WorkStealingPool::RunOneTask(size_t self) {
  LoopState* task = nullptr;
  // 1) Own deque, bottom first: LIFO keeps the hottest work local and
  //    unwinds nested loops innermost-first.
  if (self != kNotAWorker) {
    TaskDeque& own = *deques_[self];
    if (own.approx_size.load(std::memory_order_relaxed) != 0) {
      std::lock_guard<std::mutex> g(own.mu);
      if (!own.tasks.empty()) {
        task = own.tasks.back();
        own.tasks.pop_back();
        own.approx_size.store(own.tasks.size(), std::memory_order_relaxed);
      }
    }
  }
  // 2) Externally injected work (FIFO).
  if (!task && injected_size_.load(std::memory_order_relaxed) != 0) {
    std::lock_guard<std::mutex> g(inject_mu_);
    if (!injected_.empty()) {
      task = injected_.front();
      injected_.pop_front();
      injected_size_.store(injected_.size(), std::memory_order_relaxed);
    }
  }
  // 3) Steal from the top (FIFO — the victim's oldest, typically largest
  //    pending work), starting past ourselves so victims rotate.
  if (!task) {
    const size_t num = deques_.size();
    const size_t start = (self == kNotAWorker ? 0 : self) + 1;
    for (size_t i = 0; i < num && !task; ++i) {
      const size_t v = (start + i) % num;
      if (v == self) continue;
      TaskDeque& victim = *deques_[v];
      if (victim.approx_size.load(std::memory_order_relaxed) == 0) continue;
      std::lock_guard<std::mutex> g(victim.mu);
      if (!victim.tasks.empty()) {
        task = victim.tasks.front();
        victim.tasks.pop_front();
        victim.approx_size.store(victim.tasks.size(),
                                 std::memory_order_relaxed);
      }
    }
  }
  if (!task) return false;
  RunRunner(*task, self);
  return true;
}

void WorkStealingPool::PushToOwnDeque(size_t self, LoopState* task) {
  TaskDeque& own = *deques_[self];
  std::lock_guard<std::mutex> g(own.mu);
  own.tasks.push_back(task);
  own.approx_size.store(own.tasks.size(), std::memory_order_relaxed);
}

void WorkStealingPool::Inject(LoopState* task) {
  std::lock_guard<std::mutex> g(inject_mu_);
  injected_.push_back(task);
  injected_size_.store(injected_.size(), std::memory_order_relaxed);
}

void WorkStealingPool::SignalWork(size_t tasks) {
  work_epoch_.fetch_add(1, std::memory_order_release);
  // Serialize against sleepers' predicate checks (see ~WorkStealingPool).
  { std::lock_guard<std::mutex> g(sleep_mu_); }
  if (tasks == 1) {
    sleep_cv_.notify_one();
  } else {
    sleep_cv_.notify_all();
  }
}

}  // namespace pverify
