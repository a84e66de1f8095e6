// The engines' worker pool: work stealing with a nesting-safe ParallelFor.
//
// ParallelFor hands out item indices under dynamic load balancing and
// reports a stable worker id in [0, size()) to every callback, so callers
// can key per-worker state (the engines key their QueryScratch arenas) off
// it. Each call queues one "runner" per participant, and a runner claims
// indices through the loop's shared cursor until the loop is exhausted.
// Post is the fire-and-forget form the engines' Submit uses: it queues a
// one-index loop that owns its callback and deletes itself after running,
// so the deques hold a single task type.
//
// Layout: every worker owns a deque accessed Chase–Lev-style — the owner
// pushes and pops at the BOTTOM (LIFO, so the hottest, most recently
// spawned work runs first and nested loops unwind innermost-first), thieves
// take from the TOP (FIFO, so they grab the oldest and therefore typically
// largest pending work). External threads inject through a shared FIFO
// queue that workers poll between their own deque and stealing. Each deque
// is guarded by its own mutex rather than the lock-free Chase–Lev
// protocol: at engine task granularity (tasks are whole queries, tens of
// microseconds and up) an uncontended lock is noise, and the locked form
// is provably data-race-free — the TSan CI job runs the entire engine
// suite over this pool. The scheduling model follows
// Blumofe & Leiserson, "Scheduling Multithreaded Computations by Work
// Stealing" (JACM 1999).
//
// Nesting: ParallelFor called from inside a pool worker does NOT block on a
// condition variable (that would deadlock once every worker waits on an
// inner loop). Instead the calling worker spawns the loop's runner tasks
// onto its own deque and then PARTICIPATES: it claims loop indices itself
// and, whenever the loop still has unfinished runners it cannot execute
// (because thieves hold them), it drains its own deque and steals from the
// other workers — executing whatever task it finds, including other
// queries — until the inner loop's completion latch trips. Fan-out from
// inside pool workers is therefore deadlock-free by construction, and idle
// workers are never idle while any loop anywhere has unclaimed indices.
//
// Worker ids are stable: each OS worker thread keeps one id in [0, size())
// for the pool's lifetime, every callback (nested or not) reports the id of
// the thread executing it, and a worker participating in its own inner
// loop runs those iterations under its outer id — per-worker scratch
// arenas keyed by the id therefore keep working across nesting and
// stealing.
#ifndef PVERIFY_ENGINE_WORK_STEAL_POOL_H_
#define PVERIFY_ENGINE_WORK_STEAL_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pverify {

/// The work-stealing pool. See the file comment for the scheduling model.
class WorkStealingPool {
 public:
  /// Worker count a request for 0 threads resolves to: hardware
  /// concurrency, or 1 when that is unknown.
  static size_t DefaultThreadCount();

  /// Spawns `num_threads` workers (0 means DefaultThreadCount()).
  explicit WorkStealingPool(size_t num_threads);

  /// Runs every posted task (and any task those post), then joins the
  /// workers. Every ParallelFor has returned by then.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Number of worker threads (>= 1).
  size_t size() const { return deques_.size(); }

  /// Workers parked on the sleep condition variable right now: the ones a
  /// Post would have to wake. A racy snapshot, for scheduling hints only.
  size_t parked() const { return parked_.load(); }

  /// Runs fn(worker, index) for every index in [0, n), distributing
  /// indices dynamically over the workers. Blocks until every index is
  /// processed. `worker` is a stable id in [0, size()). If any callback
  /// throws, one of the exceptions is rethrown here after the loop drains.
  /// From an external thread the caller blocks on the loop's latch; from a
  /// pool worker the caller participates (see the file comment).
  void ParallelFor(size_t n,
                   const std::function<void(size_t worker, size_t index)>& fn);

  /// Queues fn(worker) to run once on some worker and returns at once.
  /// Posted tasks start in FIFO order from the injection queue. fn must not
  /// throw: an escaping exception terminates the process, as it would on a
  /// std::thread.
  void Post(std::function<void(size_t worker)> fn);

 private:
  /// State of one ParallelFor, on the caller's stack, or of one Post, on
  /// the heap. Queued tasks are pointers to it (one per runner); every
  /// runner has finished (and been popped) by the time ParallelFor returns,
  /// and a posted state is deleted by its only runner, so no queued task
  /// outlives its loop.
  struct LoopState;

  /// One worker's task deque: owner at the bottom, thieves at the top.
  struct TaskDeque {
    std::mutex mu;
    std::deque<LoopState*> tasks;
    /// Maintained alongside tasks.size() so scans can skip empty deques
    /// without taking the lock.
    std::atomic<size_t> approx_size{0};
  };

  /// Sentinel returned by CurrentWorkerId on non-worker threads.
  static constexpr size_t kNotAWorker = ~static_cast<size_t>(0);

  /// The calling thread's stable worker id in this pool, or kNotAWorker.
  size_t CurrentWorkerId() const;

  void WorkerLoop(size_t worker_id);
  /// Pops own deque (LIFO) / injection queue / steals (FIFO); runs at most
  /// one runner. Returns false when nothing was runnable anywhere.
  bool RunOneTask(size_t self);
  /// One runner: claims loop indices until the cursor is exhausted, then
  /// counts itself off the loop's latch.
  static void RunRunner(LoopState& state, size_t worker);
  void PushToOwnDeque(size_t self, LoopState* task);
  void Inject(LoopState* task);
  /// Bumps the work epoch and wakes sleepers (one when a single task was
  /// pushed, all otherwise); call after any push.
  void SignalWork(size_t tasks);

  std::vector<std::unique_ptr<TaskDeque>> deques_;
  std::mutex inject_mu_;
  std::deque<LoopState*> injected_;
  std::atomic<size_t> injected_size_{0};

  /// Sleep management: workers that find every queue empty wait for the
  /// epoch to move. Pushers bump the epoch, then acquire-release sleep_mu_
  /// so a worker between its last failed scan and its wait cannot miss the
  /// bump (the empty critical section serializes against the predicate
  /// check).
  std::atomic<uint64_t> work_epoch_{0};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<size_t> parked_{0};  ///< workers inside the sleep_cv_ wait
  std::atomic<bool> stopping_{false};

  std::vector<std::thread> workers_;  ///< last: threads see members above
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_WORK_STEAL_POOL_H_
