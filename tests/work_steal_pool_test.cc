// WorkStealingPool tests: the nesting-safe ParallelFor contract — no
// deadlock when workers start loops of their own, exceptions propagating
// out of inner loops to the nested call site, worker ids stable under
// stealing, a randomized nested stress run, and Post: a blocked posted
// task never delays another, destruction runs every posted task, and
// parked() counts the workers a Post would have to wake (registered under
// the `engine` label so the TSan CI job covers the pool's
// synchronization).
#include "engine/work_steal_pool.h"

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pverify {
namespace {

TEST(WorkStealPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  WorkStealingPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](size_t worker, size_t index) {
    ASSERT_LT(worker, 4u);
    ASSERT_LT(index, n);
    hits[index].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(WorkStealPoolTest, ZeroThreadRequestClampsToOne) {
  WorkStealingPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(WorkStealPoolTest, ParallelForZeroItemsIsNoop) {
  WorkStealingPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

// The tentpole property: a worker that reaches an inner ParallelFor
// participates instead of blocking, so depth-2 nesting completes even when
// every worker is inside an outer iteration simultaneously.
TEST(WorkStealPoolTest, NestedParallelForFromWorkersDoesNotDeadlock) {
  WorkStealingPool pool(4);
  const size_t outer = 8;   // every worker gets outer work
  const size_t inner = 64;
  std::vector<std::array<std::atomic<int>, 64>> hits(outer);
  pool.ParallelFor(outer, [&](size_t, size_t i) {
    pool.ParallelFor(inner, [&](size_t worker, size_t j) {
      ASSERT_LT(worker, 4u);
      hits[i][j].fetch_add(1);
    });
  });
  for (size_t i = 0; i < outer; ++i) {
    for (size_t j = 0; j < inner; ++j) {
      EXPECT_EQ(hits[i][j].load(), 1) << i << "," << j;
    }
  }
}

TEST(WorkStealPoolTest, NestedParallelForWithOneWorkerCompletes) {
  // With one worker nothing can be stolen: the nested caller must run the
  // whole inner loop itself (and drain its own spawned runners).
  WorkStealingPool pool(1);
  std::atomic<int> count{0};
  pool.ParallelFor(3, [&](size_t, size_t) {
    pool.ParallelFor(5, [&](size_t worker, size_t) {
      EXPECT_EQ(worker, 0u);
      count.fetch_add(1);
    });
  });
  EXPECT_EQ(count.load(), 15);
}

TEST(WorkStealPoolTest, TripleNestingCompletes) {
  WorkStealingPool pool(3);
  std::atomic<int> count{0};
  pool.ParallelFor(3, [&](size_t, size_t) {
    pool.ParallelFor(3, [&](size_t, size_t) {
      pool.ParallelFor(3, [&](size_t, size_t) { count.fetch_add(1); });
    });
  });
  EXPECT_EQ(count.load(), 27);
}

TEST(WorkStealPoolTest, ExceptionPropagatesFromOuterLoopToExternalCaller) {
  WorkStealingPool pool(2);
  EXPECT_THROW(pool.ParallelFor(8,
                                [](size_t, size_t index) {
                                  if (index == 3) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool survives and stays usable.
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](size_t, size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

// An exception in an inner loop surfaces at the INNER call site (inside
// the worker), where the outer iteration can handle it; unhandled, it then
// propagates through the outer loop to the external caller like any other
// callback exception.
TEST(WorkStealPoolTest, ExceptionPropagatesOutOfInnerLoops) {
  WorkStealingPool pool(4);
  std::atomic<int> inner_caught{0};
  pool.ParallelFor(4, [&](size_t, size_t) {
    try {
      pool.ParallelFor(16, [](size_t, size_t j) {
        if (j % 5 == 0) throw std::invalid_argument("inner");
      });
    } catch (const std::invalid_argument&) {
      inner_caught.fetch_add(1);
    }
  });
  EXPECT_EQ(inner_caught.load(), 4);

  EXPECT_THROW(pool.ParallelFor(4,
                                [&](size_t, size_t) {
                                  pool.ParallelFor(8, [](size_t, size_t j) {
                                    if (j == 7) {
                                      throw std::runtime_error("deep");
                                    }
                                  });
                                }),
               std::runtime_error);
}

// Worker ids are per-OS-thread and stable: across nesting and stealing,
// one thread always reports one id, every id is in range, and distinct
// threads never share an id — the property the engines' per-worker
// QueryScratch arenas rely on.
TEST(WorkStealPoolTest, WorkerIdsStableUnderNestingAndStealing) {
  WorkStealingPool pool(4);
  std::mutex mu;
  std::map<std::thread::id, std::set<size_t>> seen;
  auto record = [&](size_t worker) {
    ASSERT_LT(worker, 4u);
    std::lock_guard<std::mutex> g(mu);
    seen[std::this_thread::get_id()].insert(worker);
  };
  pool.ParallelFor(16, [&](size_t outer_worker, size_t) {
    record(outer_worker);
    pool.ParallelFor(32, [&](size_t inner_worker, size_t) {
      record(inner_worker);
    });
    // The participating thread reports the same id inside its own inner
    // loop as outside — checked globally below via the per-thread sets.
  });
  std::set<size_t> all_ids;
  for (const auto& [tid, ids] : seen) {
    EXPECT_EQ(ids.size(), 1u) << "one thread reported multiple worker ids";
    all_ids.insert(*ids.begin());
  }
  EXPECT_EQ(all_ids.size(), seen.size())
      << "distinct threads shared a worker id";
}

TEST(WorkStealPoolTest, ConcurrentExternalParallelForCallers) {
  WorkStealingPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&pool, &total] {
      for (int round = 0; round < 5; ++round) {
        pool.ParallelFor(40, [&](size_t, size_t) { total.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), 3 * 5 * 40);
}

// Randomized nested stress: outer loops of varying width where a
// deterministic subset of iterations fan out again, while a second
// external thread runs flat ParallelFor rounds concurrently. Exact counter
// totals prove no index is lost or duplicated under stealing; TSan proves
// the synchronization.
TEST(WorkStealPoolTest, RandomizedNestedStress) {
  WorkStealingPool pool(4);
  constexpr int kRounds = 10;
  std::atomic<long> work{0};
  std::atomic<int> concurrent{0};
  long expected_work = 0;
  int expected_concurrent = 0;
  for (int round = 0; round < kRounds; ++round) {
    const size_t outer = 5 + (round * 7) % 23;
    for (size_t i = 0; i < outer; ++i) {
      const size_t inner = (i * 13 + round) % 11;
      expected_work += inner == 0 ? 1 : static_cast<long>(inner);
    }
    expected_concurrent += static_cast<int>(outer / 3);
  }
  std::thread second([&] {
    for (int round = 0; round < kRounds; ++round) {
      const size_t outer = 5 + (round * 7) % 23;
      pool.ParallelFor(outer / 3,
                       [&](size_t, size_t) { concurrent.fetch_add(1); });
    }
  });
  for (int round = 0; round < kRounds; ++round) {
    const size_t outer = 5 + (round * 7) % 23;
    pool.ParallelFor(outer, [&](size_t, size_t i) {
      const size_t inner = (i * 13 + round) % 11;
      if (inner == 0) {
        work.fetch_add(1);
        return;
      }
      pool.ParallelFor(inner, [&](size_t, size_t) { work.fetch_add(1); });
    });
  }
  second.join();
  EXPECT_EQ(work.load(), expected_work);
  EXPECT_EQ(concurrent.load(), expected_concurrent);
}

// A posted task blocked on a latch holds one worker only: on a 2-worker
// pool a second post still runs while the first waits.
TEST(WorkStealPoolTest, BlockedPostDoesNotDelayTheNextPost) {
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  std::promise<void> first_started;
  std::promise<size_t> second_ran;
  WorkStealingPool pool(2);  // declared last: joins before the above die
  pool.Post([&](size_t) {
    first_started.set_value();
    latch.wait();
  });
  first_started.get_future().wait();
  pool.Post([&](size_t worker) { second_ran.set_value(worker); });
  std::future<size_t> second = second_ran.get_future();
  ASSERT_EQ(second.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_LT(second.get(), 2u);
  release.set_value();
}

/// Polls `cond` until true or ~5 s passed.
template <typename Cond>
bool WaitFor(Cond cond) {
  const auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!cond()) {
    if (std::chrono::steady_clock::now() > limit) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(WorkStealPoolTest, ParkedCountsTheWorkersAPostWouldWake) {
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  std::promise<void> started;
  WorkStealingPool pool(2);  // declared last: joins before the above die
  ASSERT_TRUE(WaitFor([&] { return pool.parked() == 2; }));
  pool.Post([&](size_t) {
    started.set_value();
    latch.wait();
  });
  started.get_future().wait();
  // One worker runs the task; the other finds nothing and parks again.
  ASSERT_TRUE(WaitFor([&] { return pool.parked() == 1; }));
  release.set_value();
  EXPECT_TRUE(WaitFor([&] { return pool.parked() == 2; }));
}

// The destructor runs every posted task — including tasks posted from
// inside posted tasks and posts that nest a ParallelFor — before joining.
TEST(WorkStealPoolTest, DestructorRunsEveryPostedTask) {
  constexpr size_t kPosts = 200;
  std::atomic<size_t> ran{0};
  std::atomic<size_t> inner{0};
  {
    WorkStealingPool pool(3);
    for (size_t i = 0; i < kPosts; ++i) {
      pool.Post([&, i](size_t worker) {
        EXPECT_LT(worker, 3u);
        if (i % 2 == 0) {
          pool.Post([&](size_t) { ran.fetch_add(1); });
        } else {
          pool.ParallelFor(4, [&](size_t, size_t) { inner.fetch_add(1); });
        }
        ran.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(ran.load(), kPosts + kPosts / 2);
  EXPECT_EQ(inner.load(), 4 * (kPosts / 2));
}

}  // namespace
}  // namespace pverify
