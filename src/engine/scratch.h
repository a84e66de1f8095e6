// Per-worker scratch arenas — the engine-facing name for core's
// QueryScratch, and the set of them an engine owns.
//
// The engine gives each worker thread one QueryScratch and routes every
// request executed on that worker through it, so the verification buffers
// (subregion table, n×M bound arrays, refinement workspace) are reused
// across the worker's whole query stream. Execute callers outside the pool
// borrow one for the length of a query. The type itself lives in core —
// its members and consumers are all core — keeping core free of engine
// includes; this header names it as part of the engine subsystem.
#ifndef PVERIFY_ENGINE_SCRATCH_H_
#define PVERIFY_ENGINE_SCRATCH_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "core/scratch.h"

namespace pverify {

/// An engine's arenas: one per pool worker, indexed by the pool's stable
/// worker id, plus one per concurrent Execute caller. Caller arenas come
/// from a free list that grows to the high-water mark of concurrent
/// callers and is reused after that, so callers never wait on each other.
/// Each query publishes its arena's telemetry when it finishes, so the
/// totals can be read from any thread while queries run, and never show an
/// arena mid-query.
class ScratchArenas {
 public:
  explicit ScratchArenas(size_t workers) {
    slots_.reserve(workers);
    for (size_t i = 0; i < workers; ++i) {
      slots_.push_back(std::make_unique<Slot>());
    }
  }

  size_t workers() const { return slots_.size(); }

  /// Runs fn(scratch) on `worker`'s arena. Only that worker calls this.
  template <typename Fn>
  auto OnWorker(size_t worker, Fn&& fn) {
    return Run(*slots_[worker], fn);
  }

  /// Runs fn(scratch) on a caller arena no other caller holds meanwhile.
  template <typename Fn>
  auto OnCaller(Fn&& fn) {
    struct Lease {
      ScratchArenas& arenas;
      Slot* slot;
      ~Lease() {
        std::lock_guard<std::mutex> lock(arenas.callers_mu_);
        arenas.free_.push_back(slot);
      }
    } lease{*this, Acquire()};
    return Run(*lease.slot, fn);
  }

  /// Queries served across every arena, as of each one's last query.
  size_t QueriesServed() const {
    return Sum([](const Slot& s) {
      return s.served.load(std::memory_order_acquire);
    });
  }

  /// Approximate heap footprint across every arena.
  size_t Bytes() const {
    return Sum([](const Slot& s) {
      return s.bytes.load(std::memory_order_acquire);
    });
  }

 private:
  struct Slot {
    QueryScratch scratch;
    std::atomic<size_t> served{0};
    std::atomic<size_t> bytes{scratch.ApproxBytes()};
  };

  /// Publishes the slot's telemetry when the query leaves, even by throw.
  template <typename Fn>
  static auto Run(Slot& slot, Fn& fn) {
    struct Publish {
      Slot& slot;
      ~Publish() {
        slot.served.store(slot.scratch.queries_served,
                          std::memory_order_release);
        slot.bytes.store(slot.scratch.ApproxBytes(),
                         std::memory_order_release);
      }
    } publish{slot};
    return fn(&slot.scratch);
  }

  /// Pops an idle caller arena, or makes one when every arena is held.
  Slot* Acquire() {
    std::lock_guard<std::mutex> lock(callers_mu_);
    if (free_.empty()) {
      callers_.push_back(std::make_unique<Slot>());
      // Room for every arena, so returning one never allocates.
      free_.reserve(callers_.size());
      return callers_.back().get();
    }
    Slot* slot = free_.back();
    free_.pop_back();
    return slot;
  }

  template <typename Get>
  size_t Sum(Get get) const {
    size_t total = 0;
    for (const auto& s : slots_) total += get(*s);
    std::lock_guard<std::mutex> lock(callers_mu_);
    for (const auto& s : callers_) total += get(*s);
    return total;
  }

  std::vector<std::unique_ptr<Slot>> slots_;
  /// Guards the two lists below (not the arenas, which one caller holds).
  mutable std::mutex callers_mu_;
  std::vector<std::unique_ptr<Slot>> callers_;  ///< every caller arena
  std::vector<Slot*> free_;                     ///< the idle ones
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_SCRATCH_H_
