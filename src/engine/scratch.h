// Per-worker scratch arenas — the engine-facing name for core's
// QueryScratch, and the set of them an engine owns.
//
// The engine gives each worker thread one QueryScratch and routes every
// request executed on that worker through it, so the verification buffers
// (subregion table, n×M bound arrays, refinement workspace) are reused
// across the worker's whole query stream. The type itself lives in core —
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
/// worker id, plus the serial arena Execute uses. Each query publishes its
/// arena's telemetry when it finishes, so the totals can be read from any
/// thread while queries run, and never show an arena mid-query.
class ScratchArenas {
 public:
  explicit ScratchArenas(size_t workers) {
    slots_.reserve(workers);
    for (size_t i = 0; i < workers; ++i) {
      slots_.push_back(std::make_unique<Slot>());
    }
  }

  size_t workers() const { return slots_.size(); }

  /// Runs fn(scratch) on `worker`'s arena. Only that worker calls this (a
  /// sharded worker may re-enter it from a nested shard loop while its
  /// outer query leaves the arena untouched; see sharded_engine.cc).
  template <typename Fn>
  auto OnWorker(size_t worker, Fn&& fn) {
    return Run(*slots_[worker], fn);
  }

  /// Runs fn(scratch) on the serial arena, one caller at a time.
  template <typename Fn>
  auto OnSerial(Fn&& fn) {
    std::lock_guard<std::mutex> lock(serial_mu_);
    return Run(serial_, fn);
  }

  /// Queries served across every arena, as of each one's last query.
  size_t QueriesServed() const {
    size_t total = serial_.served.load(std::memory_order_acquire);
    for (const auto& s : slots_) {
      total += s->served.load(std::memory_order_acquire);
    }
    return total;
  }

  /// Approximate heap footprint across every arena.
  size_t Bytes() const {
    size_t total = serial_.bytes.load(std::memory_order_acquire);
    for (const auto& s : slots_) {
      total += s->bytes.load(std::memory_order_acquire);
    }
    return total;
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

  std::vector<std::unique_ptr<Slot>> slots_;
  Slot serial_;
  std::mutex serial_mu_;
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_SCRATCH_H_
