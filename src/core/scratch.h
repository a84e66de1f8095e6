// Reusable per-query verification state (the engine's zero-allocation hot
// path).
//
// Every C-PNN evaluation needs a subregion table, an n×M pair of
// per-subregion bound arrays and a refinement ordering workspace. Built
// fresh per query (the seed behavior) these dominate the allocation profile
// of a high-throughput workload; a QueryScratch owns them once and the core
// re-initializes them in place, so after a few warm-up queries the buffers
// reach the workload's high-water mark and the hot path stops touching the
// allocator.
//
// The struct lives in core — its members and its consumers (framework,
// refinement, the query executors) are all core — while the engine layer
// wires one instance to each worker thread (see engine/scratch.h).
//
// A QueryScratch is NOT thread-safe; give each thread its own instance.
// Passing nullptr wherever a QueryScratch* is accepted restores the
// allocate-per-query behavior.
#ifndef PVERIFY_CORE_SCRATCH_H_
#define PVERIFY_CORE_SCRATCH_H_

#include <cstddef>
#include <vector>

#include "core/candidate.h"
#include "core/subregion.h"
#include "core/verifier.h"

namespace pverify {

struct QueryScratch {
  QueryScratch() = default;
  QueryScratch(const QueryScratch&) = delete;
  QueryScratch& operator=(const QueryScratch&) = delete;

  /// Subregion table rebuilt in place via SubregionTable::BuildInto.
  SubregionTable table;

  /// Recycled candidate-set construction storage: the items buffer, the
  /// per-candidate distance-distribution storage (1-D folded pdfs and 2-D
  /// radial cdfs alike) and the builders' work buffers. Borrowed by
  /// CandidateSet::Build1D/Build2D and returned by ExecuteOnCandidates.
  CandidateArena candidates;

  /// Verification context whose n×M qlow/qup arrays are re-initialized via
  /// VerificationContext::Reset.
  VerificationContext context;

  /// Refinement's per-candidate subregion ordering (the `js` workspace of
  /// IncrementalRefine).
  std::vector<size_t> refine_order;

  /// Queries that borrowed this scratch so far (telemetry; bumped by
  /// VerificationFramework when it adopts the scratch).
  size_t queries_served = 0;

  /// Approximate heap footprint of the owned buffers (capacity, not size) —
  /// lets tests assert that reuse reaches a steady state.
  size_t ApproxBytes() const;
};

}  // namespace pverify

#endif  // PVERIFY_CORE_SCRATCH_H_
