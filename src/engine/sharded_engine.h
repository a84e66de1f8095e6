// The sharded scatter/gather query engine.
//
// A ShardedQueryEngine partitions one Dataset (1-D intervals, 2-D regions,
// or both) across N QueryEngine shards (hash or range on the object domain,
// pluggable via ShardingPolicy) so filtering and candidate construction
// scale past one R-tree. It is the scatter/gather implementation of the
// pverify::Engine interface: each request is scattered only to the shards
// that can contribute candidates — per-shard domain bounds prune the rest
// exactly: 1-D interval bounds for point/min/max/k-NN, 2-D Mbr bounds for
// Point2DQuery (see spatial/bounds.h) — and the per-shard answers are
// gathered back into the same QueryResult shape the unsharded engine
// produces.
//
// Every request kind runs through ONE scatter/gather driver
// (ScatterGather): phase 0 caps the reachable distance per shard and prunes
// by bounds, phase 1 runs the shards' local filters, the exact global cut
// is recovered from the local results, phase 2 rechecks each surviving
// shard's objects against that cut and builds their distance
// distributions, and the gather merges the survivors and evaluates once.
// The point (1-D), point (2-D) and k-NN (1-D and 2-D) paths are policy
// instantiations of that driver, differing only in bounds metric, local
// filter and final evaluation — not in scatter/gather structure.
//
// Parallelism is two-level: batches fan requests across the worker pool,
// and each request's phase-1/phase-2 shard loops fan out again. The inner
// loops are real nested ParallelFors even inside batch workers — idle
// workers steal shard tasks, so a single high-latency query scatters
// across every core. A 1-thread engine scans its shards sequentially.
//
// Exactness: a PNN qualification probability depends on EVERY candidate
// jointly (the Π(1 − D_k) term), so shards cannot verify independently.
// The gather phase merges the shards' survivors into one CandidateSet —
// whose construction order-normalizes by (near point, id), making the
// merge order irrelevant — and runs verification/refinement once on the
// merged set. Answers (ids, probability bounds, k-NN answers) are
// bit-identical to the unsharded QueryEngine; only timings differ.
#ifndef PVERIFY_ENGINE_SHARDED_ENGINE_H_
#define PVERIFY_ENGINE_SHARDED_ENGINE_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "datagen/partition.h"
#include "engine/query_engine.h"
#include "engine/work_steal_pool.h"
#include "spatial/bounds.h"

namespace pverify {

struct ShardedEngineOptions {
  /// Number of shards the dataset is partitioned into (clamped to >= 1).
  size_t num_shards = 2;
  /// Object-to-shard assignment; null means hash sharding on object id.
  std::shared_ptr<const ShardingPolicy> policy;
  /// Scatter/gather worker threads; 0 means hardware concurrency. Shard
  /// engines themselves run single-threaded — parallelism lives here.
  size_t num_threads = 0;
  /// Radial-cdf resolution of the 2-D pipeline (Point2DQuery requests).
  int radial_pieces = 64;
};

/// Per-batch statistics of the sharded engine.
struct ShardedBatchStats {
  /// Aggregate over the batch's final per-request stats — the same
  /// semantics as the EngineStats QueryEngine::ExecuteBatch fills.
  EngineStats gathered;
  /// Scatter-phase contribution of each shard: queries that visited it,
  /// its filter/candidate-build time and the candidates it contributed.
  std::vector<EngineStats> per_shard;
  /// MergeEngineStats(per_shard): the scatter phases summed across shards.
  EngineStats scatter_totals;
  size_t shard_visits = 0;   ///< shard scatter executions in this batch
  size_t shards_pruned = 0;  ///< scatter executions skipped via bounds
};

/// Serves queries over a dataset partitioned across N QueryEngine shards.
/// Same concurrency contract as QueryEngine: ExecuteBatch from one thread
/// at a time; Execute and Submit from anywhere.
class ShardedQueryEngine : public Engine {
 public:
  explicit ShardedQueryEngine(Dataset dataset,
                              ShardedEngineOptions options = {});
  /// 2-D engine: partitions a Dataset2D via ShardingPolicy::ShardOf2D and
  /// serves Point2DQuery requests with Mbr-based shard pruning.
  explicit ShardedQueryEngine(Dataset2D dataset,
                              ShardedEngineOptions options = {});
  /// Dual-mode engine: both datasets partitioned by the same policy.
  ShardedQueryEngine(Dataset dataset, Dataset2D dataset2d,
                     ShardedEngineOptions options = {});
  ~ShardedQueryEngine() override;

  size_t num_shards() const { return shards_.size(); }
  size_t num_threads() const override { return pool_.size(); }
  size_t total_objects() const { return total_objects_; }
  const ShardingPolicy& policy() const { return *policy_; }
  /// The i-th shard's engine (its dataset is the i-th partition).
  const QueryEngine& shard(size_t i) const { return *shards_[i].engine; }
  /// The i-th shard's domain bounds (empty for an empty shard).
  const DomainBounds& shard_bounds(size_t i) const {
    return shards_[i].bounds;
  }
  /// The i-th shard's 2-D domain bounds (empty for an empty shard or a
  /// 1-D-only engine).
  const ShardBounds2D& shard_bounds2d(size_t i) const {
    return shards_[i].bounds2d;
  }

  /// Executes one request, scattering across shards in parallel on the
  /// worker pool. Results match QueryEngine::Execute bit for bit.
  QueryResult Execute(QueryRequest request) override;

  /// Executes a batch: requests fan out across the worker pool, each
  /// scattering over the shards it needs. Results are in request order.
  std::vector<QueryResult> ExecuteBatch(std::vector<QueryRequest> requests,
                                        EngineStats* stats = nullptr) override;
  std::vector<QueryResult> ExecuteBatch(std::vector<QueryRequest> requests,
                                        ShardedBatchStats* stats);

  /// Non-blocking submission with coalescing, as QueryEngine::Submit.
  std::future<QueryResult> Submit(QueryRequest request) override;
  SubmitQueueStats SubmitStats() const override;

  /// Lifetime telemetry: scatter executions reaching a shard vs. skipped
  /// outright by its domain bounds.
  size_t ShardVisits() const;
  size_t ShardsPruned() const;

  size_t ScratchQueriesServed() const override;
  size_t ScratchBytes() const override;

 private:
  struct Shard {
    std::unique_ptr<QueryEngine> engine;
    DomainBounds bounds;
    ShardBounds2D bounds2d;
  };
  /// Per-shard scatter contribution of one request (stats only).
  struct ShardContrib {
    double filter_ms = 0.0;
    double init_ms = 0.0;
    size_t candidates = 0;
    bool visited = false;
  };
  struct ScatterRecord {
    std::vector<ShardContrib> shards;  ///< size num_shards when recording
    size_t visits = 0;                 ///< shards that collected candidates
    size_t pruned = 0;                 ///< shards skipped via bounds
  };

  /// Scatter/gather policies instantiating the one driver below: point
  /// C-PNN and constrained k-NN, each generic over dimensionality. Defined
  /// in the .cc (every instantiation lives there).
  template <int Dim>
  struct PointScatterPolicy;
  template <int Dim>
  struct KnnScatterPolicy;

  /// Shared constructor body; `serve_2d` distinguishes "no 2-D dataset"
  /// (Point2DQuery throws, like the 1-D-only QueryEngine) from "2-D
  /// dataset that happens to be empty" (Point2DQuery answers empty, like
  /// the unsharded 2-D engine).
  ShardedQueryEngine(Dataset dataset, Dataset2D dataset2d,
                     ShardedEngineOptions options, bool serve_2d);

  QueryResult ExecuteOne(QueryRequest&& request, QueryScratch* scratch,
                         ScatterRecord* record);
  /// Per-kind dispatch, one overload per variant alternative; each builds
  /// its policy and runs the one ScatterGather driver (CandidatesQuery is
  /// the exception: its payload already is the gathered set).
  QueryResult Run(PointQuery&& q, QueryScratch* scratch,
                  ScatterRecord* record);
  QueryResult Run(MinQuery&& q, QueryScratch* scratch, ScatterRecord* record);
  QueryResult Run(MaxQuery&& q, QueryScratch* scratch, ScatterRecord* record);
  QueryResult Run(KnnQuery&& q, QueryScratch* scratch, ScatterRecord* record);
  QueryResult Run(CandidatesQuery&& q, QueryScratch* scratch,
                  ScatterRecord* record);
  QueryResult Run(Point2DQuery&& q, QueryScratch* scratch,
                  ScatterRecord* record);
  QueryResult Run(Knn2DQuery&& q, QueryScratch* scratch,
                  ScatterRecord* record);

  /// THE scatter/gather driver — the only place the phase-0 cap → local
  /// filter → exact global recheck → merge skeleton exists. `policy`
  /// supplies the kind-specific pieces (bounds metric, local filter,
  /// global cut, survivor construction, final evaluation).
  template <typename Policy>
  QueryResult ScatterGather(Policy& policy, QueryScratch* scratch,
                            ScatterRecord* record);

  /// Runs fn(i) for i in [0, n): on the pool when there is more than one
  /// index and more than one worker, sequentially otherwise.
  void ForEachIndex(size_t n, const std::function<void(size_t)>& fn);
  void RunSubmitted(std::vector<PendingQuery>& batch);
  SubmitQueue* EnsureSubmitQueue();
  std::vector<QueryResult> ExecuteBatchLocked(
      std::vector<QueryRequest>&& requests, EngineStats* gathered,
      ShardedBatchStats* sharded);

  std::vector<Shard> shards_;
  std::shared_ptr<const ShardingPolicy> policy_;
  size_t total_objects_ = 0;
  size_t total_objects2d_ = 0;
  bool has_2d_ = false;
  int radial_pieces_ = 64;
  /// Global domain endpoints (same accumulation as the unsharded executor,
  /// so min/max queries evaluate at bit-identical virtual query points).
  double domain_lo_ = 0.0;
  double domain_hi_ = 0.0;

  WorkStealingPool pool_;
  std::vector<std::unique_ptr<QueryScratch>> worker_scratches_;
  QueryScratch serial_scratch_;  ///< used by Execute()
  mutable std::mutex serial_mu_;
  mutable std::mutex batch_mu_;

  std::atomic<size_t> shard_visits_{0};
  std::atomic<size_t> shards_pruned_{0};

  std::once_flag submit_once_;
  /// Published (release) once submit_queue_ is constructed so SubmitStats
  /// can read it lock-free from any thread.
  std::atomic<SubmitQueue*> submit_queue_ptr_{nullptr};
  std::unique_ptr<SubmitQueue> submit_queue_;  ///< last: drains first
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_SHARDED_ENGINE_H_
