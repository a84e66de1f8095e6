// The sharded scatter/gather query engine.
//
// A ShardedQueryEngine range-partitions one Dataset (1-D intervals, 2-D
// regions, or both) across N shards, each its own executor and R-tree, so
// filtering and candidate construction scale past one R-tree. It is the
// scatter/gather implementation of the pverify::Engine interface: each
// request is scattered only to the shards that can contribute candidates —
// per-shard domain bounds prune the rest exactly: 1-D interval bounds for
// point/min/max/k-NN, 2-D Mbr bounds for Point2DQuery (see
// spatial/bounds.h) — and the per-shard answers are gathered back into the
// same QueryResult shape the unsharded engine produces.
//
// Every request kind runs through ONE scatter/gather driver
// (ScatterGather). It picks the home shard — the one whose bounds lie
// nearest q — and runs its local filter first; that shard's exact local
// cut caps the global one, and only the other shards whose bounds MINDIST
// is within the cap are filtered at all. The exact global cut is recovered
// from the local results, phase 2 rechecks each surviving shard's objects
// against that cut and builds their distance distributions into one
// candidate set, and the gather evaluates once. Since the paper's filter
// keeps only objects near f_min, a point query almost always filters its
// home shard alone. The point (1-D), point (2-D) and k-NN (1-D and 2-D)
// paths are policy instantiations of that driver, differing only in bounds
// metric, local filter, cap and final evaluation — not in scatter/gather
// structure.
//
// Parallelism is across requests: batches and submitted requests spread
// over the worker pool, and each request runs its shards serially on the
// thread that executes it (Execute: the calling thread). A local filter
// costs a few microseconds, less than waking a pool worker, so fanning one
// request's shards out over the pool was measured as a loss.
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
#include <memory>
#include <vector>

#include "core/query.h"
#include "core/query2d.h"
#include "datagen/partition.h"
#include "engine/engine.h"
#include "engine/scratch.h"
#include "engine/work_steal_pool.h"
#include "spatial/bounds.h"

namespace pverify {

struct ShardedEngineOptions {
  /// Number of shards the dataset is partitioned into (clamped to >= 1).
  size_t num_shards = 2;
  /// Object-to-shard slicing; null means RangeShardingPolicy::ForDataset
  /// of the 1-D dataset, or ForDataset2D of the 2-D one when there are no
  /// 1-D objects.
  std::shared_ptr<const RangeShardingPolicy> policy;
  /// Scatter/gather worker threads; 0 means hardware concurrency.
  size_t num_threads = 0;
};

/// Serves queries over a dataset partitioned across N shards.
/// Same concurrency contract as QueryEngine: ExecuteBatch from one thread
/// at a time; Execute and Submit from anywhere.
class ShardedQueryEngine : public Engine {
 public:
  explicit ShardedQueryEngine(Dataset dataset,
                              ShardedEngineOptions options = {});
  /// 2-D engine: partitions a Dataset2D via RangeShardingPolicy::ShardOf2D
  /// and serves Point2DQuery requests with Mbr-based shard pruning.
  explicit ShardedQueryEngine(Dataset2D dataset,
                              ShardedEngineOptions options = {});
  /// Dual-mode engine: both datasets partitioned by the same policy.
  ShardedQueryEngine(Dataset dataset, Dataset2D dataset2d,
                     ShardedEngineOptions options = {});
  ~ShardedQueryEngine() override;

  size_t num_shards() const { return shards_.size(); }
  size_t num_threads() const override { return pool_.size(); }
  size_t IdleWorkers() const override { return pool_.parked(); }
  size_t total_objects() const { return total_objects_; }
  /// The i-th shard's 2-D executor (its dataset is the i-th 2-D
  /// partition), or nullptr for a 1-D-only engine.
  const CpnnExecutor2D* shard_executor2d(size_t i) const {
    return shards_[i].executor2d.get();
  }
  /// The i-th shard's domain bounds (empty for an empty shard).
  const DomainBounds& shard_bounds(size_t i) const {
    return shards_[i].bounds;
  }
  /// The i-th shard's 2-D domain bounds (empty for an empty shard or a
  /// 1-D-only engine).
  const ShardBounds2D& shard_bounds2d(size_t i) const {
    return shards_[i].bounds2d;
  }

  /// Executes one request on the calling thread, scattering over the shards
  /// it needs. Results match QueryEngine::Execute bit for bit.
  QueryResult Execute(QueryRequest request) override;

  /// Executes a batch: requests fan out across the worker pool, each
  /// scattering over the shards it needs on the worker running it. Results
  /// are in request order.
  std::vector<QueryResult> ExecuteBatch(std::vector<QueryRequest> requests,
                                        EngineStats* stats = nullptr) override;

  /// Posts the request to the worker pool, as QueryEngine::SubmitThen; one
  /// worker runs all of its shards.
  void SubmitThen(QueryRequest request, QueryCallback done) override;

  /// Lifetime telemetry, summed over requests: shards with data that
  /// contributed candidates vs. were skipped by their domain bounds (before
  /// filtering or at the exact cut), and local filters run.
  size_t ShardVisits() const;
  size_t ShardsPruned() const;
  size_t ShardFilters() const;

  size_t ScratchQueriesServed() const override;
  size_t ScratchBytes() const override;

 private:
  struct Shard {
    std::unique_ptr<const CpnnExecutor> executor;
    /// Null when the engine has no 2-D dataset.
    std::unique_ptr<const CpnnExecutor2D> executor2d;
    DomainBounds bounds;
    ShardBounds2D bounds2d;
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

  QueryResult ExecuteOne(QueryRequest&& request, QueryScratch* scratch);
  /// Per-kind dispatch, one overload per variant alternative; each builds
  /// its policy and runs the one ScatterGather driver (CandidatesQuery is
  /// the exception: its payload already is the gathered set).
  QueryResult Run(PointQuery&& q, QueryScratch* scratch);
  QueryResult Run(MinQuery&& q, QueryScratch* scratch);
  QueryResult Run(MaxQuery&& q, QueryScratch* scratch);
  QueryResult Run(KnnQuery&& q, QueryScratch* scratch);
  QueryResult Run(CandidatesQuery&& q, QueryScratch* scratch);
  QueryResult Run(Point2DQuery&& q, QueryScratch* scratch);
  QueryResult Run(Knn2DQuery&& q, QueryScratch* scratch);

  /// THE scatter/gather driver — the only place the home-shard cap → local
  /// filters → exact global recheck → merge skeleton exists. `policy`
  /// supplies the kind-specific pieces (bounds metric, local filter, cap,
  /// global cut, survivor construction, final evaluation).
  template <typename Policy>
  QueryResult ScatterGather(Policy& policy, QueryScratch* scratch);

  std::vector<Shard> shards_;
  size_t total_objects_ = 0;
  size_t total_objects2d_ = 0;
  bool has_2d_ = false;
  /// Global domain endpoints (same accumulation as the unsharded executor,
  /// so min/max queries evaluate at bit-identical virtual query points).
  double domain_lo_ = 0.0;
  double domain_hi_ = 0.0;

  ScratchArenas scratches_;
  std::atomic<size_t> shard_visits_{0};
  std::atomic<size_t> shards_pruned_{0};
  std::atomic<size_t> shard_filters_{0};

  /// Declared last: its destructor runs every submitted request while the
  /// shards, scratches and counters above still exist.
  WorkStealingPool pool_;
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_SHARDED_ENGINE_H_
