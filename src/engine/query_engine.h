// The query engine: one dataset, range-partitioned across N shards.
//
// A QueryEngine range-partitions one Dataset (1-D intervals, 2-D regions,
// or both) across num_shards shards, each its own executor and R-tree, and
// owns a fixed-size worker pool with one QueryScratch per worker. It is the
// pverify::Engine implementation (see engine/engine.h): one request/result
// surface over every query family the library evaluates — point C-PNN (1-D
// and native 2-D), min/max, constrained k-NN, and pre-built candidate sets.
// One shard (the default) is the unsharded engine: its executor holds the
// loaded dataset itself, with no copy.
//
// Every request kind runs through ONE scatter/gather driver
// (ScatterGather). It picks the home shard — the one whose bounds lie
// nearest q — and runs its local filter first; that shard's exact local
// cut caps the global one, and only the other shards whose bounds MINDIST
// is within the cap are filtered at all (per-shard domain bounds prune the
// rest exactly: 1-D interval bounds for point/min/max/k-NN, 2-D Mbr bounds
// for the 2-D kinds, see spatial/bounds.h). The exact global cut is
// recovered from the local results, phase 2 rechecks each surviving
// shard's objects against that cut and builds their distance distributions
// into one candidate set, and the gather evaluates once. Since the paper's
// filter keeps only objects near f_min, a point query almost always
// filters its home shard alone. The point (1-D), point (2-D) and k-NN (1-D
// and 2-D) paths are policy instantiations of that driver, differing only
// in bounds metric, local filter, cap and final evaluation — not in
// scatter/gather structure.
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
// bit-identical at every shard count, and to the sequential executors
// (CpnnExecutor, CpnnExecutor2D); only timings differ.
#ifndef PVERIFY_ENGINE_QUERY_ENGINE_H_
#define PVERIFY_ENGINE_QUERY_ENGINE_H_

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

struct EngineOptions {
  /// Worker threads; 0 means hardware concurrency.
  size_t num_threads = 0;
  /// Shards the dataset is partitioned into; 0 and 1 both mean one.
  size_t num_shards = 1;
  /// Object-to-shard slicing; null means RangeShardingPolicy::ForDataset
  /// of the 1-D dataset, or ForDataset2D of the 2-D one when there are no
  /// 1-D objects. Unused with one shard.
  std::shared_ptr<const RangeShardingPolicy> policy = nullptr;
};

/// Serves any number of queries over one dataset, sequentially or batched.
/// See engine/engine.h for the interface contracts.
class QueryEngine : public Engine {
 public:
  explicit QueryEngine(Dataset dataset, EngineOptions options = {});
  /// 2-D-only engine: serves the 2-D kinds (and CandidatesQuery).
  explicit QueryEngine(Dataset2D dataset, EngineOptions options = {});
  /// Dual-mode engine: both datasets partitioned by the same policy.
  QueryEngine(Dataset dataset, Dataset2D dataset2d,
              EngineOptions options = {});
  ~QueryEngine() override;

  size_t num_shards() const { return shards_.size(); }
  size_t num_threads() const override { return pool_.size(); }
  size_t IdleWorkers() const override { return pool_.parked(); }
  /// The i-th shard's 2-D executor (its dataset is the i-th 2-D
  /// partition), or nullptr for a 1-D-only engine.
  const CpnnExecutor2D* shard_executor2d(size_t i) const {
    return shards_[i].executor2d.get();
  }
  /// The i-th shard's domain bounds (empty for an empty shard).
  const DomainBounds& shard_bounds(size_t i) const {
    return shards_[i].executor->domain();
  }
  /// The i-th shard's 2-D domain bounds (empty for an empty shard or a
  /// 1-D-only engine).
  const ShardBounds2D& shard_bounds2d(size_t i) const {
    return shards_[i].bounds2d;
  }

  /// Executes one request on the calling thread, scattering over the shards
  /// it needs.
  QueryResult Execute(QueryRequest request) override;

  /// Executes a batch: requests fan out across the worker pool, each
  /// scattering over the shards it needs on the worker running it. Results
  /// are in request order.
  std::vector<QueryResult> ExecuteBatch(std::vector<QueryRequest> requests,
                                        EngineStats* stats = nullptr) override;

  /// Posts the request to the worker pool; one worker runs all of its
  /// shards.
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
  /// (the 2-D kinds throw) from "2-D dataset that happens to be empty"
  /// (they answer empty).
  QueryEngine(Dataset dataset, Dataset2D dataset2d, EngineOptions options,
              bool serve_2d);

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
  /// Global domain endpoints, merged from the shards' exact ones, so
  /// min/max queries evaluate at the executor's virtual query points.
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

#endif  // PVERIFY_ENGINE_QUERY_ENGINE_H_
