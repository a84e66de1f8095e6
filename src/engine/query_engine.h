// The batched multi-threaded query engine.
//
// A QueryEngine owns a CpnnExecutor (dataset + R-tree) and/or a
// CpnnExecutor2D (2-D dataset + 2-D R-tree), a fixed-size worker pool
// (spawned on first batched or submitted use) and one QueryScratch per
// worker. It is the single-process implementation of the pverify::Engine
// interface (see engine/engine.h): one request/result surface over every
// query family the library evaluates — point C-PNN (1-D and native 2-D),
// min/max, constrained k-NN, and pre-built candidate sets — with batches
// fanned across the workers under dynamic load balancing. Results are returned in
// request order and are bit-identical to running the same requests
// sequentially through the executors: workers share nothing but the
// read-only executors, and each query's arithmetic is unchanged.
//
// Besides ExecuteBatch, interactive callers can Submit single requests and
// get a future back: each one is posted straight to the worker pool.
#ifndef PVERIFY_ENGINE_QUERY_ENGINE_H_
#define PVERIFY_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/query.h"
#include "core/query2d.h"
#include "engine/engine.h"
#include "engine/scratch.h"

namespace pverify {

class WorkStealingPool;

struct EngineOptions {
  /// Worker threads; 0 means hardware concurrency.
  size_t num_threads = 0;
};

/// Serves any number of queries over one dataset, sequentially or batched.
/// See engine/engine.h for the interface contracts.
class QueryEngine : public Engine {
 public:
  explicit QueryEngine(Dataset dataset, EngineOptions options = {});
  /// 2-D-only engine: serves Point2DQuery (and CandidatesQuery) requests.
  explicit QueryEngine(Dataset2D dataset, EngineOptions options = {});
  /// Dual-mode engine: one engine serving both workload shapes.
  QueryEngine(Dataset dataset, Dataset2D dataset2d,
              EngineOptions options = {});
  ~QueryEngine() override;

  const CpnnExecutor& executor() const { return executor_; }
  /// The 2-D executor, or nullptr when the engine has no 2-D dataset.
  const CpnnExecutor2D* executor2d() const {
    return executor2d_.has_value() ? &*executor2d_ : nullptr;
  }
  size_t num_threads() const override { return num_threads_; }
  /// The pool's parked workers; num_threads() before the pool exists.
  size_t IdleWorkers() const override;

  QueryResult Execute(QueryRequest request) override;
  std::vector<QueryResult> ExecuteBatch(std::vector<QueryRequest> requests,
                                        EngineStats* stats = nullptr) override;
  void SubmitThen(QueryRequest request, QueryCallback done) override;
  size_t ScratchQueriesServed() const override;
  size_t ScratchBytes() const override;

 private:
  QueryResult ExecuteOne(QueryRequest&& request, QueryScratch* scratch) const;
  /// Per-kind execution, one overload per variant alternative.
  QueryResult Run(PointQuery&& q, QueryScratch* scratch) const;
  QueryResult Run(MinQuery&& q, QueryScratch* scratch) const;
  QueryResult Run(MaxQuery&& q, QueryScratch* scratch) const;
  QueryResult Run(KnnQuery&& q, QueryScratch* scratch) const;
  QueryResult Run(CandidatesQuery&& q, QueryScratch* scratch) const;
  QueryResult Run(Point2DQuery&& q, QueryScratch* scratch) const;
  QueryResult Run(Knn2DQuery&& q, QueryScratch* scratch) const;

  /// Spawns the worker pool on first use, from any thread, so engines
  /// that never batch or submit never park idle worker threads.
  WorkStealingPool& Pool();

  CpnnExecutor executor_;
  /// Engaged when the engine owns a 2-D dataset (Point2DQuery requests).
  std::optional<CpnnExecutor2D> executor2d_;
  size_t num_threads_;
  ScratchArenas scratches_;
  std::once_flag pool_once_;
  /// pool_, published once it exists, for IdleWorkers on any thread.
  std::atomic<const WorkStealingPool*> spawned_pool_{nullptr};
  /// Declared last: its destructor runs every submitted request while the
  /// executors and scratches above still exist.
  std::unique_ptr<WorkStealingPool> pool_;
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_QUERY_ENGINE_H_
