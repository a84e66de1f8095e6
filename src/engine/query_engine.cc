#include "engine/query_engine.h"

#include <utility>
#include <variant>

#include "common/check.h"
#include "common/timer.h"
#include "engine/work_steal_pool.h"

namespace pverify {

QueryEngine::QueryEngine(Dataset dataset, EngineOptions options)
    : executor_(std::move(dataset)),
      num_threads_(options.num_threads == 0
                       ? WorkStealingPool::DefaultThreadCount()
                       : options.num_threads),
      scratches_(num_threads_) {}

QueryEngine::QueryEngine(Dataset2D dataset, EngineOptions options)
    : QueryEngine(Dataset{}, std::move(dataset), std::move(options)) {}

QueryEngine::QueryEngine(Dataset dataset, Dataset2D dataset2d,
                         EngineOptions options)
    : QueryEngine(std::move(dataset), options) {
  executor2d_.emplace(std::move(dataset2d));
}

QueryEngine::~QueryEngine() = default;

QueryResult QueryEngine::Execute(QueryRequest request) {
  Validate(request);
  return scratches_.OnCaller([&](QueryScratch* scratch) {
    return ExecuteOne(std::move(request), scratch);
  });
}

WorkStealingPool& QueryEngine::Pool() {
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<WorkStealingPool>(num_threads_);
    spawned_pool_.store(pool_.get());
  });
  return *pool_;
}

size_t QueryEngine::IdleWorkers() const {
  const WorkStealingPool* pool = spawned_pool_.load();
  return pool == nullptr ? num_threads_ : pool->parked();
}

std::vector<QueryResult> QueryEngine::ExecuteBatch(
    std::vector<QueryRequest> requests, EngineStats* stats) {
  for (const QueryRequest& request : requests) Validate(request);
  std::vector<QueryResult> results(requests.size());
  Timer wall;
  Pool().ParallelFor(requests.size(), [&](size_t worker, size_t index) {
    results[index] = scratches_.OnWorker(worker, [&](QueryScratch* scratch) {
      return ExecuteOne(std::move(requests[index]), scratch);
    });
  });
  if (stats != nullptr) {
    *stats = EngineStats{};
    stats->threads = num_threads_;
    stats->wall_ms = wall.ElapsedMs();
    for (const QueryResult& r : results) {
      AccumulateBatchResult(r.stats, stats);
    }
  }
  return results;
}

void QueryEngine::SubmitThen(QueryRequest request, QueryCallback done) {
  if (!Admit(request, done)) return;
  // Boxed: QueryRequest is move-only and the posted task must be copyable.
  auto boxed = std::make_shared<QueryRequest>(std::move(request));
  Pool().Post([this, boxed, done = std::move(done)](size_t worker) {
    Complete(done, [&] {
      return scratches_.OnWorker(worker, [&](QueryScratch* scratch) {
        return ExecuteOne(std::move(*boxed), scratch);
      });
    });
  });
}

size_t QueryEngine::ScratchQueriesServed() const {
  return scratches_.QueriesServed();
}

size_t QueryEngine::ScratchBytes() const { return scratches_.Bytes(); }

QueryResult QueryEngine::ExecuteOne(QueryRequest&& request,
                                    QueryScratch* scratch) const {
  return std::visit(
      [&](auto&& payload) {
        return Run(std::move(payload), scratch);
      },
      std::move(request.query));
}

QueryResult QueryEngine::Run(PointQuery&& q, QueryScratch* scratch) const {
  return ToQueryResult(executor_.Execute(q.q, q.options, scratch));
}

QueryResult QueryEngine::Run(MinQuery&& q, QueryScratch* scratch) const {
  return ToQueryResult(executor_.ExecuteMin(q.options, scratch));
}

QueryResult QueryEngine::Run(MaxQuery&& q, QueryScratch* scratch) const {
  return ToQueryResult(executor_.ExecuteMax(q.options, scratch));
}

QueryResult QueryEngine::Run(KnnQuery&& q, QueryScratch*) const {
  Timer t;
  CknnAnswer answer =
      executor_.ExecuteKnn(q.q, q.k, q.options.params, q.options.integration);
  QueryResult result;
  result.stats.total_ms = t.ElapsedMs();
  result.stats.dataset_size = executor_.dataset().size();
  result.stats.candidates = answer.bounds.size();
  result.ids = answer.ids;
  result.knn = std::move(answer);
  return result;
}

QueryResult QueryEngine::Run(CandidatesQuery&& q,
                             QueryScratch* scratch) const {
  // TakeCandidates throws on a consumed (moved-from) payload, so a
  // re-submitted request is rejected instead of silently answering over an
  // empty set.
  return ToQueryResult(
      ExecuteOnCandidates(q.TakeCandidates(), q.options, scratch));
}

QueryResult QueryEngine::Run(Point2DQuery&& q, QueryScratch* scratch) const {
  PV_CHECK_MSG(executor2d_.has_value(),
               "Point2DQuery on an engine without a 2-D dataset");
  return ToQueryResult(executor2d_->Execute(q.q, q.options, scratch));
}

QueryResult QueryEngine::Run(Knn2DQuery&& q, QueryScratch*) const {
  PV_CHECK_MSG(executor2d_.has_value(),
               "Knn2DQuery on an engine without a 2-D dataset");
  Timer t;
  CknnAnswer answer = executor2d_->ExecuteKnn(q.q, q.k, q.options.params,
                                              q.options.integration);
  QueryResult result;
  result.stats.total_ms = t.ElapsedMs();
  result.stats.dataset_size = executor2d_->dataset().size();
  result.stats.candidates = answer.bounds.size();
  result.ids = answer.ids;
  result.knn = std::move(answer);
  return result;
}

}  // namespace pverify
