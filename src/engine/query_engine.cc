#include "engine/query_engine.h"

#include <utility>
#include <variant>

#include "common/check.h"
#include "common/timer.h"
#include "engine/submit_queue.h"
#include "engine/work_steal_pool.h"

namespace pverify {

QueryEngine::QueryEngine(Dataset dataset, EngineOptions options)
    : executor_(std::move(dataset)),
      num_threads_(options.num_threads == 0
                       ? WorkStealingPool::DefaultThreadCount()
                       : options.num_threads) {
  worker_scratches_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    worker_scratches_.push_back(std::make_unique<QueryScratch>());
  }
}

QueryEngine::QueryEngine(Dataset2D dataset, EngineOptions options)
    : QueryEngine(Dataset{}, std::move(dataset), std::move(options)) {}

QueryEngine::QueryEngine(Dataset dataset, Dataset2D dataset2d,
                         EngineOptions options)
    : QueryEngine(std::move(dataset), options) {
  executor2d_.emplace(std::move(dataset2d), options.radial_pieces);
}

QueryEngine::~QueryEngine() = default;

QueryResult QueryEngine::Execute(QueryRequest request) {
  std::lock_guard<std::mutex> lock(serial_mu_);
  return ExecuteOne(std::move(request), &serial_scratch_);
}

WorkStealingPool& QueryEngine::BatchPool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkStealingPool>(num_threads_);
  }
  return *pool_;
}

std::vector<QueryResult> QueryEngine::ExecuteBatch(
    std::vector<QueryRequest> requests, EngineStats* stats) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  std::vector<QueryResult> results(requests.size());
  Timer wall;
  BatchPool().ParallelFor(requests.size(), [&](size_t worker, size_t index) {
    results[index] = ExecuteOne(std::move(requests[index]),
                                worker_scratches_[worker].get());
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

SubmitQueue* QueryEngine::EnsureSubmitQueue() {
  SubmitQueue* queue = submit_queue_ptr_.load(std::memory_order_acquire);
  if (queue != nullptr) return queue;
  std::call_once(submit_once_, [this] {
    submit_queue_ = std::make_unique<SubmitQueue>(
        [this](std::vector<PendingQuery>& batch) { RunSubmitted(batch); });
    submit_queue_ptr_.store(submit_queue_.get(), std::memory_order_release);
  });
  return submit_queue_ptr_.load(std::memory_order_acquire);
}

std::future<QueryResult> QueryEngine::Submit(QueryRequest request) {
  return EnsureSubmitQueue()->Submit(std::move(request));
}

SubmitQueueStats QueryEngine::SubmitStats() const {
  SubmitQueue* queue = submit_queue_ptr_.load(std::memory_order_acquire);
  return queue != nullptr ? queue->GetStats() : SubmitQueueStats{};
}

void QueryEngine::RunSubmitted(std::vector<PendingQuery>& batch) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  BatchPool().ParallelFor(batch.size(), [&](size_t worker, size_t index) {
    PendingQuery& item = batch[index];
    try {
      item.promise.set_value(ExecuteOne(std::move(item.request),
                                        worker_scratches_[worker].get()));
    } catch (...) {
      item.promise.set_exception(std::current_exception());
    }
  });
}

size_t QueryEngine::ScratchQueriesServed() const {
  std::scoped_lock lock(serial_mu_, batch_mu_);
  size_t total = serial_scratch_.queries_served;
  for (const auto& s : worker_scratches_) total += s->queries_served;
  return total;
}

size_t QueryEngine::ScratchBytes() const {
  std::scoped_lock lock(serial_mu_, batch_mu_);
  size_t total = serial_scratch_.ApproxBytes();
  for (const auto& s : worker_scratches_) total += s->ApproxBytes();
  return total;
}

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
