#include "engine/engine.h"

#include <memory>
#include <utility>

namespace pverify {

// Out-of-line so the interface has a home TU for its vtable.
Engine::~Engine() = default;

std::future<QueryResult> Engine::Submit(QueryRequest request) {
  // std::function needs a copyable callback, so the promise is shared.
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> future = promise->get_future();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  SubmitThen(std::move(request),
             [promise](QueryResult result, std::exception_ptr error) {
               if (error) {
                 promise->set_exception(error);
               } else {
                 promise->set_value(std::move(result));
               }
             });
  return future;
}

SubmitQueueStats Engine::SubmitStats() const {
  const size_t n = submitted_.load(std::memory_order_relaxed);
  return SubmitQueueStats{n, n, n > 0 ? size_t{1} : size_t{0}};
}

}  // namespace pverify
