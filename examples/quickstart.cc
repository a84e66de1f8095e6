// Quickstart: build a few uncertain objects, run C-PNN queries through the
// engine, inspect answers.
//
//   $ ./quickstart
//
// Walks through the library's API: pdfs → objects → engine → requests.
#include <cstdio>

#include "engine/query_engine.h"

using namespace pverify;

int main() {
  // 1. Uncertain objects: closed intervals with a pdf inside (paper §I).
  //    Think of four sensors reporting a 1-D attribute with noise.
  Dataset sensors;
  sensors.emplace_back(/*id=*/1, MakeUniformPdf(10.0, 14.0));
  sensors.emplace_back(/*id=*/2, MakeGaussianPdf(11.0, 17.0));  // 300 bars
  sensors.emplace_back(/*id=*/3, MakeUniformPdf(12.5, 15.5));
  sensors.emplace_back(/*id=*/4, MakeHistogramPdf(20.0, 26.0,
                                                  {1.0, 4.0, 2.0}));

  // 2. The engine owns an executor (dataset + R-tree), a worker pool and
  //    per-worker scratch buffers; it serves single queries and batches.
  QueryEngine engine(sensors);

  // 3. Plain PNN: the exact qualification probability of every candidate,
  //    from a CpnnExecutor of its own (the unbatched API).
  const double q = 12.0;
  std::printf("PNN at q = %.1f\n", q);
  for (const auto& [id, p] : CpnnExecutor(sensors).ComputePnn(q)) {
    std::printf("  object %lld: P(nearest) = %.4f\n",
                static_cast<long long>(id), p);
  }

  // 4. C-PNN: only objects with probability >= P, with tolerance Δ — the
  //    constrained query the verifiers accelerate (paper Definition 1).
  QueryOptions options;
  options.params = {/*threshold=*/0.3, /*tolerance=*/0.01};
  options.strategy = Strategy::kVR;  // verifiers + incremental refinement
  options.report_probabilities = true;

  QueryResult answer = engine.Execute(PointQuery{q, options});
  std::printf("\nC-PNN (P=%.2f, tolerance=%.2f) answers:", 0.3, 0.01);
  for (ObjectId id : answer.ids) {
    std::printf(" %lld", static_cast<long long>(id));
  }
  std::printf("\n\nper-candidate probability bounds after evaluation:\n");
  for (const AnswerEntry& e : answer.candidate_probabilities) {
    std::printf("  object %lld: [%.4f, %.4f]\n",
                static_cast<long long>(e.id), e.bound.lower, e.bound.upper);
  }

  // 5. Execution statistics: how much work each phase did.
  const QueryStats& s = answer.stats;
  std::printf(
      "\nphases: filter %.3f ms | init %.3f ms | verify %.3f ms | "
      "refine %.3f ms\n",
      s.filter_ms, s.init_ms, s.verify_ms, s.refine_ms);
  std::printf("candidates: %zu, subregions: %zu, integrations: %zu\n",
              s.candidates, s.num_subregions, s.subregion_integrations);

  // 6. Batches: mixed request kinds (each a typed payload struct wrapped
  //    into the QueryRequest variant) fan out across the worker pool and
  //    come back in request order with an aggregate.
  std::vector<QueryRequest> batch;
  batch.push_back(PointQuery{12.0, options});
  batch.push_back(PointQuery{21.0, options});
  batch.push_back(MinQuery{options});   // likely-smallest sensor
  batch.push_back(MaxQuery{options});   // likely-largest sensor
  batch.push_back(KnnQuery{12.0, 2, options});
  EngineStats stats;
  std::vector<QueryResult> results =
      engine.ExecuteBatch(std::move(batch), &stats);
  std::printf("\nbatch of %zu requests on %zu threads (%.0f q/s):\n",
              stats.queries, stats.threads, stats.QueriesPerSec());
  const char* labels[] = {"point q=12", "point q=21", "min", "max",
                          "2-NN q=12"};
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("  %-10s →", labels[i]);
    for (ObjectId id : results[i].ids) {
      std::printf(" %lld", static_cast<long long>(id));
    }
    std::printf("\n");
  }
  return 0;
}
