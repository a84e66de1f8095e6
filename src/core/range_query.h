// Probabilistic range queries over 1-D uncertain objects.
//
// A probabilistic range query ([16] in the paper's related work) returns
// each object's probability of lying inside a query interval, optionally
// thresholded like the C-PNN. Unlike nearest-neighbor probabilities these
// are independent per object — two cdf lookups each — so no verifiers are
// needed; the value of the implementation is the shared R-tree filtering
// and the uniform constrained-query semantics.
#ifndef PVERIFY_CORE_RANGE_QUERY_H_
#define PVERIFY_CORE_RANGE_QUERY_H_

#include <vector>

#include "core/types.h"
#include "spatial/rtree.h"
#include "uncertain/uncertain_object.h"

namespace pverify {

struct RangeResult {
  ObjectId id = 0;
  double probability = 0.0;
};

/// Exact appearance probabilities P(X_i ∈ [lo, hi]) for every object whose
/// uncertainty region intersects the query interval, ascending by id.
/// Objects with zero overlap are omitted.
std::vector<RangeResult> EvaluateRangeQuery(const Dataset& dataset,
                                            double lo, double hi);

/// Thresholded variant: only objects with probability >= threshold.
std::vector<RangeResult> EvaluateRangeQuery(const Dataset& dataset,
                                            double lo, double hi,
                                            double threshold);

/// Index-accelerated evaluator for repeated range queries over a fixed
/// dataset.
class RangeQueryExecutor {
 public:
  explicit RangeQueryExecutor(const Dataset& dataset);

  /// Exact probabilities of all intersecting objects (ascending id).
  std::vector<RangeResult> Execute(double lo, double hi,
                                   double threshold = 0.0) const;

 private:
  const Dataset* dataset_;  // not owned
  RTree<1> rtree_;
};

}  // namespace pverify

#endif  // PVERIFY_CORE_RANGE_QUERY_H_
