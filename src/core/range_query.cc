#include "core/range_query.h"

#include <algorithm>

#include "common/check.h"
#include "spatial/filter.h"
#include "spatial/mbr.h"

namespace pverify {
namespace {

void AppendIfQualifies(const UncertainObject& obj, double lo, double hi,
                       double threshold, std::vector<RangeResult>* out) {
  double p = obj.pdf().ProbIn(lo, hi);
  if (p > 0.0 && p >= threshold) {
    out->push_back(RangeResult{obj.id(), p});
  }
}

}  // namespace

std::vector<RangeResult> EvaluateRangeQuery(const Dataset& dataset, double lo,
                                            double hi) {
  return EvaluateRangeQuery(dataset, lo, hi, 0.0);
}

std::vector<RangeResult> EvaluateRangeQuery(const Dataset& dataset, double lo,
                                            double hi, double threshold) {
  PV_CHECK_MSG(hi >= lo, "empty range");
  std::vector<RangeResult> out;
  for (const UncertainObject& obj : dataset) {
    AppendIfQualifies(obj, lo, hi, threshold, &out);
  }
  std::sort(out.begin(), out.end(),
            [](const RangeResult& a, const RangeResult& b) {
              return a.id < b.id;
            });
  return out;
}

RangeQueryExecutor::RangeQueryExecutor(const Dataset& dataset)
    : dataset_(&dataset), rtree_(BuildIntervalTree(dataset)) {}

std::vector<RangeResult> RangeQueryExecutor::Execute(double lo, double hi,
                                                     double threshold) const {
  PV_CHECK_MSG(hi >= lo, "empty range");
  std::vector<uint32_t> hits;
  rtree_.Intersecting(MakeInterval(lo, hi), &hits);
  std::vector<RangeResult> out;
  for (uint32_t idx : hits) {
    AppendIfQualifies((*dataset_)[idx], lo, hi, threshold, &out);
  }
  std::sort(out.begin(), out.end(),
            [](const RangeResult& a, const RangeResult& b) {
              return a.id < b.id;
            });
  return out;
}

}  // namespace pverify
