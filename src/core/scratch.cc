#include "core/scratch.h"

namespace pverify {

size_t QueryScratch::ApproxBytes() const {
  return table.ApproxBytes() +
         candidates.ApproxBytes() +
         context.qlow.capacity() * sizeof(double) +
         context.qup.capacity() * sizeof(double) +
         refine_order.capacity() * sizeof(size_t) +
         refine_coeffs.capacity() * sizeof(double) +
         filtered_shards.capacity() * sizeof(size_t) +
         point_locals.capacity() * sizeof(FilterResult) +
         knn_locals.capacity() * sizeof(KnnFilterResult);
}

}  // namespace pverify
