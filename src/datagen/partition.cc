#include "datagen/partition.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "spatial/bounds.h"

namespace pverify {

RangeShardingPolicy::RangeShardingPolicy(double domain_lo, double domain_hi)
    : domain_lo_(domain_lo), domain_hi_(domain_hi) {
  PV_CHECK_MSG(domain_lo <= domain_hi, "domain_lo must not exceed domain_hi");
}

RangeShardingPolicy RangeShardingPolicy::ForDataset(const Dataset& dataset) {
  DomainBounds b = ComputeDomainBounds(dataset);
  if (b.empty()) return RangeShardingPolicy(0.0, 0.0);
  return RangeShardingPolicy(b.lo, b.hi);
}

RangeShardingPolicy RangeShardingPolicy::ForDataset2D(
    const Dataset2D& dataset) {
  ShardBounds2D b = ComputeShardBounds2D(dataset);
  if (b.empty()) return RangeShardingPolicy(0.0, 0.0);
  return RangeShardingPolicy(b.mbr.lo[0], b.mbr.hi[0]);
}

size_t RangeShardingPolicy::SlotOf(double mid, size_t num_shards) const {
  PV_CHECK_MSG(num_shards >= 1, "num_shards must be positive");
  const double width = domain_hi_ - domain_lo_;
  if (width <= 0.0) return 0;
  double slot = std::floor((mid - domain_lo_) / width *
                           static_cast<double>(num_shards));
  if (!(slot > 0.0)) slot = 0.0;  // also a midpoint that is not a number
  const double last = static_cast<double>(num_shards - 1);
  if (slot > last) slot = last;
  return static_cast<size_t>(slot);
}

size_t RangeShardingPolicy::ShardOf(const UncertainObject& obj,
                                    size_t num_shards) const {
  return SlotOf(0.5 * (obj.lo() + obj.hi()), num_shards);
}

size_t RangeShardingPolicy::ShardOf2D(const UncertainObject2D& obj,
                                      size_t num_shards) const {
  const Mbr<2> box = RegionMbr2D(obj);
  return SlotOf(0.5 * (box.lo[0] + box.hi[0]), num_shards);
}

namespace {

/// Moves each object into its shard's part. One shard, or every object in
/// one shard, hands back the input vector itself; otherwise a count pass
/// reserves each part.
template <typename Object, typename ShardOf>
std::vector<std::vector<Object>> Partition(std::vector<Object> objects,
                                           size_t num_shards,
                                           ShardOf shard_of) {
  PV_CHECK_MSG(num_shards >= 1, "num_shards must be positive");
  std::vector<std::vector<Object>> shards(num_shards);
  if (num_shards == 1) {
    shards[0] = std::move(objects);
    return shards;
  }
  std::vector<size_t> counts(num_shards, 0);
  for (const Object& obj : objects) ++counts[shard_of(obj)];
  for (size_t s = 0; s < num_shards; ++s) {
    if (counts[s] == objects.size()) {
      shards[s] = std::move(objects);
      return shards;
    }
  }
  for (size_t s = 0; s < num_shards; ++s) shards[s].reserve(counts[s]);
  for (Object& obj : objects) shards[shard_of(obj)].push_back(std::move(obj));
  return shards;
}

}  // namespace

std::vector<Dataset> PartitionDataset(Dataset dataset, size_t num_shards,
                                      const RangeShardingPolicy& policy) {
  return Partition(std::move(dataset), num_shards,
                   [&](const UncertainObject& obj) {
                     return policy.ShardOf(obj, num_shards);
                   });
}

std::vector<Dataset2D> PartitionDataset2D(Dataset2D dataset,
                                          size_t num_shards,
                                          const RangeShardingPolicy& policy) {
  return Partition(std::move(dataset), num_shards,
                   [&](const UncertainObject2D& obj) {
                     return policy.ShardOf2D(obj, num_shards);
                   });
}

}  // namespace pverify
