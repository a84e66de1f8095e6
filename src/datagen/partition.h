// Dataset partitioning for the sharded query engine.
//
// A RangeShardingPolicy maps each uncertain object — 1-D interval or 2-D
// region — to one of N shards by where its midpoint falls in a fixed
// domain; PartitionDataset / PartitionDataset2D materialize the per-shard
// datasets. Range sharding keeps spatially close objects together, so
// bounds-based pruning lets most queries skip most shards. The shard
// datasets are a disjoint cover of the input, which is all the
// scatter/gather engine needs for exact answers.
#ifndef PVERIFY_DATAGEN_PARTITION_H_
#define PVERIFY_DATAGEN_PARTITION_H_

#include <cstddef>
#include <vector>

#include "uncertain/distance2d.h"
#include "uncertain/uncertain_object.h"

namespace pverify {

/// Range sharding on the region midpoint over a fixed domain: shard i
/// covers the i-th of num_shards equal-width slices of [domain_lo,
/// domain_hi] (midpoints outside the domain clamp to the end shards).
/// 2-D objects are sliced along the x-axis by their bounding-box midpoint —
/// stripes, the 2-D analogue of interval ranges. A pure function of the
/// object: reproducible and safe to call concurrently.
class RangeShardingPolicy {
 public:
  RangeShardingPolicy(double domain_lo, double domain_hi);

  /// Policy over the dataset's own domain (degenerate when empty).
  static RangeShardingPolicy ForDataset(const Dataset& dataset);

  /// Policy over a 2-D dataset's own x-extent (degenerate when empty).
  static RangeShardingPolicy ForDataset2D(const Dataset2D& dataset);

  /// Shard index in [0, num_shards) for the 1-D object. num_shards >= 1.
  size_t ShardOf(const UncertainObject& obj, size_t num_shards) const;

  /// Shard index in [0, num_shards) for the 2-D object. num_shards >= 1.
  size_t ShardOf2D(const UncertainObject2D& obj, size_t num_shards) const;

 private:
  size_t SlotOf(double mid, size_t num_shards) const;

  double domain_lo_;
  double domain_hi_;
};

/// Splits the dataset into num_shards disjoint datasets by policy. Shards
/// preserve the input's relative object order; some may be empty.
std::vector<Dataset> PartitionDataset(const Dataset& dataset,
                                      size_t num_shards,
                                      const RangeShardingPolicy& policy);

/// 2-D counterpart of PartitionDataset (dispatches through ShardOf2D).
std::vector<Dataset2D> PartitionDataset2D(const Dataset2D& dataset,
                                          size_t num_shards,
                                          const RangeShardingPolicy& policy);

}  // namespace pverify

#endif  // PVERIFY_DATAGEN_PARTITION_H_
