#include "engine/sharded_engine.h"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/check.h"
#include "common/timer.h"
#include "spatial/filter.h"
#include "uncertain/distance_distribution.h"

namespace pverify {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The gather currency: each shard's surviving (id, distance distribution)
/// pairs, merged before the single verification pass.
using Survivors = std::vector<std::pair<ObjectId, DistanceDistribution>>;

}  // namespace

// ------------------------------------------------------------------------
// Scatter/gather policies. Each supplies the kind-specific pieces of the
// one ScatterGather driver below:
//
//   using Local = ...;                 per-shard phase-1 result
//   static bool HasData(shard)        does the shard participate at all
//   double Phase0Cap(shards)          upper bound on the reachable cut
//   double MinDist(shard)             bound checked against cap and cut
//   Local LocalFilter(shard)          phase 1 (runs concurrently; const)
//   double GlobalCut(locals)          exact global cut from the locals
//   bool Survives(shard, cut)         phase-2 shard recheck
//   void CollectSurvivors(shard, local, cut, out)
//   QueryResult Finish(merged, scratch, filter_total, build_total, total)
// ------------------------------------------------------------------------

/// Point C-PNN scatter, generic over dimensionality. Phase 0: U := min over
/// shards of MAXDIST(q, bounds) upper-bounds the global f_min (each shard's
/// local f_min is at most its bounds MAXDIST), so a shard whose bounds
/// MINDIST exceeds U can neither lower f_min nor hold a candidate. The
/// global f_min is the min of the local ones (each local f_min is an exact
/// min over that shard's entries), so the phase-2 per-object predicate
/// reproduces the unsharded filter's cut bit for bit.
template <int Dim>
struct ShardedQueryEngine::PointScatterPolicy {
  static_assert(Dim == 1 || Dim == 2, "point scatter is 1-D or 2-D");
  using Point = std::conditional_t<Dim == 1, double, Point2>;
  using Local = FilterResult;

  const ShardedQueryEngine& engine;
  Point q;
  const QueryOptions& options;

  static bool HasData(const Shard& shard) {
    if constexpr (Dim == 1) {
      return !shard.bounds.empty();
    } else {
      return !shard.bounds2d.empty();
    }
  }

  double MinDist(const Shard& shard) const {
    if constexpr (Dim == 1) {
      return MbrMinDistToBounds(q, shard.bounds);
    } else {
      return MbrMinDistToBounds2D(q, shard.bounds2d);
    }
  }

  double MaxDist(const Shard& shard) const {
    if constexpr (Dim == 1) {
      return MbrMaxDistToBounds(q, shard.bounds);
    } else {
      return MbrMaxDistToBounds2D(q, shard.bounds2d);
    }
  }

  double Phase0Cap(const std::vector<Shard>& shards) const {
    double cap = kInf;
    for (const Shard& shard : shards) {
      if (!HasData(shard)) continue;
      cap = std::min(cap, MaxDist(shard));
    }
    return cap;
  }

  Local LocalFilter(const Shard& shard) const {
    if constexpr (Dim == 1) {
      return shard.engine->executor().Filter(q);
    } else {
      return shard.engine->executor2d()->Filter(q);
    }
  }

  double GlobalCut(const std::vector<Local>& locals) const {
    double fmin = kInf;
    for (const Local& fr : locals) fmin = std::min(fmin, fr.fmin);
    return fmin;
  }

  bool Survives(const Shard& shard, double cut) const {
    return MinDist(shard) <= cut + kFilterBoundarySlack;
  }

  void CollectSurvivors(const Shard& shard, const Local& local, double cut,
                        Survivors* out) const {
    if constexpr (Dim == 1) {
      const Dataset& objects = shard.engine->executor().dataset();
      for (uint32_t idx : local.candidates) {
        const UncertainObject& obj = objects[idx];
        if (MakeInterval(obj.lo(), obj.hi()).MinDist({q}) <=
            cut + kFilterBoundarySlack) {
          out->emplace_back(obj.id(),
                            DistanceDistribution::From1D(obj.pdf(), q));
        }
      }
    } else {
      const Dataset2D& objects = shard.engine->executor2d()->dataset();
      for (uint32_t idx : local.candidates) {
        const UncertainObject2D& obj = objects[idx];
        if (obj.MinDist(q) <= cut + kFilterBoundarySlack) {
          out->emplace_back(obj.id(),
                            MakeDistanceDistribution2D(obj, q, kRadialPieces));
        }
      }
    }
  }

  QueryResult Finish(Survivors&& merged, QueryScratch* scratch,
                     double filter_total, double build_total,
                     const Timer& total) const {
    // FromDistances re-sorts by (near point, id) — a total order — so the
    // merge order is irrelevant and the set is identical to the unsharded
    // CandidateSet::Build1D / Build2D result.
    Timer gather_timer;
    CandidateSet candidates = CandidateSet::FromDistances(std::move(merged));
    const double gather_ms = gather_timer.ElapsedMs();

    QueryAnswer answer =
        ExecuteOnCandidates(std::move(candidates), options, scratch);
    answer.stats.filter_ms = filter_total;
    answer.stats.init_ms += build_total + gather_ms;
    answer.stats.dataset_size =
        Dim == 1 ? engine.total_objects_ : engine.total_objects2d_;
    answer.stats.total_ms = total.ElapsedMs();
    return ToQueryResult(std::move(answer));
  }
};

/// Constrained k-NN scatter, generic over dimensionality. Phase 0: walk
/// shards by ascending bounds MAXDIST until they cover k objects; that
/// MAXDIST upper-bounds the global k-th far point, so shards whose bounds
/// MINDIST exceeds it hold none of the k smallest far points and no
/// candidates. Phase 1 runs each shard executor's indexed k-NN filter. Its
/// candidates include every object whose far point is within the shard's
/// k-th far point, so they hold each of the global k smallest far points
/// (each lives in its shard's local top k), and the k-th smallest far point
/// over all local candidates equals the unsharded filter's f^(k) exactly.
/// That global cut is at most every local one, so phase 2 re-cuts each
/// shard's local candidates with the same per-object arithmetic.
template <int Dim>
struct ShardedQueryEngine::KnnScatterPolicy {
  static_assert(Dim == 1 || Dim == 2, "knn scatter is 1-D or 2-D");
  using Point = std::conditional_t<Dim == 1, double, Point2>;
  /// The shard's indexed k-NN filter result, with its candidates' far and
  /// near points.
  using Local = KnnFilterResult;

  const ShardedQueryEngine& engine;
  Point q;
  int k;
  const QueryOptions& options;
  /// All shards' candidate far points, merged by GlobalCut; empty means no
  /// objects anywhere, so no shard survives.
  std::vector<double> fars;

  KnnScatterPolicy(const ShardedQueryEngine& engine, Point q, int k,
                   const QueryOptions& options)
      : engine(engine), q(q), k(k), options(options) {}

  static bool HasData(const Shard& shard) {
    if constexpr (Dim == 1) {
      return !shard.bounds.empty();
    } else {
      return !shard.bounds2d.empty();
    }
  }

  static const auto& Objects(const Shard& shard) {
    if constexpr (Dim == 1) {
      return shard.engine->executor().dataset();
    } else {
      return shard.engine->executor2d()->dataset();
    }
  }

  double MinDist(const Shard& shard) const {
    if constexpr (Dim == 1) {
      // Interval arithmetic, mirroring UncertainObject::MinDist — the
      // per-object quantity phase 2 compares against the cut.
      return IntervalMinDistToBounds(q, shard.bounds);
    } else {
      // The Mbr<2> metric lower-bounds every contained region's exact
      // MinDist (box contains region, shard MBR contains box).
      return MbrMinDistToBounds2D(q, shard.bounds2d);
    }
  }

  double MaxDist(const Shard& shard) const {
    if constexpr (Dim == 1) {
      return IntervalMaxDistToBounds(q, shard.bounds);
    } else {
      return MbrMaxDistToBounds2D(q, shard.bounds2d);
    }
  }

  double Phase0Cap(const std::vector<Shard>& shards) const {
    std::vector<std::pair<double, size_t>> caps;
    caps.reserve(shards.size());
    for (size_t i = 0; i < shards.size(); ++i) {
      if (!HasData(shards[i])) continue;
      caps.emplace_back(MaxDist(shards[i]), i);
    }
    std::sort(caps.begin(), caps.end());
    size_t covered = 0;
    for (const std::pair<double, size_t>& cap : caps) {
      covered += Objects(shards[cap.second]).size();
      if (covered >= static_cast<size_t>(k)) return cap.first;
    }
    return kInf;
  }

  Local LocalFilter(const Shard& shard) const {
    if constexpr (Dim == 1) {
      return shard.engine->executor().FilterK(q, k);
    } else {
      return shard.engine->executor2d()->FilterK(q, k);
    }
  }

  double GlobalCut(const std::vector<Local>& locals) {
    for (const Local& local : locals) {
      fars.insert(fars.end(), local.fars.begin(), local.fars.end());
    }
    const size_t total =
        Dim == 1 ? engine.total_objects_ : engine.total_objects2d_;
    const size_t want = std::min(total, static_cast<size_t>(k));
    // Fewer far points than the cut's rank only when q is not a number
    // (its distances compare false): no shard survives, as with no data.
    if (fars.empty() || fars.size() < want) {
      fars.clear();
      return 0.0;
    }
    std::nth_element(fars.begin(), fars.begin() + (want - 1), fars.end());
    return fars[want - 1];
  }

  bool Survives(const Shard& shard, double cut) const {
    return !fars.empty() && MinDist(shard) <= cut + kFilterBoundarySlack;
  }

  void CollectSurvivors(const Shard& shard, const Local& local, double cut,
                        Survivors* out) const {
    for (size_t i = 0; i < local.candidates.size(); ++i) {
      if (local.nears[i] > cut + kFilterBoundarySlack) continue;
      const auto& obj = Objects(shard)[local.candidates[i]];
      if constexpr (Dim == 1) {
        out->emplace_back(obj.id(),
                          DistanceDistribution::From1D(obj.pdf(), q));
      } else {
        out->emplace_back(obj.id(),
                          MakeDistanceDistribution2D(obj, q, kRadialPieces));
      }
    }
  }

  QueryResult Finish(Survivors&& merged, QueryScratch*, double filter_total,
                     double build_total, const Timer& total) const {
    // Rebuild the (order-normalized) candidate set with the k-aware
    // pruning rule and evaluate the constrained k-NN once.
    CandidateSet candidates =
        CandidateSet::FromDistances(std::move(merged), k);
    CknnAnswer answer =
        EvaluateCknn(candidates, k, options.params, options.integration);

    QueryResult result;
    result.stats.total_ms = total.ElapsedMs();
    result.stats.filter_ms = filter_total;
    result.stats.init_ms = build_total;
    result.stats.dataset_size =
        Dim == 1 ? engine.total_objects_ : engine.total_objects2d_;
    result.stats.candidates = answer.bounds.size();
    result.ids = answer.ids;
    result.knn = std::move(answer);
    return result;
  }
};

// ------------------------------------------------------------------------
// Engine implementation.
// ------------------------------------------------------------------------

ShardedQueryEngine::ShardedQueryEngine(Dataset dataset,
                                       ShardedEngineOptions options)
    : ShardedQueryEngine(std::move(dataset), Dataset2D{}, std::move(options),
                         /*serve_2d=*/false) {}

ShardedQueryEngine::ShardedQueryEngine(Dataset2D dataset,
                                       ShardedEngineOptions options)
    : ShardedQueryEngine(Dataset{}, std::move(dataset), std::move(options),
                         /*serve_2d=*/true) {}

ShardedQueryEngine::ShardedQueryEngine(Dataset dataset, Dataset2D dataset2d,
                                       ShardedEngineOptions options)
    : ShardedQueryEngine(std::move(dataset), std::move(dataset2d),
                         std::move(options), /*serve_2d=*/true) {}

ShardedQueryEngine::ShardedQueryEngine(Dataset dataset, Dataset2D dataset2d,
                                       ShardedEngineOptions options,
                                       bool serve_2d)
    : policy_(options.policy != nullptr
                  ? std::move(options.policy)
                  : std::make_shared<const HashShardingPolicy>()),
      scratches_(options.num_threads == 0
                     ? WorkStealingPool::DefaultThreadCount()
                     : options.num_threads),
      pool_(scratches_.workers()) {
  total_objects_ = dataset.size();
  total_objects2d_ = dataset2d.size();
  has_2d_ = serve_2d;
  const DomainBounds global = ComputeDomainBounds(dataset);
  if (!global.empty()) {
    domain_lo_ = global.lo;
    domain_hi_ = global.hi;
  }
  const size_t num_shards = std::max<size_t>(1, options.num_shards);
  std::vector<Dataset> parts =
      PartitionDataset(dataset, num_shards, *policy_);
  std::vector<Dataset2D> parts2d =
      PartitionDataset2D(dataset2d, num_shards, *policy_);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    Shard shard;
    shard.bounds = ComputeDomainBounds(parts[s]);
    shard.bounds2d = ComputeShardBounds2D(parts2d[s]);
    // Shard engines run single-threaded (and never spawn their pool: the
    // scatter path drives their executors directly) — cross-shard and
    // cross-request parallelism belongs to this engine's own pool.
    EngineOptions eopt;
    eopt.num_threads = 1;
    shard.engine = has_2d_
                       ? std::make_unique<QueryEngine>(
                             std::move(parts[s]), std::move(parts2d[s]), eopt)
                       : std::make_unique<QueryEngine>(std::move(parts[s]),
                                                       eopt);
    shards_.push_back(std::move(shard));
  }
}

ShardedQueryEngine::~ShardedQueryEngine() = default;

QueryResult ShardedQueryEngine::Execute(QueryRequest request) {
  return scratches_.OnSerial([&](QueryScratch* scratch) {
    return ExecuteOne(std::move(request), scratch, nullptr);
  });
}

std::vector<QueryResult> ShardedQueryEngine::ExecuteBatch(
    std::vector<QueryRequest> requests, EngineStats* stats) {
  return ExecuteBatchImpl(std::move(requests), stats, nullptr);
}

std::vector<QueryResult> ShardedQueryEngine::ExecuteBatch(
    std::vector<QueryRequest> requests, ShardedBatchStats* stats) {
  return ExecuteBatchImpl(std::move(requests), nullptr, stats);
}

void ShardedQueryEngine::SubmitThen(QueryRequest request,
                                    QueryCallback done) {
  // Boxed: QueryRequest is move-only and the posted task must be copyable.
  auto boxed = std::make_shared<QueryRequest>(std::move(request));
  pool_.Post([this, boxed, done = std::move(done)](size_t worker) {
    Complete(done, [&] {
      return scratches_.OnWorker(worker, [&](QueryScratch* scratch) {
        return ExecuteOne(std::move(*boxed), scratch, nullptr);
      });
    });
  });
}

size_t ShardedQueryEngine::ShardVisits() const {
  return shard_visits_.load(std::memory_order_relaxed);
}

size_t ShardedQueryEngine::ShardsPruned() const {
  return shards_pruned_.load(std::memory_order_relaxed);
}

size_t ShardedQueryEngine::ScratchQueriesServed() const {
  return scratches_.QueriesServed();
}

size_t ShardedQueryEngine::ScratchBytes() const { return scratches_.Bytes(); }

std::vector<QueryResult> ShardedQueryEngine::ExecuteBatchImpl(
    std::vector<QueryRequest>&& requests, EngineStats* gathered,
    ShardedBatchStats* sharded) {
  std::vector<QueryResult> results(requests.size());
  std::vector<ScatterRecord> records;
  if (sharded != nullptr) records.resize(requests.size());
  Timer wall;
  // Requests fan out over the pool; each one additionally scatters its
  // shards through a nested ParallelFor (idle workers steal the shard
  // tasks).
  pool_.ParallelFor(requests.size(), [&](size_t worker, size_t index) {
    ScatterRecord* record = nullptr;
    if (sharded != nullptr) {
      records[index].shards.resize(shards_.size());
      record = &records[index];
    }
    results[index] = scratches_.OnWorker(worker, [&](QueryScratch* scratch) {
      return ExecuteOne(std::move(requests[index]), scratch, record);
    });
  });
  const double wall_ms = wall.ElapsedMs();

  if (gathered == nullptr && sharded == nullptr) return results;
  EngineStats agg;
  agg.threads = pool_.size();
  agg.wall_ms = wall_ms;
  for (const QueryResult& r : results) AccumulateBatchResult(r.stats, &agg);
  if (gathered != nullptr) *gathered = std::move(agg);
  if (sharded != nullptr) {
    *sharded = ShardedBatchStats{};
    sharded->gathered = std::move(agg);
    sharded->per_shard.assign(shards_.size(), EngineStats{});
    for (const ScatterRecord& record : records) {
      sharded->shard_visits += record.visits;
      sharded->shards_pruned += record.pruned;
      for (size_t s = 0; s < shards_.size(); ++s) {
        const ShardContrib& contrib = record.shards[s];
        if (!contrib.visited) continue;
        EngineStats& ps = sharded->per_shard[s];
        ++ps.queries;
        ps.threads = 1;
        ps.totals.filter_ms += contrib.filter_ms;
        ps.totals.init_ms += contrib.init_ms;
        ps.totals.total_ms += contrib.filter_ms + contrib.init_ms;
        ps.totals.candidates += contrib.candidates;
        ps.totals.dataset_size +=
            shards_[s].engine->executor().dataset().size();
      }
    }
    sharded->scatter_totals = MergeEngineStats(sharded->per_shard);
  }
  return results;
}

QueryResult ShardedQueryEngine::ExecuteOne(QueryRequest&& request,
                                           QueryScratch* scratch,
                                           ScatterRecord* record) {
  return std::visit(
      [&](auto&& payload) {
        return Run(std::move(payload), scratch, record);
      },
      std::move(request.query));
}

QueryResult ShardedQueryEngine::Run(PointQuery&& q, QueryScratch* scratch,
                                    ScatterRecord* record) {
  PointScatterPolicy<1> policy{*this, q.q, q.options};
  return ScatterGather(policy, scratch, record);
}

QueryResult ShardedQueryEngine::Run(MinQuery&& q, QueryScratch* scratch,
                                    ScatterRecord* record) {
  // The global domain makes this bit-identical to the unsharded executor's
  // virtual query point (per-shard domains would not be).
  PointScatterPolicy<1> policy{*this, domain_lo_ - 1.0, q.options};
  return ScatterGather(policy, scratch, record);
}

QueryResult ShardedQueryEngine::Run(MaxQuery&& q, QueryScratch* scratch,
                                    ScatterRecord* record) {
  PointScatterPolicy<1> policy{*this, domain_hi_ + 1.0, q.options};
  return ScatterGather(policy, scratch, record);
}

QueryResult ShardedQueryEngine::Run(KnnQuery&& q, QueryScratch* scratch,
                                    ScatterRecord* record) {
  PV_CHECK_MSG(q.k >= 1, "k must be positive");
  KnnScatterPolicy<1> policy(*this, q.q, q.k, q.options);
  return ScatterGather(policy, scratch, record);
}

QueryResult ShardedQueryEngine::Run(CandidatesQuery&& q,
                                    QueryScratch* scratch, ScatterRecord*) {
  // The payload already is the gathered candidate set — no scatter.
  // TakeCandidates throws on a consumed (re-submitted) request.
  return ToQueryResult(
      ExecuteOnCandidates(q.TakeCandidates(), q.options, scratch));
}

QueryResult ShardedQueryEngine::Run(Point2DQuery&& q, QueryScratch* scratch,
                                    ScatterRecord* record) {
  PV_CHECK_MSG(has_2d_,
               "Point2DQuery on an engine without a 2-D dataset");
  PointScatterPolicy<2> policy{*this, q.q, q.options};
  return ScatterGather(policy, scratch, record);
}

QueryResult ShardedQueryEngine::Run(Knn2DQuery&& q, QueryScratch* scratch,
                                    ScatterRecord* record) {
  PV_CHECK_MSG(has_2d_, "Knn2DQuery on an engine without a 2-D dataset");
  PV_CHECK_MSG(q.k >= 1, "k must be positive");
  KnnScatterPolicy<2> policy(*this, q.q, q.k, q.options);
  return ScatterGather(policy, scratch, record);
}

void ShardedQueryEngine::ForEachIndex(size_t n,
                                      const std::function<void(size_t)>& fn) {
  if (n > 1 && pool_.size() > 1) {
    pool_.ParallelFor(n, [&fn](size_t, size_t index) { fn(index); });
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

template <typename Policy>
QueryResult ShardedQueryEngine::ScatterGather(Policy& policy,
                                              QueryScratch* scratch,
                                              ScatterRecord* record) {
  // Reentrancy invariant for nested scatter: a pool worker waiting on one
  // of the ForEachIndex loops below may STEAL another request's task and
  // execute it to completion on its own stack, reusing its per-worker
  // QueryScratch. That is safe only because `scratch` is untouched until
  // policy.Finish() — the phases that fan out (local filter, survivor
  // construction) never borrow scratch state, so at every possible steal
  // point the worker's scratch is quiescent. Keep it that way: no nested
  // ParallelFor may ever run while scratch buffers are borrowed.
  //
  // Telemetry companion of the same mechanism: the wall timer below keeps
  // running while the worker drains/steals, so the pool's per-thread
  // foreign-work clock is snapshotted around this request and its delta —
  // time this thread spent executing OTHER requests' stolen tasks —
  // subtracted from stats.total_ms. Without the correction, batch
  // aggregates of per-query totals over-report whenever multiple requests
  // are in flight on the work-stealing pool (the phase timings, measured
  // inside the loop bodies, were always accurate).
  const double foreign0 = pool_.ForeignWorkMsOnThisThread();
  Timer total;
  // Shard pruning, phase 0: shards whose bounds MINDIST exceeds the
  // policy's reachable-cut cap cannot contribute — skip them before any
  // filtering.
  const double cap = policy.Phase0Cap(shards_);
  std::vector<size_t> eligible;
  size_t pruned = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!Policy::HasData(shards_[i])) continue;
    if (policy.MinDist(shards_[i]) <= cap + kFilterBoundarySlack) {
      eligible.push_back(i);
    } else {
      ++pruned;
    }
  }

  // Scatter, phase 1: the eligible shards' local filters.
  std::vector<typename Policy::Local> locals(eligible.size());
  std::vector<double> filter_ms(eligible.size(), 0.0);
  ForEachIndex(eligible.size(), [&](size_t j) {
    Timer t;
    locals[j] = policy.LocalFilter(shards_[eligible[j]]);
    filter_ms[j] = t.ElapsedMs();
  });
  // The exact global cut recovered from the locals (f_min for point
  // queries, the k-th far point for k-NN).
  const double cut = policy.GlobalCut(locals);

  // Scatter, phase 2: shards surviving the now-exact cut build their
  // survivors' (id, distance distribution) pairs.
  std::vector<Survivors> parts(eligible.size());
  std::vector<double> build_ms(eligible.size(), 0.0);
  std::vector<char> contributed(eligible.size(), 0);
  ForEachIndex(eligible.size(), [&](size_t j) {
    const Shard& shard = shards_[eligible[j]];
    if (!policy.Survives(shard, cut)) {
      return;  // counted as pruned below
    }
    contributed[j] = 1;
    Timer t;
    policy.CollectSurvivors(shard, locals[j], cut, &parts[j]);
    build_ms[j] = t.ElapsedMs();
  });

  // Gather: merge the parts (order irrelevant — the candidate-set
  // construction order-normalizes) and let the policy evaluate once.
  size_t visits = 0;
  size_t total_pairs = 0;
  for (size_t j = 0; j < eligible.size(); ++j) {
    if (contributed[j]) {
      ++visits;
      total_pairs += parts[j].size();
    } else {
      ++pruned;
    }
  }
  Survivors merged;
  merged.reserve(total_pairs);
  for (Survivors& part : parts) {
    for (std::pair<ObjectId, DistanceDistribution>& item : part) {
      merged.push_back(std::move(item));
    }
  }
  double filter_total = 0.0;
  for (double ms : filter_ms) filter_total += ms;
  double build_total = 0.0;
  for (double ms : build_ms) build_total += ms;
  QueryResult result = policy.Finish(std::move(merged), scratch,
                                     filter_total, build_total, total);
  const double foreign = pool_.ForeignWorkMsOnThisThread() - foreign0;
  if (foreign > 0.0) {
    result.stats.total_ms = std::max(0.0, result.stats.total_ms - foreign);
  }

  shard_visits_.fetch_add(visits, std::memory_order_relaxed);
  shards_pruned_.fetch_add(pruned, std::memory_order_relaxed);
  if (record != nullptr) {
    record->visits += visits;
    record->pruned += pruned;
    for (size_t j = 0; j < eligible.size(); ++j) {
      ShardContrib& contrib = record->shards[eligible[j]];
      contrib.visited = true;
      contrib.filter_ms += filter_ms[j];
      contrib.init_ms += build_ms[j];
      contrib.candidates += parts[j].size();
    }
  }
  return result;
}

}  // namespace pverify
