#include "engine/sharded_engine.h"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/check.h"
#include "common/timer.h"
#include "core/candidate.h"
#include "core/scratch.h"
#include "spatial/filter.h"

namespace pverify {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

// ------------------------------------------------------------------------
// Scatter/gather policies. Each supplies the kind-specific pieces of the
// one ScatterGather driver below:
//
//   using Local = ...;                per-shard local filter result
//   k                                 pruning rank of the gathered set
//   static bool HasData(shard)        does the shard participate at all
//   double MinDist(shard)             bounds metric: picks the home shard
//                                     and is checked against cap and cut
//   Local LocalFilter(shard)          the shard's local filter
//   double Cap(home_local, shards)    upper bound on the global cut
//   double GlobalCut(locals)          exact global cut from the locals
//   bool Survives(shard, cut)         phase-2 shard recheck
//   void AddSurvivors(shard, local, cut, candidates, arena)
//   QueryResult Finish(candidates, scratch, filter_ms, build_ms, total)
// ------------------------------------------------------------------------

/// Point C-PNN scatter, generic over dimensionality. The cap is the home
/// shard's local f_min: the global f_min is at most it, so a shard whose
/// bounds MINDIST exceeds it can neither lower f_min nor hold a candidate.
/// The global f_min is the min of the local ones (each local f_min is an
/// exact min over that shard's entries), so the phase-2 per-object
/// predicate reproduces the unsharded filter's cut bit for bit.
template <int Dim>
struct ShardedQueryEngine::PointScatterPolicy {
  static_assert(Dim == 1 || Dim == 2, "point scatter is 1-D or 2-D");
  using Point = std::conditional_t<Dim == 1, double, Point2>;
  using Local = FilterResult;
  static constexpr int k = 1;

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

  Local LocalFilter(const Shard& shard) const {
    if constexpr (Dim == 1) {
      return shard.executor->Filter(q);
    } else {
      return shard.executor2d->Filter(q);
    }
  }

  double Cap(const Local& home, const std::vector<Shard>&) const {
    return home.fmin;
  }

  double GlobalCut(const std::vector<Local>& locals) const {
    double fmin = kInf;
    for (const Local& fr : locals) fmin = std::min(fmin, fr.fmin);
    return fmin;
  }

  bool Survives(const Shard& shard, double cut) const {
    return MinDist(shard) <= cut + kFilterBoundarySlack;
  }

  void AddSurvivors(const Shard& shard, const Local& local, double cut,
                    CandidateSet* candidates, CandidateArena* arena) const {
    if constexpr (Dim == 1) {
      const Dataset& objects = shard.executor->dataset();
      for (uint32_t idx : local.candidates) {
        const UncertainObject& obj = objects[idx];
        if (MakeInterval(obj.lo(), obj.hi()).MinDist({q}) <=
            cut + kFilterBoundarySlack) {
          candidates->Add1D(obj, q, arena);
        }
      }
    } else {
      const Dataset2D& objects = shard.executor2d->dataset();
      for (uint32_t idx : local.candidates) {
        const UncertainObject2D& obj = objects[idx];
        if (obj.MinDist(q) <= cut + kFilterBoundarySlack) {
          candidates->Add2D(obj, q, kRadialPieces, arena);
        }
      }
    }
  }

  QueryResult Finish(CandidateSet&& candidates, QueryScratch* scratch,
                     double filter_ms, double build_ms,
                     const Timer& total) const {
    QueryAnswer answer =
        ExecuteOnCandidates(std::move(candidates), options, scratch);
    answer.stats.filter_ms = filter_ms;
    answer.stats.init_ms += build_ms;
    answer.stats.dataset_size =
        Dim == 1 ? engine.total_objects_ : engine.total_objects2d_;
    answer.stats.total_ms = total.ElapsedMs();
    return ToQueryResult(std::move(answer));
  }
};

/// Constrained k-NN scatter, generic over dimensionality. The cap is the
/// home shard's k-th far point when it holds at least k objects (the global
/// k-th far point is at most it); otherwise shards are walked by ascending
/// bounds MAXDIST until they cover k objects, and that MAXDIST is the cap.
/// Either way shards whose bounds MINDIST exceeds the cap hold none of the
/// k smallest far points and no candidates. Each shard runs its executor's
/// indexed k-NN filter. Its candidates include every object whose far point
/// is within the shard's k-th far point, so they hold each of the global k
/// smallest far points (each lives in its shard's local top k), and the
/// k-th smallest far point over all local candidates equals the unsharded
/// filter's f^(k) exactly. That global cut is at most every local one, so
/// phase 2 re-cuts each shard's local candidates with the same per-object
/// arithmetic.
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
      return shard.executor->dataset();
    } else {
      return shard.executor2d->dataset();
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

  double Cap(const Local& home, const std::vector<Shard>& shards) const {
    if (home.fars.size() >= static_cast<size_t>(k)) return home.fmin;
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
      return shard.executor->FilterK(q, k);
    } else {
      return shard.executor2d->FilterK(q, k);
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

  void AddSurvivors(const Shard& shard, const Local& local, double cut,
                    CandidateSet* candidates, CandidateArena* arena) const {
    for (size_t i = 0; i < local.candidates.size(); ++i) {
      if (local.nears[i] > cut + kFilterBoundarySlack) continue;
      const auto& obj = Objects(shard)[local.candidates[i]];
      if constexpr (Dim == 1) {
        candidates->Add1D(obj, q, arena);
      } else {
        candidates->Add2D(obj, q, kRadialPieces, arena);
      }
    }
  }

  QueryResult Finish(CandidateSet&& candidates, QueryScratch* scratch,
                     double filter_ms, double build_ms,
                     const Timer& total) const {
    CknnAnswer answer =
        EvaluateCknn(candidates, k, options.params, options.integration);
    if (scratch != nullptr) scratch->candidates.Recycle(std::move(candidates));

    QueryResult result;
    result.stats.total_ms = total.ElapsedMs();
    result.stats.filter_ms = filter_ms;
    result.stats.init_ms = build_ms;
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
    : scratches_(options.num_threads == 0
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
  const RangeShardingPolicy policy =
      options.policy != nullptr ? *options.policy
      : !dataset.empty()        ? RangeShardingPolicy::ForDataset(dataset)
                                : RangeShardingPolicy::ForDataset2D(dataset2d);
  const size_t num_shards = std::max<size_t>(1, options.num_shards);
  std::vector<Dataset> parts = PartitionDataset(dataset, num_shards, policy);
  std::vector<Dataset2D> parts2d =
      PartitionDataset2D(dataset2d, num_shards, policy);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    Shard shard;
    shard.bounds = ComputeDomainBounds(parts[s]);
    shard.bounds2d = ComputeShardBounds2D(parts2d[s]);
    shard.executor = std::make_unique<const CpnnExecutor>(std::move(parts[s]));
    if (has_2d_) {
      shard.executor2d =
          std::make_unique<const CpnnExecutor2D>(std::move(parts2d[s]));
    }
    shards_.push_back(std::move(shard));
  }
}

ShardedQueryEngine::~ShardedQueryEngine() = default;

QueryResult ShardedQueryEngine::Execute(QueryRequest request) {
  Validate(request);
  return scratches_.OnCaller([&](QueryScratch* scratch) {
    return ExecuteOne(std::move(request), scratch);
  });
}

std::vector<QueryResult> ShardedQueryEngine::ExecuteBatch(
    std::vector<QueryRequest> requests, EngineStats* stats) {
  for (const QueryRequest& request : requests) Validate(request);
  std::vector<QueryResult> results(requests.size());
  Timer wall;
  // Requests fan out over the pool; each one scatters over its shards on
  // the worker that runs it.
  pool_.ParallelFor(requests.size(), [&](size_t worker, size_t index) {
    results[index] = scratches_.OnWorker(worker, [&](QueryScratch* scratch) {
      return ExecuteOne(std::move(requests[index]), scratch);
    });
  });
  if (stats != nullptr) {
    *stats = EngineStats{};
    stats->threads = pool_.size();
    stats->wall_ms = wall.ElapsedMs();
    for (const QueryResult& r : results) AccumulateBatchResult(r.stats, stats);
  }
  return results;
}

void ShardedQueryEngine::SubmitThen(QueryRequest request,
                                    QueryCallback done) {
  if (!Admit(request, done)) return;
  // Boxed: QueryRequest is move-only and the posted task must be copyable.
  auto boxed = std::make_shared<QueryRequest>(std::move(request));
  pool_.Post([this, boxed, done = std::move(done)](size_t worker) {
    Complete(done, [&] {
      return scratches_.OnWorker(worker, [&](QueryScratch* scratch) {
        return ExecuteOne(std::move(*boxed), scratch);
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

size_t ShardedQueryEngine::ShardFilters() const {
  return shard_filters_.load(std::memory_order_relaxed);
}

size_t ShardedQueryEngine::ScratchQueriesServed() const {
  return scratches_.QueriesServed();
}

size_t ShardedQueryEngine::ScratchBytes() const { return scratches_.Bytes(); }

QueryResult ShardedQueryEngine::ExecuteOne(QueryRequest&& request,
                                           QueryScratch* scratch) {
  return std::visit(
      [&](auto&& payload) { return Run(std::move(payload), scratch); },
      std::move(request.query));
}

QueryResult ShardedQueryEngine::Run(PointQuery&& q, QueryScratch* scratch) {
  PointScatterPolicy<1> policy{*this, q.q, q.options};
  return ScatterGather(policy, scratch);
}

QueryResult ShardedQueryEngine::Run(MinQuery&& q, QueryScratch* scratch) {
  // The global domain makes this bit-identical to the unsharded executor's
  // virtual query point (per-shard domains would not be).
  PointScatterPolicy<1> policy{*this, domain_lo_ - 1.0, q.options};
  return ScatterGather(policy, scratch);
}

QueryResult ShardedQueryEngine::Run(MaxQuery&& q, QueryScratch* scratch) {
  PointScatterPolicy<1> policy{*this, domain_hi_ + 1.0, q.options};
  return ScatterGather(policy, scratch);
}

QueryResult ShardedQueryEngine::Run(KnnQuery&& q, QueryScratch* scratch) {
  KnnScatterPolicy<1> policy(*this, q.q, q.k, q.options);
  return ScatterGather(policy, scratch);
}

QueryResult ShardedQueryEngine::Run(CandidatesQuery&& q,
                                    QueryScratch* scratch) {
  // The payload already is the gathered candidate set — no scatter.
  // TakeCandidates throws on a consumed (re-submitted) request.
  return ToQueryResult(
      ExecuteOnCandidates(q.TakeCandidates(), q.options, scratch));
}

QueryResult ShardedQueryEngine::Run(Point2DQuery&& q, QueryScratch* scratch) {
  PV_CHECK_MSG(has_2d_,
               "Point2DQuery on an engine without a 2-D dataset");
  PointScatterPolicy<2> policy{*this, q.q, q.options};
  return ScatterGather(policy, scratch);
}

QueryResult ShardedQueryEngine::Run(Knn2DQuery&& q, QueryScratch* scratch) {
  PV_CHECK_MSG(has_2d_, "Knn2DQuery on an engine without a 2-D dataset");
  KnnScatterPolicy<2> policy(*this, q.q, q.k, q.options);
  return ScatterGather(policy, scratch);
}

template <typename Policy>
QueryResult ShardedQueryEngine::ScatterGather(Policy& policy,
                                              QueryScratch* scratch) {
  Timer total;
  // The home shard: data and the smallest bounds MINDIST to q (ties go to
  // the lowest index).
  size_t home = shards_.size();
  double home_dist = kInf;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!Policy::HasData(shards_[i])) continue;
    const double dist = policy.MinDist(shards_[i]);
    if (home == shards_.size() || dist < home_dist) {
      home = i;
      home_dist = dist;
    }
  }

  // Phase 1: the home shard's local filter caps the reachable cut; only
  // the other shards whose bounds MINDIST is within the cap are filtered.
  // Every phase runs here, on the calling thread: a local filter costs a
  // few microseconds, less than waking a pool worker would.
  Timer phase;
  std::vector<size_t> filtered;
  std::vector<typename Policy::Local> locals;
  size_t pruned = 0;
  if (home < shards_.size()) {
    filtered.push_back(home);
    locals.push_back(policy.LocalFilter(shards_[home]));
    const double cap = policy.Cap(locals.front(), shards_);
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (i == home || !Policy::HasData(shards_[i])) continue;
      if (policy.MinDist(shards_[i]) <= cap + kFilterBoundarySlack) {
        filtered.push_back(i);
        locals.push_back(policy.LocalFilter(shards_[i]));
      } else {
        ++pruned;
      }
    }
  }
  const double filter_ms = phase.ElapsedMs();
  // The exact global cut recovered from the locals (f_min for point
  // queries, the k-th far point for k-NN).
  const double cut = policy.GlobalCut(locals);

  // Phase 2: shards surviving the now-exact cut add their objects within it
  // to one candidate set, built in the caller's scratch arena. Its
  // construction order-normalizes by (near point, id), so the shard order
  // is irrelevant and the set equals the unsharded Build1D / Build2D one.
  phase.Restart();
  CandidateArena* arena = scratch != nullptr ? &scratch->candidates : nullptr;
  CandidateSet candidates = CandidateSet::Begin(arena);
  size_t visits = 0;
  for (size_t j = 0; j < filtered.size(); ++j) {
    const Shard& shard = shards_[filtered[j]];
    if (!policy.Survives(shard, cut)) {
      ++pruned;
      continue;
    }
    ++visits;
    policy.AddSurvivors(shard, locals[j], cut, &candidates, arena);
  }
  candidates.Finish(policy.k, arena);
  const double build_ms = phase.ElapsedMs();

  QueryResult result = policy.Finish(std::move(candidates), scratch,
                                     filter_ms, build_ms, total);
  shard_visits_.fetch_add(visits, std::memory_order_relaxed);
  shards_pruned_.fetch_add(pruned, std::memory_order_relaxed);
  shard_filters_.fetch_add(filtered.size(), std::memory_order_relaxed);
  return result;
}

}  // namespace pverify
