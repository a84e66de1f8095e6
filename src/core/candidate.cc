#include "core/candidate.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace pverify {

DistanceDistribution CandidateArena::TakeDistribution() {
  ++pending_takes;
  if (spare.empty()) return DistanceDistribution();
  // spare is sorted by ascending capacity, so the back is the largest.
  DistanceDistribution dist = std::move(spare.back());
  spare.pop_back();
  return dist;
}

void CandidateArena::RecycleDistribution(DistanceDistribution&& dist) {
  if (spare.size() < spare_cap) spare.push_back(std::move(dist));
}

void CandidateArena::Recycle(CandidateSet&& set) {
  spare_cap = std::max(spare_cap, pending_takes);
  pending_takes = 0;
  std::vector<Candidate>& recycled = set.items();
  for (Candidate& c : recycled) {
    if (spare.size() >= spare_cap) break;
    spare.push_back(std::move(c.dist));
  }
  recycled.clear();
  if (recycled.capacity() > items.capacity()) items = std::move(recycled);
  std::sort(spare.begin(), spare.end(),
            [](const DistanceDistribution& a, const DistanceDistribution& b) {
              return a.ApproxBytes() < b.ApproxBytes();
            });
}

size_t CandidateArena::ApproxBytes() const {
  size_t total =
      items.capacity() * sizeof(Candidate) +
      spare.capacity() * sizeof(DistanceDistribution) +
      (work_breaks.capacity() + work_values.capacity() +
       work_cuts.capacity() + work_fars.capacity()) * sizeof(double);
  for (const DistanceDistribution& d : spare) total += d.ApproxBytes();
  return total;
}

CandidateSet CandidateSet::Begin(CandidateArena* arena) {
  CandidateSet set;
  if (arena != nullptr) {
    set.items_ = std::move(arena->items);
    set.items_.clear();
  }
  return set;
}

void CandidateSet::Add1D(const UncertainObject& obj, double q,
                         CandidateArena* arena) {
  Candidate& c = items_.emplace_back();
  c.id = obj.id();
  if (arena != nullptr) {
    c.dist = arena->TakeDistribution();
    DistanceDistribution::From1DInto(obj.pdf(), q, &c.dist,
                                     arena->work_breaks, arena->work_values);
  } else {
    c.dist = DistanceDistribution::From1D(obj.pdf(), q);
  }
}

void CandidateSet::Add2D(const UncertainObject2D& obj, Point2 q,
                         int radial_pieces, CandidateArena* arena) {
  Candidate& c = items_.emplace_back();
  c.id = obj.id();
  if (arena != nullptr) {
    c.dist = arena->TakeDistribution();
    MakeDistanceDistribution2DInto(obj, q, radial_pieces, &c.dist,
                                   arena->work_breaks, arena->work_values,
                                   &arena->work_cuts);
  } else {
    c.dist = MakeDistanceDistribution2D(obj, q, radial_pieces);
  }
}

CandidateSet CandidateSet::Build1D(
    const Dataset& dataset, const std::vector<uint32_t>& candidate_indices,
    double q, int k, CandidateArena* arena) {
  CandidateSet set = Begin(arena);
  set.items_.reserve(candidate_indices.size());
  for (uint32_t idx : candidate_indices) {
    PV_CHECK_MSG(idx < dataset.size(), "candidate index out of range");
    set.Add1D(dataset[idx], q, arena);
  }
  set.Finish(k, arena);
  return set;
}

CandidateSet CandidateSet::Build2D(
    const Dataset2D& dataset, const std::vector<uint32_t>& candidate_indices,
    Point2 q, int radial_pieces, int k, CandidateArena* arena) {
  CandidateSet set = Begin(arena);
  set.items_.reserve(candidate_indices.size());
  for (uint32_t idx : candidate_indices) {
    PV_CHECK_MSG(idx < dataset.size(), "candidate index out of range");
    set.Add2D(dataset[idx], q, radial_pieces, arena);
  }
  set.Finish(k, arena);
  return set;
}

CandidateSet CandidateSet::FromDistances(
    std::vector<std::pair<ObjectId, DistanceDistribution>> dists, int k) {
  CandidateSet set;
  set.items_.reserve(dists.size());
  for (auto& [id, dist] : dists) {
    Candidate c;
    c.id = id;
    c.dist = std::move(dist);
    set.items_.push_back(std::move(c));
  }
  set.Finish(k);
  return set;
}

void CandidateSet::Finish(int k, CandidateArena* arena) {
  PV_CHECK_MSG(k >= 1, "k must be positive");
  if (items_.empty()) {
    fmin_ = std::numeric_limits<double>::infinity();
    fmax_ = -std::numeric_limits<double>::infinity();
    return;
  }
  double fmin = std::numeric_limits<double>::infinity();
  for (const Candidate& c : items_) fmin = std::min(fmin, c.dist.far());
  // Prune objects whose near point lies beyond the k-th smallest far point:
  // they provably have zero k-NN qualification probability. For k = 1 this
  // is the paper's f_min rule that the verifier math assumes.
  double fprune = fmin;
  if (k > 1 && static_cast<size_t>(k) <= items_.size()) {
    std::vector<double> local_fars;
    std::vector<double>& fars =
        arena != nullptr ? arena->work_fars : local_fars;
    fars.clear();
    fars.reserve(items_.size());
    for (const Candidate& c : items_) fars.push_back(c.dist.far());
    std::nth_element(fars.begin(), fars.begin() + (k - 1), fars.end());
    fprune = fars[k - 1];
  } else if (static_cast<size_t>(k) > items_.size()) {
    fprune = std::numeric_limits<double>::infinity();
  }
  // Stable compaction (same order remove_if/erase would keep); pruned
  // candidates hand their distribution storage back to the arena.
  size_t kept = 0;
  for (size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].dist.near() > fprune + 1e-12) {
      if (arena != nullptr) {
        arena->RecycleDistribution(std::move(items_[i].dist));
      }
      continue;
    }
    if (kept != i) items_[kept] = std::move(items_[i]);
    ++kept;
  }
  items_.resize(kept);
  std::sort(items_.begin(), items_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.dist.near() != b.dist.near()) {
                return a.dist.near() < b.dist.near();
              }
              return a.id < b.id;
            });
  fmin_ = fmin;
  fmax_ = -std::numeric_limits<double>::infinity();
  for (const Candidate& c : items_) fmax_ = std::max(fmax_, c.dist.far());
}

std::vector<ObjectId> CandidateSet::SatisfyingIds() const {
  std::vector<ObjectId> ids;
  for (const Candidate& c : items_) {
    if (c.label == Label::kSatisfy) ids.push_back(c.id);
  }
  return ids;
}

}  // namespace pverify
