// A static, in-memory R-tree built once by Sort-Tile-Recursive packing
// (Leutenegger, Lopez & Edgington, ICDE 1997), with the branch-and-bound
// searches required by the PNN filtering phase of [8]: computing
// f_min = min_i MAXDIST(q, X_i) and collecting every object whose MINDIST is
// within f_min.
//
// The dataset is fixed, so the tree is read-only: STR packs the levels
// bottom-up into one contiguous node array. A leaf indexes a range of the
// entry array and an internal node a range of the level below, so there are
// no per-node heap objects and no parent pointers. Each entry's payload is a
// uint32_t index into the caller's dataset. The tree is templated on
// dimensionality so the same implementation indexes 1-D uncertainty
// intervals (the paper's focus) and 2-D regions (the extension).
#ifndef PVERIFY_SPATIAL_RTREE_H_
#define PVERIFY_SPATIAL_RTREE_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "common/check.h"
#include "spatial/mbr.h"

namespace pverify {

template <int Dim>
class RTree {
 public:
  static constexpr size_t kMaxEntries = 16;
  /// Levels of a full tree over 2^32 entries at fanout 16; uint32_t entry
  /// indices make this the height bound.
  static constexpr int kMaxHeight = 8;

  struct Entry {
    Mbr<Dim> mbr;
    uint32_t value;
  };

  RTree() = default;

  /// Sort-Tile-Recursive bulk load: sort by MBR centre (in 2-D, slice by x
  /// and sort each slice by y), pack runs of kMaxEntries into leaves, and
  /// repeat on each level until one node remains.
  static RTree BulkLoadSTR(std::vector<Entry> entries) {
    PV_CHECK_MSG(entries.size() <= std::numeric_limits<uint32_t>::max(),
                 "an R-tree indexes at most 2^32 - 1 entries");
    RTree tree;
    if (entries.empty()) return tree;
    StrSort(entries);
    tree.entries_ = std::move(entries);
    std::vector<Node> level = PackRuns(tree.entries_, 0);
    tree.leaf_count_ = level.size();
    tree.height_ = 1;
    while (level.size() > 1) {
      StrSort(level);
      const size_t base = tree.nodes_.size();
      tree.nodes_.insert(tree.nodes_.end(), level.begin(), level.end());
      level = PackRuns(level, base);
      ++tree.height_;
    }
    tree.nodes_.push_back(level.front());  // the root, last
    return tree;
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Tree height (0 for an empty tree, 1 for a single leaf).
  int Height() const { return height_; }

  /// Number of nodes (for structure diagnostics/tests).
  size_t NodeCount() const { return nodes_.size(); }

  /// Appends to `out` the payload of every entry intersecting `region`.
  void Intersecting(const Mbr<Dim>& region, std::vector<uint32_t>* out) const {
    Collect([&region](const Mbr<Dim>& m) { return m.Intersects(region); },
            out);
  }

  /// Branch-and-bound computation of min over entries of MAXDIST(q, entry).
  /// This is the f_min of the PNN filtering step: the far point of the
  /// candidate whose far point is smallest. Returns +inf on an empty tree.
  ///
  /// Note on bounds: leaf entries store the exact uncertainty region, so
  /// their MAXDIST is exact. For internal nodes, every object inside lies
  /// within the node MBR, hence MAXDIST(q, node) upper-bounds the best far
  /// point below it (the point-data MINMAXDIST bound does NOT apply to
  /// extended objects and is deliberately not used here). The minimum is
  /// exact whatever the visiting order, so a depth-first walk over a fixed
  /// stack, nearest child first, gives the same value as a best-first one
  /// without allocating.
  double MinFarPoint(const std::array<double, Dim>& q) const {
    double best = std::numeric_limits<double>::infinity();
    if (nodes_.empty()) return best;
    struct Item {
      double mindist;
      uint32_t node;
    };
    std::array<Item, kStackCapacity> stack;
    size_t top = 0;
    stack[top++] = {nodes_.back().mbr.MinDist(q), Root()};
    while (top > 0) {
      const Item item = stack[--top];
      if (item.mindist > best) continue;  // no entry below can beat best
      const Node& node = nodes_[item.node];
      if (IsLeaf(item.node)) {
        for (uint32_t e = node.first; e < node.first + node.count; ++e) {
          best = std::min(best, entries_[e].mbr.MaxDist(q));
        }
        continue;
      }
      for (uint32_t c = node.first; c < node.first + node.count; ++c) {
        best = std::min(best, nodes_[c].mbr.MaxDist(q));
      }
      const size_t pushed = top;
      for (uint32_t c = node.first; c < node.first + node.count; ++c) {
        const double child_mind = nodes_[c].mbr.MinDist(q);
        if (child_mind <= best) stack[top++] = {child_mind, c};
      }
      // Nearest child on top: it tightens `best` before its siblings pop.
      std::sort(stack.begin() + pushed, stack.begin() + top,
                [](const Item& a, const Item& b) {
                  return a.mindist > b.mindist;
                });
    }
    return best;
  }

  /// Appends to `out` the payload of every entry whose MINDIST(q, entry) <=
  /// radius, i.e. the ball-overlap query used to retrieve the PNN candidate
  /// set. Allocates nothing beyond `out`'s growth.
  void WithinDistance(const std::array<double, Dim>& q, double radius,
                      std::vector<uint32_t>* out) const {
    Collect([&q, radius](const Mbr<Dim>& m) { return m.MinDist(q) <= radius; },
            out);
  }

  /// Appends to `out` the payloads of the k entries nearest to q by MINDIST
  /// (best-first, nearest first; ties broken arbitrarily).
  void NearestByMinDist(const std::array<double, Dim>& q, size_t k,
                        std::vector<uint32_t>* out) const {
    if (nodes_.empty() || k == 0) return;
    struct Item {
      double dist;
      uint32_t index;
      bool entry;  // index is into entries_, else into nodes_
      bool operator>(const Item& o) const { return dist > o.dist; }
    };
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    heap.push({nodes_.back().mbr.MinDist(q), Root(), false});
    size_t found = 0;
    while (!heap.empty() && found < k) {
      const Item item = heap.top();
      heap.pop();
      if (item.entry) {
        out->push_back(entries_[item.index].value);
        ++found;
        continue;
      }
      const Node& node = nodes_[item.index];
      const bool leaf = IsLeaf(item.index);
      for (uint32_t c = node.first; c < node.first + node.count; ++c) {
        const Mbr<Dim>& m = leaf ? entries_[c].mbr : nodes_[c].mbr;
        heap.push({m.MinDist(q), c, leaf});
      }
    }
  }

  /// Verifies structural invariants (fanout bounds, MBR containment,
  /// uniform leaf depth, every entry reached exactly once); used by tests.
  /// Returns false on violation.
  bool CheckInvariants() const {
    if (nodes_.empty()) return entries_.empty() && height_ == 0;
    if (height_ < 1 || height_ > kMaxHeight) return false;
    size_t reached = 0;
    return CheckNode(Root(), 1, &reached) && reached == entries_.size();
  }

 private:
  // A leaf's range indexes entries_, an internal node's indexes nodes_.
  struct Node {
    Mbr<Dim> mbr;
    uint32_t first;
    uint32_t count;
  };

  // A depth-first walk holds at most kMaxEntries - 1 unvisited siblings per
  // level below the root, plus one.
  static constexpr size_t kStackCapacity = kMaxHeight * kMaxEntries;

  uint32_t Root() const { return static_cast<uint32_t>(nodes_.size() - 1); }
  bool IsLeaf(uint32_t node) const { return node < leaf_count_; }

  // Depth-first walk over a fixed stack: descends into every node whose MBR
  // `keep` accepts and appends every accepted entry's payload.
  template <typename Keep>
  void Collect(const Keep& keep, std::vector<uint32_t>* out) const {
    if (nodes_.empty() || !keep(nodes_.back().mbr)) return;
    std::array<uint32_t, kStackCapacity> stack;
    size_t top = 0;
    stack[top++] = Root();
    while (top > 0) {
      const uint32_t index = stack[--top];
      const Node& node = nodes_[index];
      if (IsLeaf(index)) {
        for (uint32_t e = node.first; e < node.first + node.count; ++e) {
          if (keep(entries_[e].mbr)) out->push_back(entries_[e].value);
        }
        continue;
      }
      for (uint32_t c = node.first; c < node.first + node.count; ++c) {
        if (keep(nodes_[c].mbr)) stack[top++] = c;
      }
    }
  }

  // Sorts entries or nodes into STR tile order by their MBR centres.
  template <typename Item>
  static void StrSort(std::vector<Item>& items) {
    auto center = [](const Item& it, int d) {
      return 0.5 * (it.mbr.lo[d] + it.mbr.hi[d]);
    };
    std::sort(items.begin(), items.end(), [&](const Item& a, const Item& b) {
      return center(a, 0) < center(b, 0);
    });
    if constexpr (Dim >= 2) {
      // Tile along x, sort tiles along y.
      size_t n = items.size();
      size_t num_nodes = (n + kMaxEntries - 1) / kMaxEntries;
      size_t slices = static_cast<size_t>(
          std::ceil(std::sqrt(static_cast<double>(num_nodes))));
      size_t per_slice = slices == 0 ? n : (n + slices - 1) / slices;
      for (size_t s = 0; s * per_slice < n; ++s) {
        auto begin = items.begin() + static_cast<ptrdiff_t>(s * per_slice);
        auto end = items.begin() +
                   static_cast<ptrdiff_t>(std::min(n, (s + 1) * per_slice));
        std::sort(begin, end, [&](const Item& a, const Item& b) {
          return center(a, 1) < center(b, 1);
        });
      }
    }
  }

  // One parent node per run of kMaxEntries consecutive items; `base` is the
  // first item's index in its array.
  template <typename Item>
  static std::vector<Node> PackRuns(const std::vector<Item>& items,
                                    size_t base) {
    std::vector<Node> parents;
    parents.reserve((items.size() + kMaxEntries - 1) / kMaxEntries);
    for (size_t i = 0; i < items.size(); i += kMaxEntries) {
      const size_t end = std::min(items.size(), i + kMaxEntries);
      Node parent{Mbr<Dim>::Empty(), static_cast<uint32_t>(base + i),
                  static_cast<uint32_t>(end - i)};
      for (size_t j = i; j < end; ++j) parent.mbr.Expand(items[j].mbr);
      parents.push_back(parent);
    }
    return parents;
  }

  bool CheckNode(uint32_t index, int depth, size_t* reached) const {
    const Node& node = nodes_[index];
    if (node.count < 1 || node.count > kMaxEntries) return false;
    if (IsLeaf(index)) {
      if (depth != height_) return false;
      if (size_t{node.first} + node.count > entries_.size()) return false;
      for (uint32_t e = node.first; e < node.first + node.count; ++e) {
        if (!node.mbr.Contains(entries_[e].mbr)) return false;
      }
      *reached += node.count;
      return true;
    }
    if (node.first + node.count > index) return false;  // children below
    for (uint32_t c = node.first; c < node.first + node.count; ++c) {
      if (!node.mbr.Contains(nodes_[c].mbr)) return false;
      if (!CheckNode(c, depth + 1, reached)) return false;
    }
    return true;
  }

  std::vector<Entry> entries_;  // in STR order
  std::vector<Node> nodes_;     // levels bottom-up: leaves first, root last
  size_t leaf_count_ = 0;
  int height_ = 0;
};

}  // namespace pverify

#endif  // PVERIFY_SPATIAL_RTREE_H_
