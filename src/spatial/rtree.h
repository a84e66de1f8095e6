// An in-memory R-tree supporting dynamic insertion (quadratic split) and STR
// bulk loading, with the branch-and-bound searches required by the PNN
// filtering phase of [8]: computing f_min = min_i MAXDIST(q, X_i) and
// collecting every object whose MINDIST is within f_min.
//
// The tree is templated on dimensionality and the leaf payload type so the
// same implementation indexes 1-D uncertainty intervals (the paper's focus)
// and 2-D regions (the extension).
#ifndef PVERIFY_SPATIAL_RTREE_H_
#define PVERIFY_SPATIAL_RTREE_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"
#include "spatial/mbr.h"

namespace pverify {

template <int Dim, typename Value>
class RTree {
 public:
  static constexpr size_t kMaxEntries = 16;
  static constexpr size_t kMinEntries = 6;  // ~40% fill on splits

  struct Entry {
    Mbr<Dim> mbr;
    Value value;
  };

  RTree() = default;

  /// Inserts one entry (R-tree dynamic insertion with quadratic split).
  void Insert(const Mbr<Dim>& mbr, Value value) {
    if (!root_) {
      root_ = std::make_unique<Node>(/*leaf=*/true);
    }
    Node* leaf = ChooseLeaf(root_.get(), mbr);
    leaf->entries.push_back(Entry{mbr, std::move(value)});
    leaf->mbr.Expand(mbr);
    HandleOverflow(leaf);
    ++size_;
  }

  /// Sort-Tile-Recursive bulk load; replaces any existing content.
  static RTree BulkLoadSTR(std::vector<Entry> entries) {
    RTree tree;
    tree.size_ = entries.size();
    if (entries.empty()) return tree;

    // Pack leaves level by level until one node remains.
    std::vector<std::unique_ptr<Node>> level =
        PackLeaves(std::move(entries));
    while (level.size() > 1) {
      level = PackInternal(std::move(level));
    }
    tree.root_ = std::move(level.front());
    return tree;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Tree height (0 for an empty tree, 1 for a single leaf).
  int Height() const {
    int h = 0;
    for (const Node* n = root_.get(); n != nullptr;
         n = n->leaf ? nullptr : n->children.front().get()) {
      ++h;
    }
    return h;
  }

  /// Number of nodes (for structure diagnostics/tests).
  size_t NodeCount() const { return root_ ? CountNodes(root_.get()) : 0; }

  /// Invokes fn(mbr, value) for every entry intersecting `region`.
  void ForEachIntersecting(
      const Mbr<Dim>& region,
      const std::function<void(const Mbr<Dim>&, const Value&)>& fn) const {
    if (root_) ForEachIntersectingImpl(root_.get(), region, fn);
  }

  /// Collects the payloads of all entries intersecting `region`.
  std::vector<Value> CollectIntersecting(const Mbr<Dim>& region) const {
    std::vector<Value> out;
    ForEachIntersecting(region, [&out](const Mbr<Dim>&, const Value& v) {
      out.push_back(v);
    });
    return out;
  }

  /// Branch-and-bound computation of min over entries of MAXDIST(q, entry).
  /// This is the f_min of the PNN filtering step: the far point of the
  /// candidate whose far point is smallest. Returns +inf on an empty tree.
  ///
  /// Note on bounds: leaf entries store the exact uncertainty region, so
  /// their MAXDIST is exact. For internal nodes, every object inside lies
  /// within the node MBR, hence MAXDIST(q, node) upper-bounds the best far
  /// point below it (the point-data MINMAXDIST bound does NOT apply to
  /// extended objects and is deliberately not used here).
  double MinFarPoint(const std::array<double, Dim>& q) const {
    double best = std::numeric_limits<double>::infinity();
    if (!root_) return best;
    using Item = std::pair<double, const Node*>;  // (mindist, node)
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    heap.emplace(root_->mbr.MinDist(q), root_.get());
    while (!heap.empty()) {
      auto [mind, node] = heap.top();
      heap.pop();
      if (mind > best) continue;  // no entry below can beat best
      if (node->leaf) {
        for (const Entry& e : node->entries) {
          best = std::min(best, e.mbr.MaxDist(q));
        }
      } else {
        for (const auto& child : node->children) {
          best = std::min(best, child->mbr.MaxDist(q));
          double child_mind = child->mbr.MinDist(q);
          if (child_mind <= best) heap.emplace(child_mind, child.get());
        }
      }
    }
    return best;
  }

  /// Entries whose MINDIST(q, entry) <= radius, i.e. the ball-overlap query
  /// used to retrieve the PNN candidate set.
  std::vector<Value> WithinDistance(const std::array<double, Dim>& q,
                                    double radius) const {
    std::vector<Value> out;
    if (!root_) return out;
    std::vector<const Node*> stack = {root_.get()};
    while (!stack.empty()) {
      const Node* node = stack.back();
      stack.pop_back();
      if (node->mbr.MinDist(q) > radius) continue;
      if (node->leaf) {
        for (const Entry& e : node->entries) {
          if (e.mbr.MinDist(q) <= radius) out.push_back(e.value);
        }
      } else {
        for (const auto& child : node->children) {
          stack.push_back(child.get());
        }
      }
    }
    return out;
  }

  /// k nearest entries by MINDIST (best-first). Ties broken arbitrarily.
  std::vector<Value> NearestByMinDist(const std::array<double, Dim>& q,
                                      size_t k) const {
    std::vector<Value> out;
    if (!root_ || k == 0) return out;
    struct Item {
      double dist;
      const Node* node;   // nullptr when this is an entry
      const Entry* entry;
      bool operator>(const Item& o) const { return dist > o.dist; }
    };
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    heap.push({root_->mbr.MinDist(q), root_.get(), nullptr});
    while (!heap.empty() && out.size() < k) {
      Item item = heap.top();
      heap.pop();
      if (item.entry != nullptr) {
        out.push_back(item.entry->value);
      } else if (item.node->leaf) {
        for (const Entry& e : item.node->entries) {
          heap.push({e.mbr.MinDist(q), nullptr, &e});
        }
      } else {
        for (const auto& child : item.node->children) {
          heap.push({child->mbr.MinDist(q), child.get(), nullptr});
        }
      }
    }
    return out;
  }

  /// Verifies structural invariants (MBR containment, fanout bounds, uniform
  /// leaf depth); used by tests. Returns false on violation.
  bool CheckInvariants() const {
    if (!root_) return true;
    int leaf_depth = -1;
    return CheckNode(root_.get(), 0, &leaf_depth, /*is_root=*/true);
  }

 private:
  struct Node {
    explicit Node(bool is_leaf) : leaf(is_leaf) { mbr = Mbr<Dim>::Empty(); }
    bool leaf;
    Mbr<Dim> mbr;
    std::vector<Entry> entries;                   // leaf payloads
    std::vector<std::unique_ptr<Node>> children;  // internal children
    Node* parent = nullptr;

    size_t Fanout() const { return leaf ? entries.size() : children.size(); }

    void RecomputeMbr() {
      mbr = Mbr<Dim>::Empty();
      if (leaf) {
        for (const Entry& e : entries) mbr.Expand(e.mbr);
      } else {
        for (const auto& c : children) mbr.Expand(c->mbr);
      }
    }
  };

  Node* ChooseLeaf(Node* node, const Mbr<Dim>& mbr) {
    while (!node->leaf) {
      Node* best = nullptr;
      double best_enl = std::numeric_limits<double>::infinity();
      double best_vol = std::numeric_limits<double>::infinity();
      for (const auto& child : node->children) {
        double enl = child->mbr.Enlargement(mbr);
        double vol = child->mbr.Volume();
        if (enl < best_enl || (enl == best_enl && vol < best_vol)) {
          best = child.get();
          best_enl = enl;
          best_vol = vol;
        }
      }
      best->mbr.Expand(mbr);
      node = best;
    }
    return node;
  }

  void HandleOverflow(Node* node) {
    while (node != nullptr && node->Fanout() > kMaxEntries) {
      Node* sibling = SplitNode(node);
      Node* parent = node->parent;
      if (parent == nullptr) {
        // Grow a new root.
        auto new_root = std::make_unique<Node>(/*leaf=*/false);
        auto old_root = std::move(root_);
        old_root->parent = new_root.get();
        sibling->parent = new_root.get();
        new_root->children.push_back(std::move(old_root));
        new_root->children.emplace_back(sibling);
        new_root->RecomputeMbr();
        root_ = std::move(new_root);
        return;
      }
      sibling->parent = parent;
      parent->children.emplace_back(sibling);
      parent->RecomputeMbr();
      node = parent;
    }
    // Refresh ancestor MBRs.
    while (node != nullptr) {
      node->RecomputeMbr();
      node = node->parent;
    }
  }

  // Quadratic split (Guttman). Returns the newly allocated sibling; the
  // caller owns the raw pointer and must attach it to a parent.
  Node* SplitNode(Node* node) {
    Node* sibling = new Node(node->leaf);

    auto mbr_of = [&](size_t i) -> const Mbr<Dim>& {
      return node->leaf ? node->entries[i].mbr : node->children[i]->mbr;
    };
    const size_t n = node->Fanout();
    // Only overflowing nodes split, so both seeds and both groups' minimum
    // fills exist.
    PV_CHECK_MSG(n > kMaxEntries, "split of a node that does not overflow");

    // Pick the pair of seeds wasting the most volume.
    size_t seed_a = 0, seed_b = 1;
    double worst = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        Mbr<Dim> merged = mbr_of(i);
        merged.Expand(mbr_of(j));
        double waste =
            merged.Volume() - mbr_of(i).Volume() - mbr_of(j).Volume();
        if (waste > worst) {
          worst = waste;
          seed_a = i;
          seed_b = j;
        }
      }
    }

    std::vector<char> assigned(n, 0);  // 0 = pending, 1 = stay, 2 = sibling
    assigned[seed_a] = 1;
    assigned[seed_b] = 2;
    Mbr<Dim> group_a = mbr_of(seed_a);
    Mbr<Dim> group_b = mbr_of(seed_b);
    size_t count_a = 1, count_b = 1;
    size_t pending = n - 2;

    while (pending > 0) {
      // Force-assign when one group must take everything left to reach the
      // minimum fill.
      if (count_a + pending == kMinEntries) {
        for (size_t i = 0; i < n; ++i) {
          if (!assigned[i]) {
            assigned[i] = 1;
            group_a.Expand(mbr_of(i));
          }
        }
        break;
      }
      if (count_b + pending == kMinEntries) {
        for (size_t i = 0; i < n; ++i) {
          if (!assigned[i]) {
            assigned[i] = 2;
            group_b.Expand(mbr_of(i));
          }
        }
        break;
      }
      // Pick the pending item with the greatest preference difference.
      size_t pick = n;
      double best_diff = -1.0;
      double enl_a_pick = 0.0, enl_b_pick = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (assigned[i]) continue;
        double ea = group_a.Enlargement(mbr_of(i));
        double eb = group_b.Enlargement(mbr_of(i));
        double diff = std::abs(ea - eb);
        if (diff > best_diff) {
          best_diff = diff;
          pick = i;
          enl_a_pick = ea;
          enl_b_pick = eb;
        }
      }
      PV_DCHECK(pick < n);
      bool to_a;
      if (enl_a_pick != enl_b_pick) {
        to_a = enl_a_pick < enl_b_pick;
      } else if (group_a.Volume() != group_b.Volume()) {
        to_a = group_a.Volume() < group_b.Volume();
      } else {
        to_a = count_a <= count_b;
      }
      assigned[pick] = to_a ? 1 : 2;
      if (to_a) {
        group_a.Expand(mbr_of(pick));
        ++count_a;
      } else {
        group_b.Expand(mbr_of(pick));
        ++count_b;
      }
      --pending;
    }

    // Move group-2 members into the sibling.
    if (node->leaf) {
      std::vector<Entry> keep;
      keep.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (assigned[i] == 2) {
          sibling->entries.push_back(std::move(node->entries[i]));
        } else {
          keep.push_back(std::move(node->entries[i]));
        }
      }
      node->entries = std::move(keep);
    } else {
      std::vector<std::unique_ptr<Node>> keep;
      keep.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (assigned[i] == 2) {
          node->children[i]->parent = sibling;
          sibling->children.push_back(std::move(node->children[i]));
        } else {
          keep.push_back(std::move(node->children[i]));
        }
      }
      node->children = std::move(keep);
    }
    node->RecomputeMbr();
    sibling->RecomputeMbr();
    return sibling;
  }

  // --- STR bulk loading -----------------------------------------------

  template <typename Item>
  static void StrSort(std::vector<Item>& items,
                      const std::function<Mbr<Dim>(const Item&)>& mbr_of) {
    auto center = [&mbr_of](const Item& it, int d) {
      Mbr<Dim> m = mbr_of(it);
      return 0.5 * (m.lo[d] + m.hi[d]);
    };
    std::sort(items.begin(), items.end(),
              [&](const Item& a, const Item& b) {
                return center(a, 0) < center(b, 0);
              });
    if constexpr (Dim >= 2) {
      // Tile along x, sort tiles along y.
      size_t n = items.size();
      size_t per_node = kMaxEntries;
      size_t num_nodes = (n + per_node - 1) / per_node;
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

  static std::vector<std::unique_ptr<Node>> PackLeaves(
      std::vector<Entry> entries) {
    std::function<Mbr<Dim>(const Entry&)> mbr_of =
        [](const Entry& e) { return e.mbr; };
    StrSort(entries, mbr_of);
    std::vector<std::unique_ptr<Node>> leaves;
    for (size_t i = 0; i < entries.size(); i += kMaxEntries) {
      auto leaf = std::make_unique<Node>(/*leaf=*/true);
      size_t end = std::min(entries.size(), i + kMaxEntries);
      for (size_t j = i; j < end; ++j) {
        leaf->entries.push_back(std::move(entries[j]));
      }
      leaf->RecomputeMbr();
      leaves.push_back(std::move(leaf));
    }
    return leaves;
  }

  static std::vector<std::unique_ptr<Node>> PackInternal(
      std::vector<std::unique_ptr<Node>> level) {
    std::function<Mbr<Dim>(const std::unique_ptr<Node>&)> mbr_of =
        [](const std::unique_ptr<Node>& n) { return n->mbr; };
    StrSort(level, mbr_of);
    std::vector<std::unique_ptr<Node>> parents;
    for (size_t i = 0; i < level.size(); i += kMaxEntries) {
      auto parent = std::make_unique<Node>(/*leaf=*/false);
      size_t end = std::min(level.size(), i + kMaxEntries);
      for (size_t j = i; j < end; ++j) {
        level[j]->parent = parent.get();
        parent->children.push_back(std::move(level[j]));
      }
      parent->RecomputeMbr();
      parents.push_back(std::move(parent));
    }
    return parents;
  }

  // --- misc --------------------------------------------------------------

  static void ForEachIntersectingImpl(
      const Node* node, const Mbr<Dim>& region,
      const std::function<void(const Mbr<Dim>&, const Value&)>& fn) {
    if (!node->mbr.Intersects(region)) return;
    if (node->leaf) {
      for (const Entry& e : node->entries) {
        if (e.mbr.Intersects(region)) fn(e.mbr, e.value);
      }
    } else {
      for (const auto& child : node->children) {
        ForEachIntersectingImpl(child.get(), region, fn);
      }
    }
  }

  static size_t CountNodes(const Node* node) {
    size_t n = 1;
    if (!node->leaf) {
      for (const auto& c : node->children) n += CountNodes(c.get());
    }
    return n;
  }

  bool CheckNode(const Node* node, int depth, int* leaf_depth,
                 bool is_root) const {
    if (node->Fanout() > kMaxEntries) return false;
    if (!is_root && node->Fanout() < 1) return false;
    if (node->leaf) {
      if (*leaf_depth == -1) *leaf_depth = depth;
      if (*leaf_depth != depth) return false;
      Mbr<Dim> agg = Mbr<Dim>::Empty();
      for (const Entry& e : node->entries) agg.Expand(e.mbr);
      for (int d = 0; d < Dim; ++d) {
        if (agg.lo[d] < node->mbr.lo[d] - 1e-9 ||
            agg.hi[d] > node->mbr.hi[d] + 1e-9) {
          return false;
        }
      }
      return true;
    }
    for (const auto& child : node->children) {
      if (!node->mbr.Contains(child->mbr)) return false;
      if (!CheckNode(child.get(), depth + 1, leaf_depth, false)) return false;
    }
    return true;
  }

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace pverify

#endif  // PVERIFY_SPATIAL_RTREE_H_
