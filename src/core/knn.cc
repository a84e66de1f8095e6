#include "core/knn.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/integrate.h"
#include "common/piecewise.h"
#include "core/classifier.h"

namespace pverify {
namespace {

// Poisson-binomial tails over one cdf row p[0..count): for each member m
// of a node, P[at most L of the row entries other than its own, at
// position skips[m], come up] (skips[m] == count: it has none). Each tail
// is the truncated DP with dp[t] = probability that exactly t of the
// processed entries are below r (anything beyond L is dropped), run over
// the entries in row order.
//
// The DP over the entries before a member's own is the same for every
// member behind it, so one prefix state walks the row and each member
// copies it on reaching its own entry; from then on the member's state
// takes every later entry. All started members advance together entry by
// entry, so their independent DP chains overlap instead of running one
// after another. Each state still sees its entries one by one in row
// order, with the arithmetic of one sequential DP. L = kDynamicTail sizes
// dp[] at run time; a fixed L unrolls it.
constexpr int kDynamicTail = -1;
constexpr int kMaxFixedTail = 8;

template <int L>
class TailDp {
 public:
  explicit TailDp(int limit) : limit_(L == kDynamicTail ? limit : L) {}

  // out[m] = the tail leaving out entry skips[m]; skips ascending.
  void Tails(const double* p, size_t count, const uint32_t* skips,
             size_t members, double* out) {
    const size_t rows = Rows();
    state_.resize((members + 1) * rows);
    double* prefix = state_.data() + members * rows;
    std::fill(prefix, prefix + rows, 0.0);
    prefix[0] = 1.0;
    size_t started = 0;
    for (size_t j = 0; j < count; ++j) {
      for (size_t m = 0; m < started; ++m) Step(&state_[m * rows], p[j]);
      for (; started < members && skips[started] == j; ++started) {
        std::copy(prefix, prefix + rows, &state_[started * rows]);
      }
      if (started < members) Step(prefix, p[j]);
    }
    for (; started < members; ++started) {
      std::copy(prefix, prefix + rows, &state_[started * rows]);
    }
    for (size_t m = 0; m < members; ++m) {
      double sum = 0.0;
      for (size_t t = 0; t < rows; ++t) sum += state_[m * rows + t];
      out[m] = std::min(1.0, sum);
    }
  }

 private:
  size_t Rows() const {
    return static_cast<size_t>(L == kDynamicTail ? limit_ : L) + 1;
  }

  void Step(double* dp, double pj) const {
    for (int t = static_cast<int>(Rows()) - 1; t >= 1; --t) {
      dp[t] = dp[t] * (1.0 - pj) + dp[t - 1] * pj;
    }
    dp[0] *= 1.0 - pj;
  }

  int limit_;
  std::vector<double> state_;  ///< members' dp[] (rows each), then prefix
};

// Calls fn with the tail evaluator for P[at most k − 1 others below r].
template <typename Fn>
void WithTail(int k, Fn&& fn) {
  switch (k - 1) {
    case 0: return fn(TailDp<0>(0));
    case 1: return fn(TailDp<1>(1));
    case 2: return fn(TailDp<2>(2));
    case 3: return fn(TailDp<3>(3));
    case 4: return fn(TailDp<4>(4));
    case 5: return fn(TailDp<5>(5));
    case 6: return fn(TailDp<6>(6));
    case 7: return fn(TailDp<7>(7));
    case kMaxFixedTail: return fn(TailDp<kMaxFixedTail>(kMaxFixedTail));
    default: return fn(TailDp<kDynamicTail>(k - 1));
  }
}

std::vector<double> GlobalBreakpoints(const CandidateSet& candidates) {
  std::vector<double> breaks;
  for (const Candidate& c : candidates.items()) {
    breaks.insert(breaks.end(), c.dist.breakpoints().begin(),
                  c.dist.breakpoints().end());
  }
  return SortedUnique(std::move(breaks), 1e-12);
}

// One candidate's integration range [a, b] = [near, min(far, f^(k))] cut at
// the global breakpoints g: a private head [a, head_end], shared segments
// [g[s], g[s+1]] for s in [first, end), and a private tail [g[end], b].
// Every near and far point (f^(k) is one) is a breakpoint, so the head
// (tail) is private only when the 1e-12 merge dropped a (b) from g.
struct Span {
  double a = 0.0;
  double b = 0.0;
  double head_end = 0.0;
  size_t first = 0;
  size_t end = 0;
  bool head = false;
  bool tail = false;
};

Span MakeSpan(double a, double b, const std::vector<double>& g) {
  Span s;
  s.a = a;
  s.b = b;
  // The segments are [a, g[lo]], [g[lo], g[lo+1]], ..., [g[hi-1], b].
  const size_t lo = std::upper_bound(g.begin(), g.end(), a) - g.begin();
  const size_t hi = std::lower_bound(g.begin(), g.end(), b) - g.begin();
  const bool head_shared = lo >= 1 && g[lo - 1] == a;
  const bool tail_shared = hi < g.size() && g[hi] == b;
  if (lo == hi) {
    if (head_shared && tail_shared) {
      s.first = lo - 1;
      s.end = lo;
    } else {
      s.head = true;
      s.head_end = b;
    }
    return s;
  }
  s.head = !head_shared;
  s.head_end = g[lo];
  s.first = head_shared ? lo - 1 : lo;
  s.tail = !tail_shared;
  s.end = tail_shared ? hi : hi - 1;
  return s;
}

// Integrates d_i(r) · P[at most k − 1 of the others are below r] for every
// candidate i with todo[i], over its Span, segment by segment in order.
// After each segment it calls visit(i, integral, segment_end, last); a
// false return stops candidate i. Every segment integral is the
// GaussLegendre arithmetic on that segment; the sweep only shares the work
// across candidates: at each node of a shared segment the cdf row D_j(r)
// is computed once, for the candidates whose near point lies below r (the
// others contribute D_j(r) = 0, which the DP skips), and every candidate on
// that segment runs its DP over the row's positive entries, in candidate
// order, leaving itself out (TailDp shares the DP prefix among them).
template <typename Tail, typename Visit>
void Sweep(const CandidateSet& cands, double fk, const GaussRule& rule,
           const std::vector<char>& todo, Tail tail, Visit&& visit) {
  const size_t n = cands.size();
  const std::vector<double> g = GlobalBreakpoints(cands);
  constexpr uint32_t kAbsent = UINT32_MAX;
  std::vector<double> row(n);      // positive D_j(r), candidate order
  std::vector<uint32_t> slot(n);   // j's index in row, or kAbsent
  size_t row_size = 0;
  size_t row_span = 0;             // slot[] is valid for j < row_span

  auto fill_row = [&](double r) {
    // The candidate set is ordered by near point: the live ones are a
    // prefix.
    row_span = static_cast<size_t>(
        std::partition_point(cands.items().begin(), cands.items().end(),
                             [r](const Candidate& c) {
                               return c.dist.near() < r;
                             }) -
        cands.items().begin());
    row_size = 0;
    for (size_t j = 0; j < row_span; ++j) {
      const double p = cands[j].dist.Cdf(r);
      if (p > 0.0) {
        slot[j] = static_cast<uint32_t>(row_size);
        row[row_size++] = p;
      } else {
        slot[j] = kAbsent;
      }
    }
  };
  // Adds w · d_i(r) · tail_i(r) to sums[i] for each candidate in ids
  // (ascending), at the row fill_row(r) left. TailDp takes its members in
  // row order: candidates with a row entry in candidate order, then the
  // rare ones without (D_i(r) = 0), whose skip is the row end.
  std::vector<double> sums(n, 0.0);
  std::vector<uint32_t> members;
  std::vector<uint32_t> skips;
  std::vector<double> density;
  std::vector<std::pair<uint32_t, double>> unlisted;  // (i, d_i(r))
  std::vector<double> tails;
  auto accumulate = [&](double r, double w, const uint32_t* ids,
                        size_t count) {
    members.clear();
    skips.clear();
    density.clear();
    unlisted.clear();
    for (size_t c = 0; c < count; ++c) {
      const uint32_t i = ids[c];
      const double d = cands[i].dist.Density(r);
      // A zero density adds w · 0 = +0 to a non-negative sum: skip it.
      if (d == 0.0) continue;
      if (i >= row_span || slot[i] == kAbsent) {
        unlisted.emplace_back(i, d);
        continue;
      }
      members.push_back(i);
      skips.push_back(slot[i]);
      density.push_back(d);
    }
    for (const auto& [i, d] : unlisted) {
      members.push_back(i);
      skips.push_back(static_cast<uint32_t>(row_size));
      density.push_back(d);
    }
    if (members.empty()) return;
    tails.resize(members.size());
    tail.Tails(row.data(), row_size, skips.data(), members.size(),
               tails.data());
    for (size_t m = 0; m < members.size(); ++m) {
      sums[members[m]] += w * (density[m] * tails[m]);
    }
  };
  auto integrate_alone = [&](size_t i, double a, double b) {
    const double mid = 0.5 * (a + b);
    const double half = 0.5 * (b - a);
    const uint32_t id = static_cast<uint32_t>(i);
    for (int m = 0; m < rule.n; ++m) {
      const double r = mid + half * rule.nodes[m];
      fill_row(r);
      accumulate(r, rule.weights[m], &id, 1);
    }
    const double integral = sums[i] * half;
    sums[i] = 0.0;
    return integral;
  };

  std::vector<Span> spans(n);
  std::vector<uint32_t> queued;  // candidates with shared segments
  for (size_t i = 0; i < n; ++i) {
    if (!todo[i]) continue;
    const double a = cands[i].dist.near();
    const double b = std::min(cands[i].dist.far(), fk);
    if (b <= a) continue;  // certainly beyond the k-th far point
    const Span& s = spans[i] = MakeSpan(a, b, g);
    const bool shared = s.end > s.first;
    if (s.head && !visit(i, integrate_alone(i, s.a, s.head_end), s.head_end,
                         !shared && !s.tail)) {
      continue;
    }
    if (shared) {
      queued.push_back(static_cast<uint32_t>(i));
    } else if (s.tail) {
      visit(i, integrate_alone(i, g[s.end], s.b), s.b, true);
    }
  }
  std::sort(queued.begin(), queued.end(), [&spans](uint32_t x, uint32_t y) {
    return spans[x].first < spans[y].first;
  });

  std::vector<uint32_t> active;
  size_t next = 0;
  for (size_t s = 0; next < queued.size() || !active.empty(); ++s) {
    if (active.empty()) s = spans[queued[next]].first;
    // accumulate wants the active candidates in candidate order.
    const size_t before = active.size();
    while (next < queued.size() && spans[queued[next]].first == s) {
      active.push_back(queued[next++]);
    }
    if (active.size() != before) std::sort(active.begin(), active.end());
    const double a = g[s];
    const double b = g[s + 1];
    const double mid = 0.5 * (a + b);
    const double half = 0.5 * (b - a);
    for (int m = 0; m < rule.n; ++m) {
      const double r = mid + half * rule.nodes[m];
      fill_row(r);
      accumulate(r, rule.weights[m], active.data(), active.size());
    }
    size_t kept = 0;
    for (uint32_t i : active) {
      const Span& span = spans[i];
      const double integral = sums[i] * half;
      sums[i] = 0.0;
      const bool ends = s + 1 == span.end;
      if (!visit(i, integral, b, ends && !span.tail)) continue;
      if (!ends) {
        active[kept++] = i;
      } else if (span.tail) {
        visit(i, integrate_alone(i, b, span.b), span.b, true);
      }
    }
    active.resize(kept);
  }
}

// Runs Sweep with the tail evaluator specialised for k.
template <typename Visit>
void SweepForK(const CandidateSet& cands, int k, double fk,
               const IntegrationOptions& options,
               const std::vector<char>& todo, Visit&& visit) {
  const GaussRule rule = GaussLegendreRule(options.gauss_points);
  WithTail(k, [&](auto tail) { Sweep(cands, fk, rule, todo, tail, visit); });
}

}  // namespace

double KthFarPoint(const CandidateSet& candidates, int k) {
  PV_CHECK_MSG(k >= 1 && static_cast<size_t>(k) <= candidates.size(),
               "k must be in [1, |C|]");
  std::vector<double> fars;
  fars.reserve(candidates.size());
  for (const Candidate& c : candidates.items()) fars.push_back(c.dist.far());
  std::nth_element(fars.begin(), fars.begin() + (k - 1), fars.end());
  return fars[k - 1];
}

std::vector<double> ComputeKnnProbabilities(
    const CandidateSet& candidates, int k, const IntegrationOptions& options) {
  PV_CHECK_MSG(k >= 1, "k must be positive");
  const size_t n = candidates.size();
  std::vector<double> probs(n, 0.0);
  if (n == 0) return probs;
  if (static_cast<size_t>(k) >= n) {
    // Every candidate is among the k nearest with certainty.
    std::fill(probs.begin(), probs.end(), 1.0);
    return probs;
  }
  const double fk = KthFarPoint(candidates, k);
  SweepForK(candidates, k, fk, options, std::vector<char>(n, 1),
            [&probs](size_t i, double integral, double, bool) {
              probs[i] += integral;
              return true;
            });
  for (double& p : probs) p = std::clamp(p, 0.0, 1.0);
  return probs;
}

CknnAnswer EvaluateCknn(const CandidateSet& candidates, int k,
                        const CpnnParams& params,
                        const IntegrationOptions& options) {
  params.Validate();
  CknnAnswer answer;
  const size_t n = candidates.size();
  answer.bounds.assign(n, ProbabilityBound{0.0, 1.0});
  if (n == 0) return answer;
  if (static_cast<size_t>(k) >= n) {
    for (size_t i = 0; i < n; ++i) {
      answer.bounds[i] = ProbabilityBound{1.0, 1.0};
      answer.ids.push_back(candidates[i].id);
    }
    return answer;
  }

  const double fk = KthFarPoint(candidates, k);
  std::vector<char> todo(n, 0);
  std::vector<Label> labels(n, Label::kUnknown);
  std::vector<double> partial(n, 0.0);
  std::vector<double> cdf_b(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const DistanceDistribution& dist = candidates[i].dist;
    // RS-style verification, p_i^(k) <= D_i(f^(k)): reject without
    // integration when even the upper bound misses the threshold.
    answer.bounds[i].Tighten(0.0, dist.Cdf(fk));
    if (Classify(answer.bounds[i], params) == Label::kFail) {
      labels[i] = Label::kFail;
      ++answer.pruned_by_bound;
      continue;
    }
    todo[i] = 1;
    // The cap below subtracts from P(R_i <= b), which does not change
    // across segments — evaluate it once per candidate.
    cdf_b[i] = dist.Cdf(std::min(dist.far(), fk));
  }

  // Progressive integration: accumulate the integral segment by segment,
  // classifying the running bound [partial, partial + remaining mass].
  SweepForK(candidates, k, fk, options, todo,
            [&](size_t i, double integral, double end, bool last) {
              partial[i] += integral;
              ++answer.segments_evaluated;
              // Unintegrated probability mass of R_i in (end, b] caps the
              // rest of the integral (the Poisson-binomial factor is <= 1).
              const double remaining =
                  std::max(0.0, cdf_b[i] - candidates[i].dist.Cdf(end));
              ProbabilityBound& bound = answer.bounds[i];
              bound.Tighten(std::clamp(partial[i], 0.0, 1.0),
                            std::clamp(partial[i] + remaining, 0.0, 1.0));
              labels[i] = Classify(bound, params);
              if (labels[i] == Label::kUnknown) return true;
              if (!last) ++answer.early_decided;
              return false;
            });

  for (size_t i = 0; i < n; ++i) {
    if (todo[i] && labels[i] == Label::kUnknown) {
      // Fully integrated → zero-width bound decides.
      ProbabilityBound& bound = answer.bounds[i];
      bound.Tighten(bound.upper, bound.upper);
      labels[i] = Classify(bound, params);
    }
    if (labels[i] == Label::kSatisfy) answer.ids.push_back(candidates[i].id);
  }
  return answer;
}

}  // namespace pverify
