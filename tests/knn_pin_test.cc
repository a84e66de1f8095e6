// Bit-identity pin on the constrained k-NN path.
//
// Seeded candidate sets run through the k-NN filter, EvaluateCknn and
// ComputeKnnProbabilities over a grid of k, Gauss-Legendre orders,
// thresholds and tolerances. Every filter cut (f^(k) bits and candidate
// indices), answer id, raw bound bit, pruning/early-exit/segment counter
// and exact probability bit is folded into one FNV-1a digest, which must
// equal a constant recorded before the k-NN integrand and filter were
// restructured.
//
// The sets:
//  * 1-D: up to about 100 candidates per query, uniform and histogram
//    pdfs with endpoints on a 1/64 grid (so only + − × ÷ reach the data),
//    at an interior query point and at and beyond both domain edges;
//  * 2-D: rectangles and disks with 64-piece radial distance cdfs;
//  * hand-built distance distributions whose breakpoints lie within 1e-12
//    of each other (the global breakpoint merge drops one of each pair, so
//    a candidate's first or last segment no longer sits on a shared
//    breakpoint), and candidates whose near point lies in
//    (f^(k), f^(k) + 1e-12], so their integration range is empty.
//
// The 2-D sets call sqrt/acos; a libm whose last bits differ would move
// this digest without any change here.
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/knn.h"
#include "spatial/filter.h"
#include "uncertain/distance2d.h"
#include "uncertain/pdf.h"
#include "fnv1a_testutil.h"

namespace pverify {
namespace {

using testutil::Fnv1a;
using testutil::Hex;

constexpr uint64_t kKnnPinDigest = 0x633b0be7cc12c614ULL;

constexpr int kKs[] = {1, 2, 3, 4, 8, 9};

double Grid(Rng& rng, double lo, double hi) {
  return static_cast<double>(rng.UniformInt(static_cast<int64_t>(lo * 64),
                                            static_cast<int64_t>(hi * 64))) /
         64.0;
}

Dataset PinDataset1D(uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  for (ObjectId id = 0; id < 500; ++id) {
    const double lo = Grid(rng, 0.0, 1000.0);
    const double hi = lo + Grid(rng, 1.0, 200.0);
    if (id % 3 == 0) {
      data.emplace_back(id, MakeHistogramPdf(lo, hi, {1.0, 3.0, 2.0}));
    } else {
      data.emplace_back(id, MakeUniformPdf(lo, hi));
    }
  }
  return data;
}

Dataset2D PinDataset2D(uint64_t seed) {
  Rng rng(seed);
  Dataset2D data;
  for (ObjectId id = 0; id < 300; ++id) {
    const double x = Grid(rng, 0.0, 1000.0);
    const double y = Grid(rng, 0.0, 1000.0);
    if (id % 2 == 0) {
      data.emplace_back(id, Rect2{x, y, x + Grid(rng, 2.0, 60.0),
                                  y + Grid(rng, 2.0, 60.0)});
    } else {
      data.emplace_back(id, Circle2{x, y, Grid(rng, 1.0, 30.0)});
    }
  }
  return data;
}

void AddFilter(const FilterResult& f, Fnv1a& h) {
  h.Add(f.fmin);
  h.Add(static_cast<uint64_t>(f.candidates.size()));
  for (uint32_t idx : f.candidates) h.Add(static_cast<uint64_t>(idx));
}

// Folds every k-NN evaluation of one candidate set into the digest.
void AddEvaluations(const CandidateSet& cands, int k, Fnv1a& h) {
  h.Add(static_cast<uint64_t>(cands.size()));
  for (int points : {2, 4, 8, 16}) {
    IntegrationOptions options;
    options.gauss_points = points;
    for (double p : ComputeKnnProbabilities(cands, k, options)) h.Add(p);
    for (double threshold : {0.1, 0.4}) {
      for (double tolerance : {0.0, 0.01}) {
        const CknnAnswer a =
            EvaluateCknn(cands, k, {threshold, tolerance}, options);
        h.AddIds(a.ids);
        h.Add(static_cast<uint64_t>(a.bounds.size()));
        for (const ProbabilityBound& b : a.bounds) h.Add(b);
        h.Add(static_cast<uint64_t>(a.pruned_by_bound));
        h.Add(static_cast<uint64_t>(a.early_decided));
        h.Add(static_cast<uint64_t>(a.segments_evaluated));
      }
    }
  }
}

DistanceDistribution Uniform(double near, double far) {
  return DistanceDistribution(StepFunction({near, far}, {1.0 / (far - near)}));
}

DistanceDistribution TwoStep(double near, double mid, double far) {
  return DistanceDistribution(StepFunction(
      {near, mid, far},
      {0.75 / (mid - near), 0.25 / (far - mid)}));
}

// Breakpoints 2^-42 (~2.3e-13) apart collide in the global merge, which
// keeps only the smallest of each cluster: candidates 2, 6, 7 and 8 lose
// their near point, 2, 9 and 10 their far point. For k = 2 and k = 4 the
// k-th far point (4 + 2^-41, 5 + 2^-42) is itself dropped. Candidate 7's
// near point lies within 1e-12 above f^(k) for k = 3 and 4, candidate 8's
// for k = 1 (f^(k) = 4).
CandidateSet HandBuiltSet() {
  const double e = 1.0 / (1ULL << 42);
  std::vector<std::pair<ObjectId, DistanceDistribution>> dists;
  dists.emplace_back(1, Uniform(1.0, 4.0));
  dists.emplace_back(2, TwoStep(1.0 + e, 2.5, 5.0 + e));
  dists.emplace_back(3, Uniform(0.5, 5.0));
  dists.emplace_back(4, TwoStep(2.0, 3.0 + e, 6.0));
  dists.emplace_back(5, Uniform(3.0, 7.0));
  dists.emplace_back(6, TwoStep(2.5 + e, 4.0, 9.0));
  dists.emplace_back(7, Uniform(5.0 + 2 * e, 8.0));
  dists.emplace_back(8, Uniform(4.0 + e, 6.5));
  dists.emplace_back(9, TwoStep(0.75, 3.0, 4.0 + 2 * e));
  dists.emplace_back(10, Uniform(1.5, 5.0 + e));
  return CandidateSet::FromDistances(std::move(dists), /*k=*/9);
}

uint64_t PinDigest() {
  Fnv1a h;
  const Dataset data = PinDataset1D(11);
  const PnnFilter filter(data);
  // Below the domain, on its lowest endpoint, inside, on its highest
  // endpoint and beyond it.
  for (double q : {-3.0, 1.875, 500.5, 1171.734375, 1250.0}) {
    for (int k : kKs) {
      const FilterResult f = filter.FilterK(q, k);
      AddFilter(f, h);
      const CandidateSet cands =
          CandidateSet::Build1D(data, f.candidates, q, k);
      AddEvaluations(cands, k, h);
    }
  }
  const Dataset2D data2d = PinDataset2D(21);
  const PnnFilter2D filter2d(data2d);
  for (Point2 q : {Point2{500.0, 500.0}, Point2{0.0, 0.0},
                   Point2{-40.0, 700.0}, Point2{1100.0, 1100.0}}) {
    for (int k : kKs) {
      const FilterResult f = filter2d.FilterK(q, k);
      AddFilter(f, h);
      const CandidateSet cands =
          CandidateSet::Build2D(data2d, f.candidates, q, 64, k);
      AddEvaluations(cands, k, h);
    }
  }
  const CandidateSet hand = HandBuiltSet();
  for (int k : kKs) AddEvaluations(hand, k, h);
  return h.value();
}

TEST(KnnPinTest, DigestMatchesRecording) {
  EXPECT_EQ(Hex(PinDigest()), Hex(kKnnPinDigest));
}

}  // namespace
}  // namespace pverify
