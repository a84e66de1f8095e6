// Subregion machinery (paper §IV-A, Fig. 7, Table II).
//
// End-points are the sorted union of: every candidate's near point, every
// distance-pdf change point below f_min, and finally f_min and f_max. The
// adjacent end-point pairs form subregions S_1..S_M; the rightmost subregion
// S_M = [f_min, f_max] is never subdivided. Because a distance-pdf change
// point is always an end-point, every candidate's distance pdf is constant
// inside each subregion below f_min — the property that makes Lemma 3's
// symmetry argument (and hence the L-SR/U-SR bounds) sound.
//
// For each candidate i and subregion j the table stores the subregion
// probability s_ij = P(R_i ∈ S_j) and the cdf value D_i(e_j); it also
// precomputes the per-subregion participant counts c_j and the products
// Y_j = Π_k (1 − D_k(e_j)) used by the verifiers (Eq. 2).
//
// Storage is row-major SoA: one contiguous row per candidate, rows padded
// to cache-line multiples and the buffers 64-byte aligned (common/aligned.h)
// so the verifier passes stream each row with unit stride.
#ifndef PVERIFY_CORE_SUBREGION_H_
#define PVERIFY_CORE_SUBREGION_H_

#include <cstddef>
#include <vector>

#include "common/aligned.h"
#include "core/candidate.h"

namespace pverify {

class SubregionTable {
 public:
  SubregionTable() = default;

  /// Builds the table for the candidate set. Requires a non-empty set.
  static SubregionTable Build(const CandidateSet& candidates);

  /// Rebuilds `*table` in place for a new candidate set, reusing its
  /// existing buffer capacity. This is the allocation-free hot path used by
  /// the engine's per-worker QueryScratch; Build() is a fresh-table wrapper.
  static void BuildInto(const CandidateSet& candidates, SubregionTable* table);

  /// Number of subregions M (>= 1). Subregion indices are 0-based: the
  /// rightmost subregion of the paper (S_M) is index M-1 here.
  size_t num_subregions() const { return m_; }

  size_t num_candidates() const { return n_; }

  /// j-th end-point e_j, j ∈ [0, M]. endpoint(M-1) == f_min,
  /// endpoint(M) == f_max (they coincide when the rightmost subregion is
  /// degenerate).
  double endpoint(size_t j) const { return endpoints_[j]; }

  double fmin() const { return endpoints_[m_ - 1]; }
  double fmax() const { return endpoints_[m_]; }

  /// Subregion probability s_ij = P(R_i ∈ S_j).
  double s(size_t i, size_t j) const { return s_[i * s_stride_ + j]; }

  /// Distance cdf value D_i(e_j), j ∈ [0, M].
  double cdf(size_t i, size_t j) const { return cdf_[i * cdf_stride_ + j]; }

  /// c_j: number of candidates with s_ij > 0.
  int count(size_t j) const { return count_[j]; }

  /// Y_j = Π_{k} (1 − D_k(e_j)) over all candidates (factors of 1 for
  /// candidates with D_k(e_j) = 0), j ∈ [0, M].
  double Y(size_t j) const { return y_[j]; }

  /// Candidate i's s row. It starts on a cache line; entries past the
  /// logical row length M are padding zeros.
  const double* SRow(size_t i) const { return s_.data() + i * s_stride_; }
  /// The M+1 sorted end-points as a contiguous row (for batched cdf
  /// evaluation against the same points the table was built with).
  const double* EndpointData() const { return endpoints_.data(); }

  /// Π_{k ≠ i} (1 − D_k(e_j)): the Pr(E)-style product used by L-SR
  /// (Lemma 2) and U-SR (Eq. 5). Computed by dividing i's factor out of Y_j,
  /// with a direct-product fallback when the factor is too small to divide
  /// by safely.
  double ProductExcluding(size_t i, size_t j) const;

  /// True when s_ij is (numerically) positive.
  bool Participates(size_t i, size_t j) const {
    return s(i, j) > kEps;
  }

  static constexpr double kEps = 1e-15;

  /// Approximate heap footprint of the table's buffers (capacity, not
  /// size). Used by QueryScratch to assert allocation reuse in tests.
  size_t ApproxBytes() const {
    return endpoints_.capacity() * sizeof(double) +
           s_.capacity() * sizeof(double) + cdf_.capacity() * sizeof(double) +
           count_.capacity() * sizeof(int) + y_.capacity() * sizeof(double);
  }

 private:
  size_t n_ = 0;  // number of candidates
  size_t m_ = 0;  // number of subregions M
  size_t s_stride_ = 0;    // padded row length of s_ (>= M)
  size_t cdf_stride_ = 0;  // padded row length of cdf_ (>= M+1)
  std::vector<double> endpoints_;   // M+1 entries; last two may coincide
  AlignedVector<double> s_;    // n rows × s_stride_, logical width M
  AlignedVector<double> cdf_;  // n rows × cdf_stride_, logical width M+1
  AlignedVector<int> count_;   // M
  AlignedVector<double> y_;    // M+1
};

}  // namespace pverify

#endif  // PVERIFY_CORE_SUBREGION_H_
