// Distance pdf/cdf of an uncertain object with respect to a query point
// (paper §IV-A, Definition 2, Fig. 6).
//
// For a 1-D object with step-function pdf, folding the density around the
// query point q gives the distance pdf d_i(r) — again a step function —
// whose exact integral is the piecewise-linear distance cdf D_i(r).
#ifndef PVERIFY_UNCERTAIN_DISTANCE_DISTRIBUTION_H_
#define PVERIFY_UNCERTAIN_DISTANCE_DISTRIBUTION_H_

#include <vector>

#include "common/piecewise.h"
#include "uncertain/pdf.h"
#include "uncertain/uncertain_object.h"

namespace pverify {

/// The distribution of R_i = |X_i − q| for one uncertain object.
class DistanceDistribution {
 public:
  DistanceDistribution() = default;

  /// Wraps an already-built distance pdf (must have total mass ≈ 1; it is
  /// renormalized to remove discretization residue).
  explicit DistanceDistribution(StepFunction distance_pdf);

  /// Folds a 1-D uncertainty pdf around query point q.
  static DistanceDistribution From1D(const Pdf& pdf, double q);

  /// In-place variant of From1D for hot paths: rebuilds `out` (reusing its
  /// storage) with `rb`/`values` as work buffers. Runs the exact same
  /// arithmetic as From1D, so the result is bit-identical; once the buffer
  /// and `out` capacities cover the workload, no allocation happens.
  static void From1DInto(const Pdf& pdf, double q, DistanceDistribution* out,
                         std::vector<double>& rb, std::vector<double>& values);

  /// Rebuilds this distribution in place from a raw distance pdf given as
  /// `pieces` + 1 breakpoints and `pieces` values — the same validation and
  /// normalization arithmetic as the StepFunction-constructor path, reusing
  /// this object's storage. `values` is normalized in place (it is a work
  /// buffer, not an input to preserve).
  void AssignFromPieces(const double* breaks, double* values, size_t pieces);

  /// Near point n_i: minimum possible distance.
  double near() const { return pdf_.support_lo(); }
  /// Far point f_i: maximum possible distance.
  double far() const { return pdf_.support_hi(); }

  /// Distance pdf d_i(r).
  double Density(double r) const { return pdf_.Value(r); }

  /// Distance cdf D_i(r) = P(R_i <= r); 0 below near(), 1 above far().
  double Cdf(double r) const { return pdf_.IntegralTo(r); }

  /// Batched cdf over a sorted (non-decreasing) batch of radii:
  /// out[j] = Cdf(rs[j]) via one merge-scan over the pdf's pieces —
  /// bit-identical to a per-point Cdf loop, O(pieces + n) instead of
  /// n binary searches (see StepFunction::IntegralToSorted).
  void CdfSorted(const double* rs, size_t n, double* out) const {
    pdf_.IntegralToSorted(rs, n, out);
  }

  /// P(a <= R_i <= b).
  double ProbIn(double a, double b) const {
    return pdf_.IntegralBetween(a, b);
  }

  /// Inverse cdf (for sampling); p in [0, 1].
  double Quantile(double p) const { return pdf_.InverseIntegral(p); }

  /// Breakpoints where the distance pdf changes value. Used as subregion
  /// end-point candidates and as integration split points.
  const std::vector<double>& breakpoints() const { return pdf_.breaks(); }

  const StepFunction& pdf() const { return pdf_; }

  /// Approximate heap footprint of the owned storage (capacity, not size).
  size_t ApproxBytes() const { return pdf_.ApproxBytes(); }

 private:
  StepFunction pdf_;
};

}  // namespace pverify

#endif  // PVERIFY_UNCERTAIN_DISTANCE_DISTRIBUTION_H_
