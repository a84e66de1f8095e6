// Numerical quadrature used by the Basic evaluator and the k-NN
// integration (refinement reads its q_ij exactly from the subregion table).
//
// The C-PNN integrand d_i(r) · Π_{k≠i}(1 − D_k(r)) is a polynomial between
// consecutive global breakpoints (d_i is a step function, each D_k is
// piecewise-linear), so Gauss-Legendre per breakpoint segment converges very
// fast. The paper evaluates the same integral with generic numerical
// integration; we expose the node count so benchmarks can trade accuracy for
// speed.
#ifndef PVERIFY_COMMON_INTEGRATE_H_
#define PVERIFY_COMMON_INTEGRATE_H_

#include <functional>
#include <vector>

namespace pverify {

/// A Gauss-Legendre rule on [-1, 1]: `n` ascending nodes and their weights.
struct GaussRule {
  const double* nodes;
  const double* weights;
  int n;
};

/// The rule GaussLegendre applies for `points`: orders 2, 4, 8 and 16;
/// other values round up to the next supported order, capping at 16.
/// Callers that evaluate one node set for many integrands (the k-NN
/// sweep) map it onto [a, b] exactly as GaussLegendre does:
/// r_i = mid + half · nodes[i], integral = half · Σ weights[i] · f(r_i).
GaussRule GaussLegendreRule(int points);

/// Fixed-order Gauss-Legendre quadrature on [a, b].
/// Supported orders: 2, 4, 8, 16 (other values round up to the next
/// supported order, capping at 16).
double GaussLegendre(const std::function<double(double)>& f, double a,
                     double b, int points);

/// Integrates f over [a, b], splitting at the supplied sorted breakpoints
/// that fall inside (a, b) and applying `points`-node Gauss-Legendre on each
/// resulting segment.
double IntegrateWithBreakpoints(const std::function<double(double)>& f,
                                double a, double b,
                                const std::vector<double>& breakpoints,
                                int points);

}  // namespace pverify

#endif  // PVERIFY_COMMON_INTEGRATE_H_
