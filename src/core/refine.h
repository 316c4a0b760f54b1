// Iterative refinement (paper section 8, eqs. 34-37).
//
// The perturbed factorization LDL^T = T + dT solves a nearby system; the
// refinement loop
//     solve LDL^T dx_i = r_i;   x_{i+1} = x_i + dx_i;   r_{i+1} = b - T x_{i+1}
// contracts the error by ~ ||dT T^{-1}|| per step (eq. 41), so with
// delta = cbrt(eps) about two to three steps reach machine precision.
// Residuals are computed against the *exact* Toeplitz operator.
//
// Every residual also certifies its iterate: the normwise backward error
//     eta = ||b - T x||_inf / (||T||_inf ||x||_inf + ||b||_inf)
// (Bojanczyk, Brent and de Hoog's form, toeplitz::MatVec::backward_error)
// decides when the loop stops:
//   * eta <= eps (DBL_EPSILON): the iterate is exact to roundoff; stop
//     without another solve;
//   * eta <= backward_error_bound(n) = 10 n eps: the paper's tolerance
//     ||dx|| < tol ||x||, or a correction that stopped contracting by 0.5
//     (Wilkinson's stagnation criterion), ends the loop;
//   * otherwise refine on, up to max_iters.
// `converged` means eta <= backward_error_bound(n) for the returned x.
#pragma once

#include <functional>
#include <vector>

#include "toeplitz/matvec.h"

namespace bst::core {

/// Black-box "solve with the (approximate) factorization" callback.
using FactorSolve =
    std::function<void(const std::vector<double>& rhs, std::vector<double>& x)>;

/// The documented backward-error bound of every certified answer: 10 n eps.
double backward_error_bound(la::index_t n);

/// Options for the refinement loop.
struct RefineOptions {
  int max_iters = 20;
  /// Once eta is within the bound, stop when ||dx|| < tol * ||x|| (the
  /// paper's criterion).
  double tol = 1e-14;
};

/// Outcome of solve_refined.
struct RefineResult {
  std::vector<double> x;
  bool converged = false;                // backward_error <= backward_error_bound(n)
  int iterations = 0;                    // refinement steps taken (0 = none needed)
  std::vector<double> correction_norms;  // ||dx_i|| per correction solved
  std::vector<double> residual_norms;    // ||r_i||_2 per iterate (r_0 first; last = x's)
  double backward_error = -1.0;          // eta of x, from its residual
};

/// Solves T x = b with iterative refinement: `solve` applies the
/// (approximate) factorization, `op` the exact Toeplitz operator.
RefineResult solve_refined(const toeplitz::MatVec& op, const FactorSolve& solve,
                           const std::vector<double>& b, const RefineOptions& opt = {});

}  // namespace bst::core
