#include "core/refine.h"

#include <cfloat>

#include "la/norms.h"
#include "util/fault.h"
#include "util/stallguard.h"
#include "util/trace.h"
#include "util/watchdog.h"

namespace bst::core {
namespace {
// The refinement loop's own cost beyond the factor solves (which charge
// themselves to "triangular_solve"): exact Toeplitz residuals.
const util::PhaseId kResidualPhase = util::Tracer::phase("residual");

// r := b - T x; returns the backward error of x.
double traced_residual(const toeplitz::MatVec& op, const std::vector<double>& b,
                       const std::vector<double>& x, std::vector<double>& r) {
  util::TraceSpan span(kResidualPhase);
  op.residual(b, x, r);
  return op.backward_error(b, x, r);
}
}  // namespace

double backward_error_bound(la::index_t n) { return 10.0 * static_cast<double>(n) * DBL_EPSILON; }

RefineResult solve_refined(const toeplitz::MatVec& op, const FactorSolve& solve,
                           const std::vector<double>& b, const RefineOptions& opt) {
  const double bound = backward_error_bound(op.order());
  RefineResult res;
  solve(b, res.x);
  std::vector<double> r, dx;
  res.backward_error = traced_residual(op, b, res.x, r);
  res.residual_norms.push_back(la::norm2(r));

  double prev_ndx = -1.0;
  for (int it = 0; it < opt.max_iters && res.backward_error > DBL_EPSILON; ++it) {
    util::Fault::fire("refine");
    util::StallGuard::beat();  // per-iteration progress
    solve(r, dx);
    const double ndx = la::norm2(dx);
    res.correction_norms.push_back(ndx);
    if (res.backward_error <= bound) {
      if (ndx < opt.tol * la::norm2(res.x)) break;
      // Stagnation: once the correction stops contracting, the attainable
      // accuracy has been reached (Wilkinson's criterion); further steps
      // only bounce around in roundoff.
      if (prev_ndx >= 0.0 && ndx > 0.5 * prev_ndx) {
        util::Watchdog::check_refine(res.iterations, true, prev_ndx > 0.0 ? ndx / prev_ndx : 1.0);
        break;
      }
    }
    prev_ndx = ndx;
    for (std::size_t i = 0; i < res.x.size(); ++i) res.x[i] += dx[i];
    ++res.iterations;
    res.backward_error = traced_residual(op, b, res.x, r);
    res.residual_norms.push_back(la::norm2(r));
  }
  res.converged = res.backward_error <= bound;
  if (!res.converged) {
    util::Watchdog::check_refine(res.iterations, false, 0.0);
  }
  return res;
}

}  // namespace bst::core
