#include "core/solver.h"

#include <sstream>
#include <stdexcept>

#include "core/solve.h"
#include "la/kernel_config.h"
#include "la/norms.h"
#include "util/env.h"
#include "util/watchdog.h"

namespace bst::core {

const char* to_string(SolvePath p) {
  switch (p) {
    case SolvePath::Spd: return "spd";
    case SolvePath::Indefinite: return "indefinite";
    case SolvePath::IndefinitePerturbed: return "indefinite+perturbed";
    case SolvePath::Pcg: return "pcg";
  }
  return "?";
}

const char* to_string(SolverKind k) {
  switch (k) {
    case SolverKind::Auto: return "auto";
    case SolverKind::Schur: return "schur";
    case SolverKind::Pcg: return "pcg";
  }
  return "?";
}

namespace {
std::string accuracy_message(double eta, double bound, const std::string& route, int steps) {
  std::ostringstream os;
  os << "AccuracyNotReached: backward error " << eta << " is above the bound " << bound
     << " (10 n eps) after " << steps << " refinement step(s) on route " << route;
  return os.str();
}
}  // namespace

AccuracyNotReached::AccuracyNotReached(double backward_error_, double bound_, std::string route_,
                                       int steps_)
    : std::runtime_error(accuracy_message(backward_error_, bound_, route_, steps_)),
      backward_error(backward_error_),
      bound(bound_),
      route(std::move(route_)),
      steps(steps_) {}

SolverKind parse_solver_kind(const std::string& s) {
  if (s == "auto") return SolverKind::Auto;
  if (s == "schur") return SolverKind::Schur;
  if (s == "pcg") return SolverKind::Pcg;
  throw std::invalid_argument("unknown solver kind '" + s + "' (auto|schur|pcg)");
}

SolverPolicy SolverPolicy::from_env(SolverPolicy base) {
  if (std::string kind; util::env::read("BST_SOLVER", kind)) base.kind = parse_solver_kind(kind);
  util::env::read("BST_SOLVER_MIN_N", base.pcg_min_n);
  util::env::read("BST_SOLVER_MAX_COND", base.pcg_max_cond);
  return base;
}

PolicyDecision choose_solver(const toeplitz::BlockToeplitz& t, const SolverPolicy& policy) {
  PolicyDecision d;
  if (policy.kind == SolverKind::Schur) {
    d.reason = "forced";
    return d;
  }
  if (policy.kind == SolverKind::Pcg) {
    d.chosen = SolverKind::Pcg;
    d.reason = "forced";
    d.precond = std::make_shared<const CirculantPreconditioner>(t);
    if (d.precond->positive_definite()) d.condest = circulant_condest(t, *d.precond);
    return d;
  }
  // Auto: cheapest checks first.
  if (t.order() < policy.pcg_min_n) {
    d.reason = "small";
    return d;
  }
  d.precond = std::make_shared<const CirculantPreconditioner>(t);
  if (!d.precond->positive_definite()) {
    d.reason = "not_spd";
    return d;
  }
  d.condest = circulant_condest(t, *d.precond);
  if (!(d.condest <= policy.pcg_max_cond)) {
    d.reason = "ill_conditioned";
    return d;
  }
  d.chosen = SolverKind::Pcg;
  d.reason = "crossover";
  return d;
}

index_t choose_block_size(const toeplitz::BlockToeplitz& t) {
  const index_t m = t.block_size();
  index_t ms = m;
  while (ms > 0 && ms < la::kMicroRows) ms *= 2;
  return ms != m && t.order() % ms == 0 ? ms : m;
}

SchurFactor factor_spd(const toeplitz::BlockToeplitz& t, SchurOptions opt) {
  if (opt.block_size != 0) return block_schur_factor(t, opt);
  opt.block_size = choose_block_size(t);
  if (opt.block_size != t.block_size()) {
    try {
      return block_schur_factor(t, opt);
    } catch (const NotPositiveDefinite&) {
      opt.block_size = t.block_size();  // retry_at_m
    }
  }
  return block_schur_factor(t, opt);
}

const char* block_size_reason(const toeplitz::BlockToeplitz& t, index_t requested,
                              index_t in_effect) {
  if (requested != 0) return "caller";
  return in_effect == choose_block_size(t) ? "policy" : "retry_at_m";
}

SolveReport toeplitz_solve(const toeplitz::BlockToeplitz& t, const std::vector<double>& b,
                           const SolveOptions& opt) {
  SolveReport rep;
  const PolicyDecision dec = choose_solver(t, opt.policy);
  rep.condest = dec.condest;
  rep.policy_reason = dec.reason;

  bool pcg_failed = false;
  if (dec.chosen == SolverKind::Pcg) {
    toeplitz::MatVec op(t, toeplitz::MatVecMode::Fft);
    if (dec.precond != nullptr && dec.precond->positive_definite()) {
      PcgResult pr = pcg_solve(op, *dec.precond, b, opt.pcg);
      rep.pcg_iterations = pr.iterations;
      if (pr.converged) {
        std::vector<double> r;
        op.residual(b, pr.x, r);
        const double eta = op.backward_error(b, pr.x, r);
        // An answer above the bound takes the fallback below.
        if (eta <= backward_error_bound(t.order())) {
          rep.x = std::move(pr.x);
          rep.path = SolvePath::Pcg;
          rep.solver_path = "pcg";
          rep.final_residual = la::norm2(r);
          rep.backward_error = eta;
          return rep;
        }
      }
    } else {
      // Forced PCG on a matrix whose Strang circulant is not SPD: there is
      // no preconditioner to run with.  pcg_solve was never entered, so
      // raise its warning here before taking the fallback.
      util::Watchdog::warn("pcg_precond_not_spd", 0,
                           dec.precond != nullptr ? dec.precond->min_pivot() : 0.0, 0.0);
    }
    pcg_failed = true;  // Schur below, with mandatory refinement
  }

  FactorSolve fsolve;
  std::optional<SchurFactor> spd;
  std::optional<LdlFactor> ldl;

  // The policy picks m_s along with the route; a forced route runs the
  // kernels as configured, block_size = 0 meaning the structural m.
  const bool forced = opt.policy.kind != SolverKind::Auto;
  if (!opt.assume_indefinite) {
    SchurOptions spd_opt = opt.spd;
    if (forced && spd_opt.block_size == 0) spd_opt.block_size = t.block_size();
    try {
      spd = factor_spd(t, spd_opt);
      rep.path = SolvePath::Spd;
      rep.factor_flops = spd->flops;
      rep.block_size = spd->block_size;
      rep.block_size_reason = block_size_reason(t, spd_opt.block_size, spd->block_size);
      fsolve = [&spd](const std::vector<double>& rhs, std::vector<double>& out) {
        out = solve_spd(*spd, rhs);
      };
    } catch (const NotPositiveDefinite&) {
      // fall through to the indefinite driver
    }
  }
  if (!spd) {
    ldl = block_schur_indefinite(t, opt.indefinite);
    rep.path = ldl->perturbations.empty() ? SolvePath::Indefinite
                                          : SolvePath::IndefinitePerturbed;
    rep.factor_flops = ldl->flops;
    rep.block_size = ldl->block_size;
    rep.block_size_reason = forced || opt.indefinite.block_size != 0 ? "caller" : "policy";
    rep.interchanges = ldl->interchanges;
    rep.perturbations = ldl->perturbations.size();
    fsolve = [&ldl](const std::vector<double>& rhs, std::vector<double>& out) {
      out = solve_ldl(*ldl, rhs);
    };
  }

  const bool need_refine =
      opt.always_refine || pcg_failed || rep.path == SolvePath::IndefinitePerturbed;
  rep.solver_path = pcg_failed ? "pcg+fallback" : (need_refine ? "schur+refine" : "schur");
  if (!need_refine) {
    fsolve(b, rep.x);
    return rep;
  }
  // After a PCG failure the matrix is large by construction (the policy
  // only sends large systems to PCG), so the fallback keeps the O(n log n)
  // residuals regardless of the configured mode.  The one operator serves
  // every residual of the loop, whose last is the answer's.
  const toeplitz::MatVec op(t, pcg_failed ? toeplitz::MatVecMode::Fft : opt.residual_mode);
  RefineResult rr = solve_refined(op, fsolve, b, opt.refine);
  if (!rr.converged) {
    throw AccuracyNotReached(rr.backward_error, backward_error_bound(t.order()), rep.solver_path,
                             rr.iterations);
  }
  rep.x = std::move(rr.x);
  rep.refined = true;
  rep.refinement_steps = rr.iterations;
  rep.final_residual = rr.residual_norms.back();
  rep.backward_error = rr.backward_error;
  return rep;
}

}  // namespace bst::core
