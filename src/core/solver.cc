#include "core/solver.h"

#include <cstdlib>
#include <stdexcept>

#include "core/solve.h"
#include "la/norms.h"
#include "util/cli.h"
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

SolverKind parse_solver_kind(const std::string& s) {
  if (s == "auto") return SolverKind::Auto;
  if (s == "schur") return SolverKind::Schur;
  if (s == "pcg") return SolverKind::Pcg;
  throw std::invalid_argument("unknown solver kind '" + s + "' (auto|schur|pcg)");
}

SolverPolicy SolverPolicy::from_env(SolverPolicy base) {
  if (const char* s = std::getenv("BST_SOLVER"); s != nullptr && *s != '\0') {
    base.kind = parse_solver_kind(s);
  }
  if (const char* s = std::getenv("BST_SOLVER_MIN_N"); s != nullptr && *s != '\0') {
    base.pcg_min_n = static_cast<la::index_t>(util::parse_number<long>("BST_SOLVER_MIN_N", s));
  }
  if (const char* s = std::getenv("BST_SOLVER_MAX_COND"); s != nullptr && *s != '\0') {
    base.pcg_max_cond = util::parse_number<double>("BST_SOLVER_MAX_COND", s);
  }
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
        rep.x = std::move(pr.x);
        rep.path = SolvePath::Pcg;
        rep.solver_path = "pcg";
        std::vector<double> r;
        op.residual(b, rep.x, r);
        rep.final_residual = la::norm2(r);
        return rep;
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

  if (!opt.assume_indefinite) {
    try {
      spd = block_schur_factor(t, opt.spd);
      rep.path = SolvePath::Spd;
      rep.factor_flops = spd->flops;
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
  // residuals regardless of the configured mode.
  toeplitz::MatVec op(t, pcg_failed ? toeplitz::MatVecMode::Fft : opt.residual_mode);
  RefineResult rr = solve_refined(op, fsolve, b, opt.refine);
  rep.x = std::move(rr.x);
  rep.refined = true;
  rep.refinement_steps = rr.iterations;
  rep.converged = rr.converged;
  std::vector<double> r;
  op.residual(b, rep.x, r);
  rep.final_residual = la::norm2(r);
  return rep;
}

}  // namespace bst::core
