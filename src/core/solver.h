// High-level one-call solver for symmetric block Toeplitz systems.
//
// Two solver families sit behind one entry point:
//   * the block Schur factorization (core/schur.h, core/indefinite.h):
//     O(ms n^2), handles indefinite and singular-minor systems via
//     signature pivoting + perturbation + iterative refinement;
//   * circulant-preconditioned CG (core/pcg.h): O(n log n) per iteration,
//     wins on large well-conditioned SPD systems but has no story for
//     indefinite or clustered-at-zero spectra.
//
// The crossover policy (SolverPolicy / choose_solver) picks between them
// from the order, a positive-definiteness probe of the Strang circulant,
// and a cheap 1-norm condition estimate; BST_SOLVER / the --solver flag
// force a path.  A forced-or-chosen PCG run that fails to converge, or
// whose answer's backward error exceeds the bound, falls back to Schur
// with mandatory refinement ("pcg+fallback").
//
// Schur dispatch (unchanged from the original policy):
//   1. try the SPD block Schur factorization (cheapest, T = R^T R);
//   2. on breakdown (NotPositiveDefinite, also at step 0 when the leading
//      m_s x m_s block is not positive definite), fall back to the
//      indefinite extension (signature pivoting + singular-minor
//      perturbation);
//   3. if any perturbation was applied -- or if requested -- polish the
//      solution with iterative refinement against the exact operator.
//
// Certificate: the refine and PCG routes return only answers whose normwise
// backward error eta = ||b - Tx||_inf / (||T||_inf ||x||_inf + ||b||_inf)
// is within backward_error_bound(n) = 10 n eps (SolveReport::backward_error).
// One FFT operator per solve computes every residual and eta.  A refine
// route that ends above the bound raises AccuracyNotReached instead of
// returning the answer.  The plain Schur route is not certified
// (backward_error = -1).
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/indefinite.h"
#include "core/pcg.h"
#include "core/refine.h"
#include "core/schur.h"
#include "toeplitz/matvec.h"

namespace bst::core {

/// Solver family selector: Auto lets the crossover policy decide.
enum class SolverKind { Auto, Schur, Pcg };

const char* to_string(SolverKind k);

/// Parses "auto" / "schur" / "pcg"; throws std::invalid_argument otherwise.
SolverKind parse_solver_kind(const std::string& s);

/// The automatic solver-crossover policy.  Defaults are deliberately
/// conservative: PCG is only chosen when it is clearly the right tool.
struct SolverPolicy {
  SolverKind kind = SolverKind::Auto;
  /// Below this order the Schur factorization always wins (setup and
  /// constant factors dominate the asymptotic gap).
  la::index_t pcg_min_n = 2048;
  /// Condition estimates above this keep the system on the Schur path:
  /// CG iteration counts scale with sqrt(cond) while the factorization
  /// is condition-oblivious.
  double pcg_max_cond = 1e6;

  /// Overlays BST_SOLVER / BST_SOLVER_MIN_N / BST_SOLVER_MAX_COND onto
  /// `base` (defaults if omitted).
  static SolverPolicy from_env(SolverPolicy base);
  static SolverPolicy from_env() { return from_env(SolverPolicy{}); }
};

/// Outcome of the policy probe: which family to use and why, plus the
/// probe artifacts (preconditioner, condition estimate) so the PCG path
/// does not pay for them twice.
struct PolicyDecision {
  SolverKind chosen = SolverKind::Schur;
  /// "forced" | "small" | "not_spd" | "ill_conditioned" | "crossover".
  std::string reason;
  double condest = -1.0;  // 1-norm estimate; -1 when not probed
  std::shared_ptr<const CirculantPreconditioner> precond;  // set when built
};

/// Runs the crossover policy for `t`.  O(m^2 p log p) when it probes
/// (orders >= pcg_min_n under Auto), O(1) otherwise.
PolicyDecision choose_solver(const toeplitz::BlockToeplitz& t, const SolverPolicy& policy);

/// Options for the one-call solver.
struct SolveOptions {
  SchurOptions spd;              // used for the SPD attempt
  IndefiniteOptions indefinite;  // used for the fallback
  RefineOptions refine;
  SolverPolicy policy;           // solver-crossover policy (Auto by default)
  PcgOptions pcg;                // used when the PCG path is taken
  /// Run refinement even when no perturbation occurred.
  bool always_refine = false;
  /// Skip the SPD attempt (go straight to the indefinite driver).
  bool assume_indefinite = false;
  /// Operator of the refinement residuals and the certificate.  Direct is
  /// the O(n^2) reference; after a PCG fallback the residuals use Fft.
  toeplitz::MatVecMode residual_mode = toeplitz::MatVecMode::Fft;
};

/// Which path produced the answer.
enum class SolvePath { Spd, Indefinite, IndefinitePerturbed, Pcg };

const char* to_string(SolvePath p);

/// Everything a caller might want to inspect afterwards.
struct SolveReport {
  std::vector<double> x;
  SolvePath path = SolvePath::Spd;
  /// End-to-end route: "schur", "schur+refine", "pcg", "pcg+fallback".
  std::string solver_path = "schur";
  /// Why the policy chose this route (PolicyDecision::reason).
  std::string policy_reason;
  int pcg_iterations = 0;         // matvecs spent in PCG (0 = not attempted)
  double condest = -1.0;          // policy's condition probe, -1 = not probed
  int refinement_steps = 0;
  bool refined = false;
  bool converged = true;          // true on every returned report (else AccuracyNotReached)
  double final_residual = -1.0;   // ||b - T x||_2, -1 when neither PCG nor refinement ran
  /// eta = ||b - Tx||_inf / (||T||_inf ||x||_inf + ||b||_inf), at most
  /// backward_error_bound(n) on the refine and PCG routes; -1 on the plain
  /// Schur route, which computes no residual.
  double backward_error = -1.0;
  int interchanges = 0;
  std::size_t perturbations = 0;
  std::uint64_t factor_flops = 0;
};

/// A refine route whose answer is not certified: its backward error is
/// above backward_error_bound(n) after the refinement steps it took.
class AccuracyNotReached : public std::runtime_error {
 public:
  AccuracyNotReached(double backward_error, double bound, std::string route, int steps);
  double backward_error;  // eta of the rejected answer
  double bound;           // backward_error_bound(n)
  std::string route;      // "schur+refine" or "pcg+fallback"
  int steps;              // refinement steps taken
};

/// Solves T x = b, choosing the solver family and factorization
/// automatically.  Throws SingularMinor only if even the perturbed Schur
/// path cannot proceed, and AccuracyNotReached when refinement cannot
/// bring the answer's backward error within the bound.
SolveReport toeplitz_solve(const toeplitz::BlockToeplitz& t, const std::vector<double>& b,
                           const SolveOptions& opt = {});

}  // namespace bst::core
