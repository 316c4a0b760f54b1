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
// Block size: with block_size = 0 the policy also picks the working block
// size m_s of the SPD factorization (choose_block_size, paper section 6.5,
// Fig. 10); a forced route runs the kernels as configured, where 0 means
// the structural m.  The indefinite driver keeps m.
//
// Schur dispatch:
//   1. try the SPD block Schur factorization (cheapest, T = R^T R); a
//      breakdown at a chosen m_s > m retries once at m (factor_spd);
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

/// The working block size m_s that toeplitz_solve and service::Service
/// factor at when the caller leaves block_size = 0: the smallest m 2^j that
/// fills the micro-kernel's row tile (la::kMicroRows = 8 rows) when it
/// divides the order, else m -- so m >= 8 keeps m.  The flops grow as
/// 4 m_s n^2 but the reflector shapes reach the packed BLAS3 path, whose
/// rate grows faster (paper Fig. 10, EXPERIMENTS.md E6); E18 measures the
/// rule against every candidate m_s.  The kernels themselves keep reading
/// block_size = 0 as the structural m.
index_t choose_block_size(const toeplitz::BlockToeplitz& t);

/// The SPD factorization of the entry points: at opt.block_size when it is
/// set, else at choose_block_size(t).  A NotPositiveDefinite at a chosen
/// m_s > m retries once at m (prolate(1024, 0.49) breaks down at every
/// m_s > 1 and factors at m = 1); a breakdown there propagates.  The
/// factor's block_size is the m_s in effect.
SchurFactor factor_spd(const toeplitz::BlockToeplitz& t, SchurOptions opt);

/// Why a factor of `t` has block size `in_effect`, given the `requested`
/// one: "caller" (requested != 0), "policy" (choose_block_size's m_s) or
/// "retry_at_m" (the chosen m_s broke down; factor_spd redid it at m).
const char* block_size_reason(const toeplitz::BlockToeplitz& t, index_t requested,
                              index_t in_effect);

/// Options for the one-call solver.
struct SolveOptions {
  SchurOptions spd;              // the SPD attempt (block_size 0: factor_spd's m_s)
  IndefiniteOptions indefinite;  // the fallback (block_size 0: the structural m)
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
  /// Working block size m_s of the factor that produced the answer, and
  /// why it has it: "caller", "policy" or "retry_at_m" (block_size_reason;
  /// the indefinite driver's m is "policy", any m_s under a forced route
  /// "caller").  0 and "" on the pcg route, which factors nothing.
  index_t block_size = 0;
  std::string block_size_reason;
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
