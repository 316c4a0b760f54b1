// Circulant-preconditioned conjugate gradients for symmetric block
// Toeplitz systems -- the "superfast" O(n log n) tier.
//
// The Schur factorization costs O(p^2) block operations; for large,
// well-conditioned systems CG with a Strang-type block-circulant
// preconditioner gets to machine precision in O(1) iterations of
// O(m^2 P log P) work each (P = next_pow2(2p)), because the preconditioned
// spectrum clusters at 1 for Wiener-class symbols (Chan & Strang).  Both
// the operator (toeplitz::MatVec in Fft mode) and the preconditioner run
// on the one transform engine of toeplitz/fft.h (toeplitz::FftPlan).
//
// The preconditioner M is the block circulant that copies T's central
// block diagonals and wraps them: W_l = A_l for l < p/2, A_{l-p} for
// l > p/2, and the average of both for l = p/2 (A_d is T's block at
// offset d).  Symmetry of T gives W_{p-l} = W_l^T, so M is symmetric and
// its frequency blocks  What_f = sum_l W_l e^{-2 pi i f l / p}  are
// Hermitian; the W_l are real, so What_{p-f} = conj(What_f) as well.  The
// preconditioner therefore transforms real sequences and keeps, factors
// (complex Cholesky LL^H) and solves only the frequencies 0 .. floor(p/2),
// at every p.  A solve M z = r is m real forward transforms of length p,
// floor(p/2) + 1 independent m x m triangular solve pairs, and m real
// inverse transforms.  When some frequency block is not positive definite,
// M is not SPD and the solver policy (core/solver.h) keeps such systems on
// the Schur path.
#pragma once

#include <vector>

#include "toeplitz/block_toeplitz.h"
#include "toeplitz/fft.h"
#include "toeplitz/matvec.h"

namespace bst::core {

/// Strang-type block-circulant preconditioner for a symmetric block
/// Toeplitz matrix, factored per frequency at construction.
class CirculantPreconditioner {
 public:
  explicit CirculantPreconditioner(const toeplitz::BlockToeplitz& t);

  /// z := M^{-1} r (z resized to the order).  Throws
  /// std::invalid_argument when !positive_definite() or when r is not of
  /// the order.
  void apply_inverse(const std::vector<double>& r, std::vector<double>& z) const;

  /// Whether every frequency block admitted a Cholesky factorization
  /// (equivalently: M is SPD).  When false, apply_inverse throws and PCG is
  /// off the table for this matrix.
  [[nodiscard]] bool positive_definite() const noexcept { return spd_; }

  [[nodiscard]] la::index_t order() const noexcept { return m_ * p_; }
  [[nodiscard]] la::index_t block_size() const noexcept { return m_; }
  [[nodiscard]] la::index_t num_blocks() const noexcept { return p_; }

  /// Extreme squared Cholesky pivots across all frequency blocks -- a
  /// crude proxy for M's spectral range, recorded in reports.
  [[nodiscard]] double min_pivot() const noexcept { return min_pivot_; }
  [[nodiscard]] double max_pivot() const noexcept { return max_pivot_; }

 private:
  la::index_t m_ = 0, p_ = 0;
  bool spd_ = true;
  double min_pivot_ = 0.0, max_pivot_ = 0.0;
  toeplitz::FftPlan plan_;  // length p
  // floor(p/2) + 1 frequency blocks, each a column-major m x m lower factor
  // L with L L^H = What_f, its diagonal stored as the reciprocals the
  // solves multiply by; frequency f starts at f*m*m.
  std::vector<toeplitz::cplx> fac_;
};

/// Options for pcg_solve.
struct PcgOptions {
  int max_iters = 500;
  /// Stop when ||r_k||_2 <= tol * ||b||_2.
  double tol = 1e-13;

  /// Overlays BST_PCG_TOL / BST_PCG_MAXIT onto `base` (defaults if omitted).
  static PcgOptions from_env(PcgOptions base);
  static PcgOptions from_env() { return from_env(PcgOptions{}); }
};

/// Outcome of pcg_solve.
struct PcgResult {
  std::vector<double> x;
  bool converged = false;
  int iterations = 0;                  // matvecs performed
  std::vector<double> residual_norms;  // ||r_k|| per iteration (r_0 = b first)
};

/// Solves T x = b by preconditioned CG.  `op` must evaluate the exact
/// Toeplitz operator (use MatVecMode::Fft for the O(n log n) cost this
/// path exists for); `precond` must be positive_definite().  Throws
/// std::invalid_argument when b or `precond` does not match the order of
/// `op`.  Non-SPD
/// systems surface as breakdown (p^T T p <= 0) or divergence; both stop
/// early, leave converged == false, and raise watchdog warnings
/// ("pcg_breakdown" / "pcg_divergence" / "pcg_no_convergence") so the
/// caller can fall back to the Schur path.
PcgResult pcg_solve(const toeplitz::MatVec& op, const CirculantPreconditioner& precond,
                    const std::vector<double>& b, const PcgOptions& opt = {});

/// 1-norm condition estimate of the *preconditioner* standing in for T:
/// ||T||_1 upper bound (BlockToeplitz::norm1_upper) times Hager's estimate
/// of ||M^{-1}||_1.  Since M ~ T exactly in the regime where PCG pays off,
/// this is the cheap O(m^2 p log p) condition probe the solver-crossover
/// policy runs before committing to a path.  Returns +inf when the
/// preconditioner is not positive definite.
double circulant_condest(const toeplitz::BlockToeplitz& t,
                         const CirculantPreconditioner& precond);

}  // namespace bst::core
