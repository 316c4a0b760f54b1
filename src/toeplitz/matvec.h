// Matrix-vector products with symmetric block Toeplitz matrices.
//
// Iterative refinement (paper section 8) needs residuals r = b - T x against
// the *exact* structured matrix.  Two evaluators are provided:
//   * Direct:  one gemm per block diagonal and side (2p - 1 calls),
//              2 n^2 flops per product, no setup cost.  The reference that
//              tests and benches compare against.
//   * Fft:     block-circulant embedding (toeplitz/fft.h), O(m^2 P log P)
//              per product after O(m^2 P log P) setup; the spectra are
//              cached once per operator and shared by every residual,
//              including the batched multi-RHS overloads.  The solvers'
//              operator.
// Every operator also knows ||T||_inf exactly, so a residual it computed
// yields the normwise backward error of the answer (backward_error).
#pragma once

#include <memory>
#include <vector>

#include "toeplitz/block_toeplitz.h"
#include "toeplitz/fft.h"

namespace bst::toeplitz {

/// Evaluation strategy for MatVec.
enum class MatVecMode { Direct, Fft };

/// Reusable y = T x operator for a fixed symmetric block Toeplitz T.
class MatVec {
 public:
  /// Computes ||T||_inf in O(p m^2) and, in Fft mode, the spectra.
  explicit MatVec(const BlockToeplitz& t, MatVecMode mode);

  /// y := T x (y resized to the order of T).
  void apply(const std::vector<double>& x, std::vector<double>& y) const;

  /// Batched y := T x over columns (x and y are order x k views).
  void apply(la::CView x, la::View y) const;

  /// r := b - T x.
  void residual(const std::vector<double>& b, const std::vector<double>& x,
                std::vector<double>& r) const;

  /// Batched r := b - T x over columns (all views order x k).
  void residual(la::CView b, la::CView x, la::View r) const;

  /// Normwise backward error of x in the form of Bojanczyk, Brent and
  /// de Hoog (weakly stable Toeplitz solvers):
  ///     eta = ||r||_inf / (||T||_inf ||x||_inf + ||b||_inf),
  /// from a residual r = b - T x this operator already computed.  +inf
  /// when r, x or ||T|| is not finite; 0 when r = 0 and the rest is 0.
  [[nodiscard]] double backward_error(const std::vector<double>& b, const std::vector<double>& x,
                                      const std::vector<double>& r) const;

  [[nodiscard]] la::index_t order() const noexcept { return t_.order(); }
  [[nodiscard]] MatVecMode mode() const noexcept { return mode_; }
  /// ||T||_inf, exact up to rounding of the row sums.
  [[nodiscard]] double norm_inf() const noexcept { return norm_inf_; }

 private:
  void apply_direct(const double* x, double* y) const;

  BlockToeplitz t_;
  MatVecMode mode_;
  double norm_inf_;
  // FFT path: the block-circulant embedding with its cached eigen-blocks.
  // Shared so MatVec stays cheap to copy.
  std::shared_ptr<const BlockCirculantMultiplier> fftmul_;
};

}  // namespace bst::toeplitz
