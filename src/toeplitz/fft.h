// The FFT engine of the superfast tier, plus the circulant machinery built
// on it.
//
// Used for the fast Toeplitz matrix-vector product (circulant embedding),
// which makes each iterative-refinement residual -- and each iteration of
// the preconditioned CG path (core/pcg.h) -- O(n log n) instead of O(n^2).
// Three layers:
//   * FftPlan: the one transform engine.  A plan for length n holds a table
//     of roots of unity computed once by direct cos/sin; a power-of-two
//     length runs radix-4 Stockham passes (one radix-2 pass when log2 n is
//     odd) in explicit real arithmetic, any other length runs Bluestein's
//     chirp-z through a power-of-two core with the chirp and its spectrum
//     cached.  Real-input transforms keep the n/2 + 1 non-negative bins; at
//     powers of two they are a half-length complex transform plus one
//     post-pass (pre-pass for the inverse).  Transforms make no trig call,
//     take no lock and allocate nothing: callers pass work_size() scratch.
//   * fft() / dft(): one-shot complex transforms through a temporary plan;
//   * CirculantMultiplier / BlockCirculantMultiplier: cached half spectra
//     for repeated products with a fixed (block) circulant / Toeplitz
//     matrix.  Both own their power-of-two embedding and plan internally,
//     so callers never pad; a const multiplier is safe to share across
//     threads (each apply uses its own scratch).
#pragma once

#include <complex>
#include <vector>

#include "toeplitz/block_toeplitz.h"

namespace bst::toeplitz {

using cplx = std::complex<double>;

/// Transform plan for one length n >= 1 (complex or real input).  Every
/// transform works in place on caller memory, with `work` pointing at
/// work_size() complex entries of scratch; const, so one plan serves any
/// number of threads.  Forward transforms are unscaled, inverse transforms
/// carry the 1/n.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n = 1);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  /// Non-negative bins of a real transform: n/2 + 1.
  [[nodiscard]] std::size_t bins() const noexcept { return n_ / 2 + 1; }
  /// Complex scratch entries every transform of this plan needs.
  [[nodiscard]] std::size_t work_size() const noexcept;

  /// In-place DFT of the n complex values at `a`.
  void transform(cplx* a, bool inverse, cplx* work) const;

  /// Real-input DFT in place: `a` holds bins() entries; on entry its first
  /// n doubles are the real input, on exit it holds bins 0 .. n/2.
  void forward_real(cplx* a, cplx* work) const;

  /// Inverse of forward_real: bins 0 .. n/2 of a Hermitian spectrum at `a`
  /// in, the n real samples out in the first n doubles of `a`.
  void inverse_real(cplx* a, cplx* work) const;

 private:
  // Bluestein's circular convolution of work[0, n) with the cached kernel;
  // work holds work_size() entries.
  void convolve(cplx* work) const;

  std::size_t n_;
  std::size_t core_;          // power-of-two core length: n, or Bluestein's next_pow2(2n-1)
  std::vector<cplx> roots_;   // exp(-2 pi i k / core_) for k < 3 core_ / 4 (at least 1)
  std::vector<cplx> chirp_;   // Bluestein: exp(-i pi j^2 / n), j < n
  std::vector<cplx> kernel_;  // Bluestein: spectrum of the conjugate chirp, over core_
};

/// In-place FFT of `a` (size must be a power of two; throws
/// std::invalid_argument otherwise).  `inverse` applies the conjugate
/// transform and the 1/N scaling.  Builds a plan per call; hold an FftPlan
/// to transform one length repeatedly.
void fft(std::vector<cplx>& a, bool inverse);

/// In-place DFT of `a` of *any* length: power-of-two sizes run the radix-4
/// core directly; everything else runs Bluestein's chirp-z algorithm (two
/// power-of-two convolution transforms), so odd and prime lengths cost
/// O(n log n) like the rest.  Builds a plan per call, like fft().
void dft(std::vector<cplx>& a, bool inverse);

/// Smallest power of two >= n (1 for n = 0); throws std::invalid_argument
/// when that power does not fit in size_t.
std::size_t next_pow2(std::size_t n);

/// Precomputed circulant multiplier: y = C x where C is the circulant whose
/// first column is `c`.  Any logical order works: a power-of-two order is
/// diagonalized directly; otherwise the circulant (itself a Toeplitz
/// matrix) is embedded into a circulant of order next_pow2(2n-1) owned by
/// this class -- callers never see or provide the padding.
class CirculantMultiplier {
 public:
  /// Throws std::invalid_argument on an empty column.
  explicit CirculantMultiplier(const std::vector<double>& first_col);

  /// y := C x (x and y of the logical order; y resized as needed).  Throws
  /// std::invalid_argument when x is not of the logical order.
  void apply(const std::vector<double>& x, std::vector<double>& y) const;

  /// Logical circulant order (= first_col.size()).
  [[nodiscard]] std::size_t order() const noexcept { return n_; }

  /// Internal transform length (n for power-of-two orders, else the
  /// embedding order next_pow2(2n-1)).
  [[nodiscard]] std::size_t fft_order() const noexcept { return nfft_; }

 private:
  std::size_t n_ = 0;      // logical circulant order (any size)
  std::size_t nfft_ = 0;   // power-of-two transform length
  FftPlan plan_;
  std::vector<cplx> eig_;  // half spectrum (nfft/2 + 1 bins) of the embedded first column
};

/// Precomputed block-circulant embedding of a symmetric block Toeplitz
/// matrix T (block size m, p block rows, order n = m p): y = T x in
/// O(m^2 P log P) per product (P = next_pow2(2p)) after one
/// O(m^2 P log P) setup that caches the m^2 eigenvalue spectra -- the
/// "eigen-blocks" of the embedding.  The embedding is real, so each
/// spectrum is stored as its P/2 + 1 non-negative bins, a product runs m
/// real forward and m real inverse transforms per column, and the m x m
/// block product runs on the half bins only.  The batched overload runs
/// every right-hand-side column through the same cached spectra with
/// shared scratch, which is what makes multi-RHS residuals in the service
/// layer O(k m^2 P log P) instead of k dense matvecs.  Every overload
/// throws std::invalid_argument on operands whose sizes do not match.
class BlockCirculantMultiplier {
 public:
  explicit BlockCirculantMultiplier(const BlockToeplitz& t);

  /// y := T x (y resized to the order of T).
  void apply(const std::vector<double>& x, std::vector<double>& y) const;

  /// Batched y := T x over columns: x and y are order() x k views (same k).
  void apply(la::CView x, la::View y) const;

  /// r := b - T x.
  void residual(const std::vector<double>& b, const std::vector<double>& x,
                std::vector<double>& r) const;

  /// Batched r := b - T x over columns (all views order() x k).
  void residual(la::CView b, la::CView x, la::View r) const;

  [[nodiscard]] la::index_t order() const noexcept { return n_; }
  [[nodiscard]] la::index_t block_size() const noexcept { return m_; }
  [[nodiscard]] la::index_t num_blocks() const noexcept { return p_; }

  /// Internal circulant order of the embedding (next_pow2(2p)).
  [[nodiscard]] std::size_t fft_order() const noexcept { return nfft_; }

 private:
  // One column through the cached spectra; `scratch` is caller-owned
  // (scratch_size() entries) so batched applies reuse it across columns.
  void apply_col(const double* x, double* y, cplx* scratch) const;
  [[nodiscard]] std::size_t scratch_size() const noexcept;

  la::index_t m_ = 0, p_ = 0, n_ = 0;
  std::size_t nfft_ = 0, bins_ = 0;
  FftPlan plan_;
  std::vector<cplx> eig_;  // m*m half spectra, spectrum ri*m + rj at (ri*m + rj) * bins_
};

}  // namespace bst::toeplitz
