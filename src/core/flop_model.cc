#include "core/flop_model.h"

#include <cstdint>

#include "toeplitz/fft.h"

namespace bst::core {
namespace {
double d(index_t v) { return static_cast<double>(v); }
}  // namespace

double blocking_flops_accumulated_u(index_t m_, index_t k_) {
  const double m = d(m_), k = d(k_);
  // Eq. 25: 4m^2 k + 2m k^2 - 3m^2 + 4mk + 0.5k^2 + m + 10.5k.
  return 4 * m * m * k + 2 * m * k * k - 3 * m * m + 4 * m * k + 0.5 * k * k + m + 10.5 * k;
}

double blocking_flops_vy1(index_t m_, index_t k_) {
  const double m = d(m_), k = d(k_);
  // Eq. 26: ~ 2mk^2 + k^3/3 + 3.5mk + 0.25k^2 - m + 9k.
  return 2 * m * k * k + k * k * k / 3.0 + 3.5 * m * k + 0.25 * k * k - m + 9 * k;
}

double blocking_flops_vy2(index_t m_, index_t k_) {
  const double m = d(m_), k = d(k_);
  // Eq. 27: 2mk^2 + 2.5mk + 0.5k^2 - 0.5m + 8.5k.
  return 2 * m * k * k + 2.5 * m * k + 0.5 * k * k - 0.5 * m + 8.5 * k;
}

double blocking_flops_yty(index_t m_, index_t k_) {
  const double m = d(m_), k = d(k_);
  // Eq. 28: ~ mk^2 + k^3/3 + 3.5mk + 0.25k^2 + 9k - m - 1.
  return m * k * k + k * k * k / 3.0 + 3.5 * m * k + 0.25 * k * k + 9 * k - m - 1;
}

double application_flops_accumulated_u(index_t m_, index_t p_, index_t k_) {
  const double m = d(m_), p = d(p_), k = d(k_);
  // Eq. 29: 2m^3 p + 4m^2 p k + m p k^2 + m p k.
  return 2 * m * m * m * p + 4 * m * m * p * k + m * p * k * k + m * p * k;
}

double application_flops_vy1(index_t m_, index_t p_, index_t k_) {
  const double m = d(m_), p = d(p_), k = d(k_);
  // Eq. 30: 4m^2 p k + m p k^2 + 3 m p k (+ m^2 p when k odd).
  double f = 4 * m * m * p * k + m * p * k * k + 3 * m * p * k;
  if (k_ % 2 == 1) f += m * m * p;
  return f;
}

double application_flops_vy2(index_t m_, index_t p_, index_t k_) {
  const double m = d(m_), p = d(p_), k = d(k_);
  // Eq. 31: 4m^2 p k + m p k^2 + 2 m p k (+ m^2 p when k odd).
  double f = 4 * m * m * p * k + m * p * k * k + 2 * m * p * k;
  if (k_ % 2 == 1) f += m * m * p;
  return f;
}

double application_flops_yty(index_t m_, index_t p_, index_t k_) {
  const double m = d(m_), p = d(p_), k = d(k_);
  // Eq. 32: 4m^2 p k + m p k^2 + m^2 p + 4 m p k.
  return 4 * m * m * p * k + m * p * k * k + m * m * p + 4 * m * p * k;
}

double blocking_flops(Representation rep, index_t m, index_t k) {
  switch (rep) {
    case Representation::AccumulatedU: return blocking_flops_accumulated_u(m, k);
    case Representation::VY1: return blocking_flops_vy1(m, k);
    case Representation::VY2: return blocking_flops_vy2(m, k);
    case Representation::YTY: return blocking_flops_yty(m, k);
    case Representation::Sequential: return d(m) * (3 * d(m) + 8);  // reflector setup only
  }
  return 0.0;
}

double application_flops(Representation rep, index_t m, index_t p, index_t k) {
  switch (rep) {
    case Representation::AccumulatedU: return application_flops_accumulated_u(m, p, k);
    case Representation::VY1: return application_flops_vy1(m, p, k);
    case Representation::VY2: return application_flops_vy2(m, p, k);
    case Representation::YTY: return application_flops_yty(m, p, k);
    case Representation::Sequential:
      // k reflectors, each ~ (4m + 3) flops per generator column.
      return d(k) * d(m) * d(p) * (4 * d(m) + 3);
  }
  return 0.0;
}

double blocking_flops_impl(Representation rep, index_t m_, index_t k_) {
  const double m = d(m_), k = d(k_);
  // Per reflector j (0-based pivot): make_reflector charges 3*2m (the
  // hyperbolic norm) + 2*2m + 8, and the restricted pivot-column update
  // charges (m - j)(5m + 4) (block_reflector.cc, single-level cend = m).
  double f = k * (10 * m + 8) + (5 * m + 4) * (k * m - k * (k - 1) / 2.0);
  switch (rep) {
    case Representation::AccumulatedU:
      // accumulate(): one 2m x 2m gemv + one 2m x 2m ger per reflector.
      f += 16 * m * m * k;
      break;
    case Representation::VY1:
    case Representation::VY2:
      // Two 2m x j gemvs (VY1) or a gemv + ger pair (VY2) at reflector j.
      f += 4 * m * k * (k - 1);
      break;
    case Representation::YTY:
      // One 2m x j gemv plus the j(j+1) triangular T-row update.
      f += 2 * m * k * (k - 1) + (k - 1) * k * (2 * k - 1) / 6.0 + k * (k - 1) / 2.0;
      break;
    case Representation::Sequential:
      break;
  }
  return f;
}

double application_flops_per_column(Representation rep, index_t m_, index_t k_) {
  const double m = d(m_), k = d(k_);
  switch (rep) {
    case Representation::AccumulatedU:
      // The 2m x 2m composite against a column of [A; B].
      return 8 * m * m;
    case Representation::VY1:
      // Z = Y^T [A;B] (depth 2m), pivot-sparse V_up (2k), V_low product.
      return 6 * m * k + 2 * k;
    case Representation::VY2:
      // Z product + diagonal Y_up (2k), triangular V_up (k(k+1)), V_low product.
      return 4 * m * k + k * (k + 1) + 2 * k;
    case Representation::YTY:
      // Z product + diag (2k), triangular T (k(k+1)), diag (2k), Y_low product.
      return 4 * m * k + k * (k + 1) + 4 * k;
    case Representation::Sequential:
      return k * (5 * m + 4);
  }
  return 0.0;
}

double application_flops_impl(Representation rep, index_t m, index_t p, index_t k) {
  return application_flops_per_column(rep, m, k) * d(m) * d(p);
}

std::vector<util::PhaseModel> schur_phase_models(Representation rep, index_t n, index_t ms) {
  std::vector<util::PhaseModel> out;
  if (n <= 0 || ms <= 0 || n % ms != 0) return out;
  const index_t p = n / ms;
  util::PhaseModel build{"reflector_build", 0.0, 0.0};
  util::PhaseModel apply{"reflector_apply", 0.0, 0.0};
  // block_schur_stream: steps i = 1..p-1, each builds a full m_s-reflector
  // block and applies it to the p-1-i trailing block columns (schur.cc).
  for (index_t i = 1; i < p; ++i) {
    build.model_flops += blocking_flops_impl(rep, ms, ms);
    build.paper_flops += blocking_flops(rep, ms, ms);
    const index_t trailing = p - i - 1;
    if (trailing > 0) {
      apply.model_flops += application_flops_impl(rep, ms, trailing, ms);
      apply.paper_flops += application_flops(rep, ms, trailing, ms);
    }
  }
  out.push_back(std::move(build));
  out.push_back(std::move(apply));
  return out;
}

double factorization_flops_model(index_t n, index_t ms) {
  return 4.0 * d(ms) * d(n) * d(n);
}

double fft_flops_impl(std::size_t n, bool inverse) {
  if (n <= 1) return 0.0;
  std::uint64_t log2n = 0;
  for (std::size_t v = n; v > 1; v >>= 1) ++log2n;
  return 5.0 * static_cast<double>(n) * static_cast<double>(log2n) +
         (inverse ? static_cast<double>(n) : 0.0);
}

double dft_flops_impl(std::size_t n, bool inverse) {
  if (n <= 1) return 0.0;
  if ((n & (n - 1)) == 0) return fft_flops_impl(n, inverse);
  // Bluestein: two forward and one inverse transform at the embedding
  // order, plus the explicitly charged chirp/pointwise work.  The cost is
  // direction-independent (the inverse only changes the chirp's sign).
  const std::size_t nfft = toeplitz::next_pow2(2 * n - 1);
  return 2.0 * fft_flops_impl(nfft, false) + fft_flops_impl(nfft, true) +
         6.0 * static_cast<double>(nfft) + 12.0 * static_cast<double>(n);
}

std::vector<util::PhaseModel> pcg_phase_models(index_t m, index_t p, int iterations) {
  std::vector<util::PhaseModel> out;
  if (m <= 0 || p <= 0) return out;
  const double md = d(m), pd = d(p), n = md * pd;
  const std::size_t nfft = toeplitz::next_pow2(2 * static_cast<std::size_t>(p));
  const double its = static_cast<double>(iterations);

  // BlockCirculantMultiplier ctor: m^2 forward transforms at the embedding
  // order (the pointwise assembly is copies, not flops).
  out.push_back({"fft_setup", md * md * fft_flops_impl(nfft, false), 0.0});

  // CirculantPreconditioner ctor: m^2 forward DFTs of length p plus the
  // integer-arithmetic Cholesky charge from pcg.cc.
  const double chol = static_cast<double>(8 * static_cast<std::uint64_t>(m) *
                                          static_cast<std::uint64_t>(m) *
                                          static_cast<std::uint64_t>(m) *
                                          static_cast<std::uint64_t>(p) / 3);
  out.push_back({"pcg_setup", md * md * dft_flops_impl(static_cast<std::size_t>(p), false) + chol,
                 0.0});

  // The solve, inclusive of nested spans: per matvec m forward + m inverse
  // transforms and the 8 P m^2 spectral accumulate; per preconditioner
  // apply (one initial + one per non-final iteration = `iterations` total
  // on a converged run) 2m DFTs of length p and the 8 m^2 p triangular
  // solves; plus 10 n vector-update flops per iteration.
  const double matvec = md * (fft_flops_impl(nfft, false) + fft_flops_impl(nfft, true)) +
                        8.0 * static_cast<double>(nfft) * md * md;
  const double precond = md * (dft_flops_impl(static_cast<std::size_t>(p), false) +
                               dft_flops_impl(static_cast<std::size_t>(p), true)) +
                         8.0 * md * md * pd;
  out.push_back({"pcg", its * (matvec + precond + 10.0 * n), 0.0});
  return out;
}

}  // namespace bst::core
