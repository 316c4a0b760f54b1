#include "core/flop_model.h"

#include <bit>
#include <cstdint>

#include "toeplitz/fft.h"

namespace bst::core {
namespace {
double d(index_t v) { return static_cast<double>(v); }

// The nominal 5 N log2 N of one power-of-two complex core transform.
double core_flops(std::size_t len) {
  return 5.0 * static_cast<double>(len) * static_cast<double>(std::countr_zero(len));
}

bool is_pow2(std::size_t n) { return (n & (n - 1)) == 0; }
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

double fft_flops_impl(std::size_t n, bool inverse, bool real) {
  if (n <= 1) return 0.0;
  if (!real) return core_flops(n) + (inverse ? 2.0 * static_cast<double>(n) : 0.0);
  // A length-h complex transform of the interleaved samples, and the pass
  // that splits (joins) the halves: 18 flops per bin pair (k, h - k) with
  // 0 < k < h/2, plus the ends -- 2 for bins 0 and h forward; 4 for them
  // and 2 for bin h/2 inverse.
  const std::size_t h = n / 2;
  const double pairs = static_cast<double>((h - 1) / 2);
  const double pass = inverse ? 4.0 + (h >= 2 ? 2.0 : 0.0) : 2.0;
  return core_flops(h) + 18.0 * pairs + pass;
}

double dft_flops_impl(std::size_t n, bool inverse, bool real) {
  if (n <= 1) return 0.0;
  if (is_pow2(n)) return fft_flops_impl(n, inverse, real);
  // Bluestein through the plan: forward and inverse core transforms at
  // order M with the pointwise kernel product between (6 M), bracketed by
  // the chirp passes: 6 flops per complex product, 2 per real-by-complex
  // product, 4 per real part of one, 2 per scaling.
  const std::size_t core = toeplitz::next_pow2(2 * n - 1);
  const auto nd = static_cast<double>(n);
  const double convolve = 2.0 * core_flops(core) + 6.0 * static_cast<double>(core);
  if (!real) return convolve + 12.0 * nd + (inverse ? 2.0 * nd : 0.0);
  if (inverse) return convolve + 10.0 * nd;
  return convolve + 2.0 * nd + 6.0 * static_cast<double>(n / 2 + 1);
}

double fft_plan_flops_impl(std::size_t n) {
  if (n <= 1 || is_pow2(n)) return 0.0;
  const std::size_t m = toeplitz::next_pow2(2 * n - 1);
  return core_flops(m) + 2.0 * static_cast<double>(m);
}

std::vector<util::PhaseModel> pcg_phase_models(index_t m, index_t p, int iterations) {
  std::vector<util::PhaseModel> out;
  if (m <= 0 || p <= 0) return out;
  const double md = d(m), n = md * d(p);
  const auto pu = static_cast<std::size_t>(p);
  const std::size_t nfft = toeplitz::next_pow2(2 * pu);
  const double embed_bins = static_cast<double>(nfft / 2 + 1);
  const std::size_t bins = pu / 2 + 1;
  const double its = static_cast<double>(iterations);

  // BlockCirculantMultiplier ctor: m^2 real forward transforms at the
  // embedding order (a power of two, so its plan charges nothing).
  out.push_back({"fft_setup", md * md * fft_flops_impl(nfft, false, true), 0.0});

  // CirculantPreconditioner ctor: the length-p plan, m^2 real forward
  // transforms of length p, and the integer-arithmetic Cholesky charge
  // over the p/2 + 1 stored frequencies from pcg.cc.
  const double chol = static_cast<double>(8 * static_cast<std::uint64_t>(m) *
                                          static_cast<std::uint64_t>(m) *
                                          static_cast<std::uint64_t>(m) * bins / 3);
  out.push_back({"pcg_setup",
                 fft_plan_flops_impl(pu) + md * md * dft_flops_impl(pu, false, true) + chol, 0.0});

  // The solve, inclusive of nested spans: per matvec m real forward + m
  // real inverse transforms and the 8 m^2 multiply-accumulate over the
  // embedding's half bins; per preconditioner apply (one initial + one per
  // non-final iteration = `iterations` total on a converged run) 2m real
  // transforms of length p and the 8 m^2 triangular solves per stored
  // frequency; 10 n vector-update flops per iteration; and 3 n per nrm2
  // (||b|| once, then one per iteration).
  const double matvec =
      md * (fft_flops_impl(nfft, false, true) + fft_flops_impl(nfft, true, true)) +
      8.0 * embed_bins * md * md;
  const double precond = md * (dft_flops_impl(pu, false, true) + dft_flops_impl(pu, true, true)) +
                         8.0 * md * md * static_cast<double>(bins);
  out.push_back({"pcg", its * (matvec + precond + 10.0 * n) + 3.0 * n * (its + 1.0), 0.0});
  return out;
}

}  // namespace bst::core
