#include "toeplitz/fft.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/flops.h"
#include "util/trace.h"

namespace bst::toeplitz {
namespace {
const util::PhaseId kFftPhase = util::Tracer::phase("fft");
const util::PhaseId kDftPhase = util::Tracer::phase("dft");
const util::PhaseId kFftSetupPhase = util::Tracer::phase("fft_setup");

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

double* re(cplx* a) { return reinterpret_cast<double*>(a); }
const double* re(const cplx* a) { return reinterpret_cast<const double*>(a); }

// The nominal 5 N log2 N flops charged for one power-of-two complex core
// transform of length N.
std::uint64_t core_flops(std::size_t len) {
  return 5 * static_cast<std::uint64_t>(len) * static_cast<std::uint64_t>(std::countr_zero(len));
}

// exp(-2 pi i k / n), evaluated at an angle in [0, pi/4] and mapped to its
// octant by exact swaps and sign flips, so every entry of a table is as
// accurate as one cos/sin (a recurrence compounds its error with n).
cplx unit_root(std::size_t k, std::size_t n) {
  k %= n;
  const std::size_t quadrant = 4 * k / n;
  std::size_t r = 4 * k - quadrant * n;  // angle within the quadrant, in units of pi / (2n)
  const bool upper = 2 * r > n;          // past pi/4: use the complementary angle
  if (upper) r = n - r;
  const double t = M_PI * static_cast<double>(r) / (2.0 * static_cast<double>(n));
  double c = std::cos(t), s = std::sin(t);
  if (upper) std::swap(c, s);
  switch (quadrant) {
    case 0: return {c, -s};
    case 1: return {-s, -c};
    case 2: return {-c, s};
    default: return {s, c};
  }
}

// One radix-4 decimation-in-frequency Stockham pass: s interleaved
// sequences of length n in `x` become 4s interleaved sequences of length
// n/4 in `y`.  roots[p * step] = exp(-2 pi i p / n).
template <bool Inv>
void radix4_pass(const double* __restrict x, double* __restrict y, std::size_t n,
                 std::size_t s, const double* roots, std::size_t step) {
  const std::size_t n1 = n / 4, d = 2 * s;
  for (std::size_t p = 0; p < n1; ++p) {
    const double* w1 = roots + 2 * (p * step);
    const double* w2 = roots + 4 * (p * step);
    const double* w3 = roots + 6 * (p * step);
    const double w1r = w1[0], w1i = Inv ? -w1[1] : w1[1];
    const double w2r = w2[0], w2i = Inv ? -w2[1] : w2[1];
    const double w3r = w3[0], w3i = Inv ? -w3[1] : w3[1];
    const double* xa = x + d * p;
    const double* xb = xa + d * n1;
    const double* xc = xb + d * n1;
    const double* xd = xc + d * n1;
    double* y0 = y + 4 * d * p;
    double* y1 = y0 + d;
    double* y2 = y1 + d;
    double* y3 = y2 + d;
    for (std::size_t q = 0; q < d; q += 2) {
      const double apcr = xa[q] + xc[q], apci = xa[q + 1] + xc[q + 1];
      const double amcr = xa[q] - xc[q], amci = xa[q + 1] - xc[q + 1];
      const double bpdr = xb[q] + xd[q], bpdi = xb[q + 1] + xd[q + 1];
      const double bmdr = xb[q] - xd[q], bmdi = xb[q + 1] - xd[q + 1];
      // (a - c) -/+ i (b - d) for outputs 1 and 3 (signs swap for the inverse).
      const double t1r = Inv ? amcr - bmdi : amcr + bmdi;
      const double t1i = Inv ? amci + bmdr : amci - bmdr;
      const double t3r = Inv ? amcr + bmdi : amcr - bmdi;
      const double t3i = Inv ? amci - bmdr : amci + bmdr;
      const double t2r = apcr - bpdr, t2i = apci - bpdi;
      y0[q] = apcr + bpdr;
      y0[q + 1] = apci + bpdi;
      y1[q] = w1r * t1r - w1i * t1i;
      y1[q + 1] = w1r * t1i + w1i * t1r;
      y2[q] = w2r * t2r - w2i * t2i;
      y2[q + 1] = w2r * t2i + w2i * t2r;
      y3[q] = w3r * t3r - w3i * t3i;
      y3[q + 1] = w3r * t3i + w3i * t3r;
    }
  }
}

// The last pass at n = 4 (all twiddles 1).  Inputs and outputs of one q
// share their indices, so `x` may equal `y`.
template <bool Inv>
void radix4_last(const double* x, double* y, std::size_t s) {
  const std::size_t d = 2 * s;
  for (std::size_t q = 0; q < d; q += 2) {
    const double ar = x[q], ai = x[q + 1], br = x[q + d], bi = x[q + d + 1];
    const double cr = x[q + 2 * d], ci = x[q + 2 * d + 1];
    const double dr = x[q + 3 * d], di = x[q + 3 * d + 1];
    const double apcr = ar + cr, apci = ai + ci, amcr = ar - cr, amci = ai - ci;
    const double bpdr = br + dr, bpdi = bi + di, bmdr = br - dr, bmdi = bi - di;
    y[q] = apcr + bpdr;
    y[q + 1] = apci + bpdi;
    y[q + d] = Inv ? amcr - bmdi : amcr + bmdi;
    y[q + d + 1] = Inv ? amci + bmdr : amci - bmdr;
    y[q + 2 * d] = apcr - bpdr;
    y[q + 2 * d + 1] = apci - bpdi;
    y[q + 3 * d] = Inv ? amcr + bmdi : amcr - bmdi;
    y[q + 3 * d + 1] = Inv ? amci - bmdr : amci + bmdr;
  }
}

// The last pass at n = 2 (twiddle 1); `x` may equal `y`.
void radix2_last(const double* x, double* y, std::size_t s) {
  const std::size_t d = 2 * s;
  for (std::size_t q = 0; q < d; ++q) {
    const double a = x[q], b = x[q + d];
    y[q] = a + b;
    y[q + d] = a - b;
  }
}

// Unscaled complex transform of the len (a power of two) values at `a`,
// in place, with `work` (len entries) as the Stockham ping-pong buffer.
// Complex entry k * stride of the interleaved `roots` is exp(-2 pi i k / len).
template <bool Inv>
void core(double* a, double* work, std::size_t len, const double* roots, std::size_t stride) {
  double* src = a;
  double* dst = work;
  std::size_t n = len, s = 1;
  for (; n > 4; n /= 4, s *= 4) {
    radix4_pass<Inv>(src, dst, n, s, roots, stride * s);
    std::swap(src, dst);
  }
  if (n == 4) radix4_last<Inv>(src, a, s);
  if (n == 2) radix2_last(src, a, s);
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  if (n > std::bit_floor(SIZE_MAX)) {
    throw std::invalid_argument("next_pow2: no power of two >= " + std::to_string(n) +
                                " fits in size_t");
  }
  return std::bit_ceil(n);
}

FftPlan::FftPlan(std::size_t n)
    : n_(n), core_(n == 0 || is_pow2(n) ? n : next_pow2(2 * n - 1)) {
  if (n == 0) throw std::invalid_argument("FftPlan: the length must be positive");
  roots_.resize(std::max<std::size_t>(1, 3 * core_ / 4));
  for (std::size_t k = 0; k < roots_.size(); ++k) roots_[k] = unit_root(k, core_);
  if (core_ == n_) return;
  // Bluestein: exp(-2 pi i j k / n) = c_j c_k conj(c_{k-j}) with
  // c_j = exp(-i pi j^2 / n), so a DFT is a chirp, a circular convolution
  // with conj(c) at order core_ >= 2n - 1, and a chirp.  j^2 is kept mod
  // 2n (the chirp's period) by exact integer steps.
  chirp_.resize(n_);
  for (std::size_t j = 0, sq = 0; j < n_; ++j) {
    chirp_[j] = unit_root(sq, 2 * n_);
    sq = (sq + 2 * j + 1) % (2 * n_);
  }
  kernel_.assign(core_, cplx{});
  kernel_[0] = 1.0;
  for (std::size_t j = 1; j < n_; ++j) kernel_[j] = kernel_[core_ - j] = std::conj(chirp_[j]);
  std::vector<cplx> work(core_);
  core<false>(re(kernel_.data()), re(work.data()), core_, re(roots_.data()), 1);
  // Fold the inverse core transform's 1/core_ into the cached spectrum.
  const double inv = 1.0 / static_cast<double>(core_);
  for (auto& v : kernel_) v *= inv;
  util::FlopCounter::charge(core_flops(core_) + 2 * static_cast<std::uint64_t>(core_));
}

std::size_t FftPlan::work_size() const noexcept { return core_ == n_ ? n_ : 2 * core_; }

void FftPlan::transform(cplx* a, bool inverse, cplx* work) const {
  if (n_ == 1) return;
  const std::uint64_t n = n_;
  if (core_ == n_) {
    util::TraceSpan span(kFftPhase);
    util::FlopCounter::charge(core_flops(n_) + (inverse ? 2 * n : 0));
    if (inverse) {
      core<true>(re(a), re(work), n_, re(roots_.data()), 1);
      const double inv = 1.0 / static_cast<double>(n_);
      for (std::size_t i = 0; i < n_; ++i) a[i] *= inv;
    } else {
      core<false>(re(a), re(work), n_, re(roots_.data()), 1);
    }
    return;
  }
  // Bluestein; the inverse is conj(DFT(conj a)) / n.
  util::TraceSpan span(kDftPhase);
  util::FlopCounter::charge(12 * n + (inverse ? 2 * n : 0));
  for (std::size_t j = 0; j < n_; ++j) work[j] = (inverse ? std::conj(a[j]) : a[j]) * chirp_[j];
  convolve(work);
  const double inv = 1.0 / static_cast<double>(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const cplx v = work[k] * chirp_[k];
    a[k] = inverse ? std::conj(v) * inv : v;
  }
}

void FftPlan::forward_real(cplx* a, cplx* work) const {
  double* x = re(a);
  if (n_ == 1) {
    x[1] = 0.0;
    return;
  }
  if (core_ != n_) {
    util::TraceSpan span(kDftPhase);
    util::FlopCounter::charge(2 * static_cast<std::uint64_t>(n_) + 6 * bins());
    for (std::size_t j = 0; j < n_; ++j) work[j] = x[j] * chirp_[j];
    convolve(work);
    for (std::size_t k = 0; k < bins(); ++k) a[k] = work[k] * chirp_[k];
    return;
  }
  // The n reals are h = n/2 complex values z_j = x_{2j} + i x_{2j+1}; with
  // Z = DFT_h(z), the even and odd samples' spectra are
  // E_k = (Z_k + conj Z_{h-k}) / 2 and O_k = (Z_k - conj Z_{h-k}) / 2i, and
  // X_k = E_k + W^k O_k, X_{h-k} = conj(E_k - W^k O_k), W = exp(-2 pi i / n).
  util::TraceSpan span(kFftPhase);
  const std::size_t h = n_ / 2, pairs = (h - 1) / 2;
  util::FlopCounter::charge(core_flops(h) + 2 + 18 * static_cast<std::uint64_t>(pairs));
  core<false>(x, re(work), h, re(roots_.data()), 2);
  const double* w = re(roots_.data());
  const double z0r = x[0], z0i = x[1];
  x[0] = z0r + z0i;
  x[1] = 0.0;
  x[2 * h] = z0r - z0i;
  x[2 * h + 1] = 0.0;
  for (std::size_t k = 1; k <= pairs; ++k) {
    const std::size_t j = h - k;
    const double ar = x[2 * k], ai = x[2 * k + 1], br = x[2 * j], bi = x[2 * j + 1];
    const double sr = ar + br, si = ai - bi;  // 2 E_k
    const double dr = ar - br, di = ai + bi;  // 2i O_k
    const double wr = w[2 * k], wi = w[2 * k + 1];
    const double tr = wr * di + wi * dr, ti = wi * di - wr * dr;  // 2 W^k O_k
    x[2 * k] = 0.5 * (sr + tr);
    x[2 * k + 1] = 0.5 * (si + ti);
    x[2 * j] = 0.5 * (sr - tr);
    x[2 * j + 1] = 0.5 * (ti - si);
  }
  if (h >= 2) x[h + 1] = -x[h + 1];  // X_{h/2} = conj Z_{h/2}
}

void FftPlan::inverse_real(cplx* a, cplx* work) const {
  double* x = re(a);
  if (n_ == 1) return;
  const double inv = 1.0 / static_cast<double>(n_);
  if (core_ != n_) {
    // The full spectrum is X_j for j < bins() and conj X_{n-j} beyond; the
    // samples are Re conj(DFT(conj X)) / n.
    util::TraceSpan span(kDftPhase);
    util::FlopCounter::charge(10 * static_cast<std::uint64_t>(n_));
    for (std::size_t j = 0; j < n_; ++j) {
      work[j] = (j < bins() ? std::conj(a[j]) : a[n_ - j]) * chirp_[j];
    }
    convolve(work);
    for (std::size_t k = 0; k < n_; ++k) {
      x[k] = (work[k].real() * chirp_[k].real() - work[k].imag() * chirp_[k].imag()) * inv;
    }
    return;
  }
  // forward_real run backwards: Z_k = (E_k + i O_k) / h with
  // 2 E_k = X_k + conj X_{h-k} and 2 O_k = conj(W^k) (X_k - conj X_{h-k}),
  // then an unscaled inverse transform of length h leaves the samples
  // interleaved in place.
  util::TraceSpan span(kFftPhase);
  const std::size_t h = n_ / 2, pairs = (h - 1) / 2;
  util::FlopCounter::charge(core_flops(h) + 4 + 18 * static_cast<std::uint64_t>(pairs) +
                            (h >= 2 ? 2 : 0));
  const double* w = re(roots_.data());
  const double x0 = x[0], xh = x[2 * h];
  x[0] = inv * (x0 + xh);
  x[1] = inv * (x0 - xh);
  for (std::size_t k = 1; k <= pairs; ++k) {
    const std::size_t j = h - k;
    const double ar = x[2 * k], ai = x[2 * k + 1], br = x[2 * j], bi = x[2 * j + 1];
    const double sr = ar + br, si = ai - bi;  // 2 E_k
    const double dr = ar - br, di = ai + bi;
    const double wr = w[2 * k], wi = w[2 * k + 1];
    const double tr = wi * dr - wr * di, ti = wr * dr + wi * di;  // 2i O_k
    x[2 * k] = inv * (sr + tr);
    x[2 * k + 1] = inv * (si + ti);
    x[2 * j] = inv * (sr - tr);
    x[2 * j + 1] = inv * (ti - si);
  }
  if (h >= 2) {
    x[h] *= 2.0 * inv;
    x[h + 1] *= -2.0 * inv;
  }
  core<true>(x, re(work), h, re(roots_.data()), 2);
}

// work[0, n) holds the chirped input; work[core_, 2 core_) is the core's
// scratch.  The kernel carries the inverse core transform's 1/core_.
void FftPlan::convolve(cplx* work) const {
  util::FlopCounter::charge(2 * core_flops(core_) + 6 * static_cast<std::uint64_t>(core_));
  std::fill(work + n_, work + core_, cplx{});
  double* w = re(work);
  double* scratch = re(work + core_);
  core<false>(w, scratch, core_, re(roots_.data()), 1);
  const double* k = re(kernel_.data());
  for (std::size_t i = 0; i < 2 * core_; i += 2) {
    const double vr = w[i], vi = w[i + 1];
    w[i] = vr * k[i] - vi * k[i + 1];
    w[i + 1] = vr * k[i + 1] + vi * k[i];
  }
  core<true>(w, scratch, core_, re(roots_.data()), 1);
}

void fft(std::vector<cplx>& a, bool inverse) {
  if (!a.empty() && !is_pow2(a.size())) {
    throw std::invalid_argument("fft: length " + std::to_string(a.size()) +
                                " is not a power of two");
  }
  dft(a, inverse);
}

void dft(std::vector<cplx>& a, bool inverse) {
  if (a.size() <= 1) return;
  const FftPlan plan(a.size());
  std::vector<cplx> work(plan.work_size());
  plan.transform(a.data(), inverse, work.data());
}

CirculantMultiplier::CirculantMultiplier(const std::vector<double>& first_col)
    : n_(first_col.size()) {
  if (n_ == 0) throw std::invalid_argument("CirculantMultiplier: empty first column");
  // A power-of-two order is diagonalized directly.  Any other order is a
  // Toeplitz matrix with first column c and first row [c_0, c_{n-1}, ...,
  // c_1], embedded into a circulant of order next_pow2(2n-1) whose products
  // restricted to the leading n entries are exact (zero padding prevents
  // wraparound).
  nfft_ = is_pow2(n_) ? n_ : next_pow2(2 * n_ - 1);
  plan_ = FftPlan(nfft_);
  eig_.assign(plan_.bins(), cplx{});
  double* c = re(eig_.data());
  for (std::size_t i = 0; i < n_; ++i) c[i] = first_col[i];
  if (nfft_ != n_) {
    for (std::size_t k = 1; k < n_; ++k) c[nfft_ - k] = first_col[n_ - k];
  }
  std::vector<cplx> work(plan_.work_size());
  plan_.forward_real(eig_.data(), work.data());
}

void CirculantMultiplier::apply(const std::vector<double>& x, std::vector<double>& y) const {
  if (x.size() != n_) {
    throw std::invalid_argument("CirculantMultiplier::apply: x has length " +
                                std::to_string(x.size()) + ", the order is " +
                                std::to_string(n_));
  }
  const std::size_t bins = plan_.bins();
  std::vector<cplx> buf(bins + plan_.work_size());
  double* v = re(buf.data());
  std::copy(x.begin(), x.end(), v);
  plan_.forward_real(buf.data(), buf.data() + bins);
  for (std::size_t i = 0; i < bins; ++i) buf[i] *= eig_[i];
  util::FlopCounter::charge(6 * static_cast<std::uint64_t>(bins));
  plan_.inverse_real(buf.data(), buf.data() + bins);
  y.assign(v, v + n_);
}

BlockCirculantMultiplier::BlockCirculantMultiplier(const BlockToeplitz& t)
    : m_(t.block_size()), p_(t.num_blocks()), n_(t.order()) {
  util::TraceSpan span(kFftSetupPhase);
  nfft_ = next_pow2(static_cast<std::size_t>(2 * p_));
  bins_ = nfft_ / 2 + 1;
  plan_ = FftPlan(nfft_);
  eig_.assign(static_cast<std::size_t>(m_ * m_) * bins_, cplx{});
  std::vector<cplx> work(plan_.work_size());
  // For block-row offset ri and block-col offset rj, the scalar sequence
  // over block indices (bi, bj) is Toeplitz with
  //   first row  h_k = T_{k+1}(ri, rj)   (k = bj - bi >= 0)
  //   first col  g_k = T_{k+1}(rj, ri)   (k = bi - bj >= 0, transposed block)
  // and its circulant embedding of order nfft has first column
  //   [g_0 .. g_{p-1}, 0 ..., h_{p-1} .. h_1],
  // transformed in place in its slot of eig_.
  for (la::index_t ri = 0; ri < m_; ++ri) {
    for (la::index_t rj = 0; rj < m_; ++rj) {
      cplx* e = eig_.data() + static_cast<std::size_t>(ri * m_ + rj) * bins_;
      double* col = re(e);
      for (la::index_t k = 0; k < p_; ++k) col[k] = t.block(k + 1)(rj, ri);  // g_k
      for (la::index_t k = 1; k < p_; ++k) {
        col[nfft_ - static_cast<std::size_t>(k)] = t.block(k + 1)(ri, rj);  // h_k
      }
      plan_.forward_real(e, work.data());
    }
  }
}

std::size_t BlockCirculantMultiplier::scratch_size() const noexcept {
  return (static_cast<std::size_t>(m_) + 1) * bins_ + plan_.work_size();
}

void BlockCirculantMultiplier::apply_col(const double* x, double* y, cplx* scratch) const {
  const auto m = static_cast<std::size_t>(m_);
  const auto p = static_cast<std::size_t>(p_);
  cplx* xs = scratch;         // m half spectra of x's strided components
  cplx* acc = xs + m * bins_;  // one row of the block product
  cplx* work = acc + bins_;
  for (std::size_t rj = 0; rj < m; ++rj) {
    double* v = re(xs + rj * bins_);
    for (std::size_t k = 0; k < p; ++k) v[k] = x[k * m + rj];
    std::fill(v + p, v + nfft_, 0.0);
    plan_.forward_real(xs + rj * bins_, work);
  }
  // acc_f = sum_rj E_f(ri, rj) X_f(rj) over the half bins: 8 real flops per
  // complex multiply-accumulate.
  util::FlopCounter::charge(8 * static_cast<std::uint64_t>(bins_) * m * m);
  const double* xr = re(xs);
  double* a = re(acc);
  for (std::size_t ri = 0; ri < m; ++ri) {
    const double* e = re(eig_.data() + ri * m * bins_);
    for (std::size_t f = 0; f < 2 * bins_; f += 2) {
      double sr = 0.0, si = 0.0;
      for (std::size_t rj = 0; rj < m; ++rj) {
        const double* ef = e + 2 * rj * bins_ + f;
        const double* xf = xr + 2 * rj * bins_ + f;
        sr += ef[0] * xf[0] - ef[1] * xf[1];
        si += ef[0] * xf[1] + ef[1] * xf[0];
      }
      a[f] = sr;
      a[f + 1] = si;
    }
    plan_.inverse_real(acc, work);
    for (std::size_t k = 0; k < p; ++k) y[k * m + ri] = a[k];
  }
}

void BlockCirculantMultiplier::apply(const std::vector<double>& x, std::vector<double>& y) const {
  if (static_cast<la::index_t>(x.size()) != n_) {
    throw std::invalid_argument("BlockCirculantMultiplier::apply: x has length " +
                                std::to_string(x.size()) + ", the order is " +
                                std::to_string(n_));
  }
  y.resize(static_cast<std::size_t>(n_));
  std::vector<cplx> scratch(scratch_size());
  apply_col(x.data(), y.data(), scratch.data());
}

void BlockCirculantMultiplier::apply(la::CView x, la::View y) const {
  if (x.rows() != n_ || y.rows() != n_ || x.cols() != y.cols()) {
    throw std::invalid_argument("BlockCirculantMultiplier::apply: operands are " +
                                std::to_string(x.rows()) + " x " + std::to_string(x.cols()) +
                                " and " + std::to_string(y.rows()) + " x " +
                                std::to_string(y.cols()) + ", the order is " +
                                std::to_string(n_));
  }
  // Shared scratch across columns: the spectra are cached, so a k-column
  // batch costs k times the transforms but one setup and one allocation.
  std::vector<cplx> scratch(scratch_size());
  for (la::index_t j = 0; j < x.cols(); ++j) {
    apply_col(x.data() + j * x.ld(), y.data() + j * y.ld(), scratch.data());
  }
  util::ByteCounter::charge(16 * static_cast<std::uint64_t>(n_) *
                            static_cast<std::uint64_t>(x.cols()));
}

void BlockCirculantMultiplier::residual(const std::vector<double>& b,
                                        const std::vector<double>& x,
                                        std::vector<double>& r) const {
  if (static_cast<la::index_t>(b.size()) != n_) {
    throw std::invalid_argument("BlockCirculantMultiplier::residual: b has length " +
                                std::to_string(b.size()) + ", the order is " +
                                std::to_string(n_));
  }
  apply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  util::FlopCounter::charge(static_cast<std::uint64_t>(r.size()));
}

void BlockCirculantMultiplier::residual(la::CView b, la::CView x, la::View r) const {
  if (b.rows() != n_ || b.cols() != x.cols() || b.cols() != r.cols()) {
    throw std::invalid_argument("BlockCirculantMultiplier::residual: b is " +
                                std::to_string(b.rows()) + " x " + std::to_string(b.cols()) +
                                " for " + std::to_string(x.cols()) + " columns of x and " +
                                std::to_string(r.cols()) + " of r, the order is " +
                                std::to_string(n_));
  }
  apply(x, r);
  for (la::index_t j = 0; j < b.cols(); ++j) {
    const double* bj = b.data() + j * b.ld();
    double* rj = r.data() + j * r.ld();
    for (la::index_t i = 0; i < n_; ++i) rj[i] = bj[i] - rj[i];
  }
  util::FlopCounter::charge(static_cast<std::uint64_t>(n_) *
                            static_cast<std::uint64_t>(b.cols()));
}

}  // namespace bst::toeplitz
