// Tests for the FFT and circulant machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "toeplitz/fft.h"
#include "util/rng.h"

namespace bst::toeplitz {
namespace {

std::vector<cplx> naive_dft(const std::vector<cplx>& a, bool inverse) {
  const std::size_t n = a.size();
  std::vector<cplx> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    cplx s{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * M_PI * static_cast<double>(k * j) / static_cast<double>(n);
      s += a[j] * cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = inverse ? s / static_cast<double>(n) : s;
  }
  return out;
}

TEST(NextPow2, Values) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(17), 32u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  const std::size_t top = std::size_t{1} << 63;
  EXPECT_EQ(next_pow2(top - 1), top);
  EXPECT_EQ(next_pow2(top), top);
  EXPECT_THROW(next_pow2(top + 1), std::invalid_argument);
}

class FftSweep : public ::testing::TestWithParam<int> {};

TEST_P(FftSweep, MatchesNaiveDft) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  util::Rng rng(static_cast<std::uint64_t>(n));
  std::vector<cplx> a(n);
  for (auto& v : a) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  std::vector<cplx> expect = naive_dft(a, false);
  std::vector<cplx> got = a;
  fft(got, false);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(got[i].real(), expect[i].real(), 1e-10 * static_cast<double>(n));
    EXPECT_NEAR(got[i].imag(), expect[i].imag(), 1e-10 * static_cast<double>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSweep, ::testing::Values(1, 2, 4, 8, 16, 64, 256));

TEST(Fft, RoundTripIdentity) {
  util::Rng rng(3);
  std::vector<cplx> a(128);
  for (auto& v : a) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  std::vector<cplx> b = a;
  fft(b, false);
  fft(b, true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(b[i].real(), a[i].real(), 1e-12);
    EXPECT_NEAR(b[i].imag(), a[i].imag(), 1e-12);
  }
}

TEST(Fft, Linearity) {
  util::Rng rng(4);
  std::vector<cplx> a(32), b(32), sum(32);
  for (std::size_t i = 0; i < 32; ++i) {
    a[i] = cplx(rng.uniform(-1, 1), 0);
    b[i] = cplx(rng.uniform(-1, 1), 0);
    sum[i] = 2.0 * a[i] + b[i];
  }
  fft(a, false);
  fft(b, false);
  fft(sum, false);
  for (std::size_t i = 0; i < 32; ++i) {
    const cplx expect = 2.0 * a[i] + b[i];
    EXPECT_NEAR(sum[i].real(), expect.real(), 1e-12);
    EXPECT_NEAR(sum[i].imag(), expect.imag(), 1e-12);
  }
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<cplx> a(16, cplx{0, 0});
  a[0] = cplx(1, 0);
  fft(a, false);
  for (const auto& v : a) {
    EXPECT_NEAR(v.real(), 1.0, 1e-14);
    EXPECT_NEAR(v.imag(), 0.0, 1e-14);
  }
}

TEST(Circulant, MatchesNaiveCirculantProduct) {
  util::Rng rng(8);
  const std::size_t n = 16;
  std::vector<double> c(n), x(n);
  for (std::size_t i = 0; i < n; ++i) {
    c[i] = rng.uniform(-1, 1);
    x[i] = rng.uniform(-1, 1);
  }
  CirculantMultiplier mult(c);
  std::vector<double> y;
  mult.apply(x, y);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += c[(i + n - j) % n] * x[j];
    EXPECT_NEAR(y[i], s, 1e-12);
  }
}

TEST(Circulant, IdentityFirstColumn) {
  std::vector<double> c(8, 0.0);
  c[0] = 1.0;
  CirculantMultiplier mult(c);
  std::vector<double> x{1, 2, 3, 4, 5, 6, 7, 8}, y;
  mult.apply(x, y);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(y[i], x[i], 1e-13);
}

// --- Bluestein DFT: arbitrary (odd, prime, composite) lengths ---

class DftSweep : public ::testing::TestWithParam<int> {};

TEST_P(DftSweep, MatchesNaiveDft) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  util::Rng rng(1000 + static_cast<std::uint64_t>(n));
  std::vector<cplx> a(n);
  for (auto& v : a) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  std::vector<cplx> expect = naive_dft(a, false);
  std::vector<cplx> fwd = a;
  dft(fwd, false);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fwd[i].real(), expect[i].real(), 1e-10 * static_cast<double>(n));
    EXPECT_NEAR(fwd[i].imag(), expect[i].imag(), 1e-10 * static_cast<double>(n));
  }
  dft(fwd, true);  // round trip back to the input
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fwd[i].real(), a[i].real(), 1e-10 * static_cast<double>(n));
    EXPECT_NEAR(fwd[i].imag(), a[i].imag(), 1e-10 * static_cast<double>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(OddPrimeComposite, DftSweep,
                         ::testing::Values(3, 5, 7, 12, 17, 31, 100, 243, 509));

// --- CirculantMultiplier at non-power-of-two logical orders ---
// The multiplier owns the next_pow2 embedding; callers hand it the logical
// first column and never see the padding.

class OddCirculantSweep : public ::testing::TestWithParam<int> {};

TEST_P(OddCirculantSweep, MatchesNaiveCirculantProduct) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  util::Rng rng(2000 + static_cast<std::uint64_t>(n));
  std::vector<double> c(n), x(n);
  for (std::size_t i = 0; i < n; ++i) {
    c[i] = rng.uniform(-1, 1);
    x[i] = rng.uniform(-1, 1);
  }
  CirculantMultiplier mult(c);
  EXPECT_EQ(mult.order(), n);
  EXPECT_EQ(mult.fft_order(), next_pow2(2 * n - 1));
  std::vector<double> y;
  mult.apply(x, y);
  ASSERT_EQ(y.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += c[(i + n - j) % n] * x[j];
    EXPECT_NEAR(y[i], s, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(OddPrime, OddCirculantSweep,
                         ::testing::Values(3, 5, 7, 13, 31, 97, 100));

TEST(Circulant, Pow2OrderUsesNoEmbedding) {
  std::vector<double> c{1.0, 2.0, 3.0, 4.0};
  CirculantMultiplier mult(c);
  EXPECT_EQ(mult.order(), 4u);
  EXPECT_EQ(mult.fft_order(), 4u);
}

// --- BlockCirculantMultiplier: embedding of a full block Toeplitz matrix ---

TEST(BlockCirculant, MatchesDenseMatVec) {
  const la::index_t m = 3, p = 7;  // odd p exercises the padded embedding
  util::Rng rng(42);
  la::Mat row(m, m * p);
  for (la::index_t j = 0; j < m * p; ++j)
    for (la::index_t i = 0; i < m; ++i) row(i, j) = rng.uniform(-1, 1);
  for (la::index_t i = 0; i < m; ++i)  // symmetrize T1
    for (la::index_t j = 0; j < i; ++j) row(i, j) = row(j, i);
  const BlockToeplitz t(m, row);
  const BlockCirculantMultiplier mult(t);
  EXPECT_EQ(mult.fft_order(), next_pow2(2 * static_cast<std::size_t>(p)));

  const la::Mat dense = t.dense();
  const la::index_t n = t.order();
  std::vector<double> x(static_cast<std::size_t>(n)), y;
  for (auto& v : x) v = rng.uniform(-1, 1);
  mult.apply(x, y);
  for (la::index_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (la::index_t j = 0; j < n; ++j) s += dense(i, j) * x[static_cast<std::size_t>(j)];
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], s, 1e-11);
  }
}

TEST(BlockCirculant, BatchedMatchesColumnwise) {
  const la::index_t m = 2, p = 12, k = 5;
  util::Rng rng(7);
  la::Mat row(m, m * p);
  for (la::index_t j = 0; j < m * p; ++j)
    for (la::index_t i = 0; i < m; ++i) row(i, j) = rng.uniform(-1, 1);
  for (la::index_t i = 0; i < m; ++i)
    for (la::index_t j = 0; j < i; ++j) row(i, j) = row(j, i);
  const BlockToeplitz t(m, row);
  const BlockCirculantMultiplier mult(t);

  const la::index_t n = t.order();
  la::Mat xs(n, k), ys(n, k);
  for (la::index_t j = 0; j < k; ++j)
    for (la::index_t i = 0; i < n; ++i) xs(i, j) = rng.uniform(-1, 1);
  mult.apply(xs.view(), ys.view());
  // Every column runs the same transforms on the same cached spectra, so
  // the batched product is the column-wise one bit for bit.
  for (la::index_t j = 0; j < k; ++j) {
    std::vector<double> x(static_cast<std::size_t>(n)), y;
    for (la::index_t i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = xs(i, j);
    mult.apply(x, y);
    ASSERT_EQ(y.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(std::memcmp(&ys(0, j), y.data(), y.size() * sizeof(double)), 0) << "column " << j;
  }
}

TEST(BlockCirculant, ResidualIsExactForTrueSolution) {
  const la::index_t m = 2, p = 9;
  util::Rng rng(11);
  la::Mat row(m, m * p);
  for (la::index_t j = 0; j < m * p; ++j)
    for (la::index_t i = 0; i < m; ++i) row(i, j) = rng.uniform(-1, 1);
  for (la::index_t i = 0; i < m; ++i)
    for (la::index_t j = 0; j < i; ++j) row(i, j) = row(j, i);
  const BlockToeplitz t(m, row);
  const BlockCirculantMultiplier mult(t);
  std::vector<double> x(static_cast<std::size_t>(t.order())), b, r;
  for (auto& v : x) v = rng.uniform(-1, 1);
  mult.apply(x, b);
  mult.residual(b, x, r);
  for (const double v : r) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(BlockCirculant, RejectsMismatchedOperands) {
  const la::index_t m = 2, p = 5;
  la::Mat row(m, m * p);
  for (la::index_t i = 0; i < m; ++i) row(i, i) = 2.0;
  const BlockCirculantMultiplier mult(BlockToeplitz(m, row));
  const std::vector<double> good(10, 1.0), bad(9, 1.0);
  std::vector<double> y;
  EXPECT_THROW(mult.apply(bad, y), std::invalid_argument);
  EXPECT_THROW(mult.residual(bad, good, y), std::invalid_argument);
  EXPECT_THROW(mult.residual(good, bad, y), std::invalid_argument);
  la::Mat x2(10, 2), y2(10, 2), y3(10, 3), short2(9, 2);
  EXPECT_THROW(mult.apply(x2.view(), y3.view()), std::invalid_argument);
  EXPECT_THROW(mult.apply(short2.view(), y2.view()), std::invalid_argument);
  EXPECT_THROW(mult.residual(short2.view(), x2.view(), y2.view()), std::invalid_argument);
  EXPECT_THROW(mult.residual(x2.view(), x2.view(), y3.view()), std::invalid_argument);
  EXPECT_NO_THROW(mult.residual(good, good, y));
  EXPECT_NO_THROW(mult.residual(x2.view(), x2.view(), y2.view()));
}

// --- Typed errors at the FFT layer's entry points (every build type) ---

TEST(Fft, RejectsNonPowerOfTwoLength) {
  for (std::size_t n : {3u, 6u, 12u, 100u}) {
    std::vector<cplx> a(n, cplx(1.0, 0.0));
    EXPECT_THROW(fft(a, false), std::invalid_argument) << n;
    EXPECT_THROW(fft(a, true), std::invalid_argument) << n;
  }
  std::vector<cplx> empty;
  EXPECT_NO_THROW(fft(empty, false));
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
}

TEST(Circulant, RejectsEmptyColumnAndMismatchedLength) {
  EXPECT_THROW(CirculantMultiplier(std::vector<double>{}), std::invalid_argument);
  const CirculantMultiplier mult({1.0, 2.0, 3.0});
  std::vector<double> y;
  EXPECT_THROW(mult.apply({1.0, 2.0}, y), std::invalid_argument);
}

// --- Real-input transforms against the naive DFT at small lengths ---

class RealFftSweep : public ::testing::TestWithParam<int> {};

TEST_P(RealFftSweep, MatchesNaiveDftAndRoundTrips) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  util::Rng rng(3000 + static_cast<std::uint64_t>(n));
  std::vector<double> x(n);
  std::vector<cplx> xc(n);
  for (std::size_t i = 0; i < n; ++i) xc[i] = x[i] = rng.uniform(-1, 1);
  const std::vector<cplx> expect = naive_dft(xc, false);
  const FftPlan plan(n);
  ASSERT_EQ(plan.bins(), n / 2 + 1);
  std::vector<cplx> a(plan.bins()), work(plan.work_size());
  std::copy(x.begin(), x.end(), reinterpret_cast<double*>(a.data()));
  plan.forward_real(a.data(), work.data());
  for (std::size_t k = 0; k < plan.bins(); ++k) {
    EXPECT_NEAR(a[k].real(), expect[k].real(), 1e-13 * static_cast<double>(n)) << k;
    EXPECT_NEAR(a[k].imag(), expect[k].imag(), 1e-13 * static_cast<double>(n)) << k;
  }
  plan.inverse_real(a.data(), work.data());
  const double* back = reinterpret_cast<const double*>(a.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-14) << i;
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwoAndOthers, RealFftSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 12, 16, 17, 32, 64, 100, 128, 256,
                                           509));

// --- Accuracy against a long-double DFT, 2^10 .. 2^20 ---
// An O(n^2) reference is out of reach at 2^20, so each case checks a
// sample of output bins: the normwise relative error over the sample,
// sqrt(sum |X_k - ref_k|^2 / sum |ref_k|^2), must stay <= 1e-15.  A
// twiddle recurrence measured 9.7e-15 at 2^10 and 8.1e-12 at 2^20.

using lcplx = std::complex<long double>;

// Long-double reference bins of the length-n DFT of `a` (sign -1 forward,
// +1 and 1/n inverse), evaluated only at `bins`.  The root of index
// i = j k mod n is the product of two directly computed roots, of
// i mod 1024 and of the rest, so both tables stay in cache.
std::vector<lcplx> reference_bins(const std::vector<cplx>& a, const std::vector<std::size_t>& bins,
                                  bool inverse) {
  const std::size_t n = a.size(), lo_bits = 10, lo_size = std::size_t{1} << lo_bits;
  const long double two_pi = 6.283185307179586476925286766559005768L;
  auto root = [&](std::size_t i) {
    const long double ang = two_pi * static_cast<long double>(i) / static_cast<long double>(n);
    return lcplx(std::cos(ang), inverse ? std::sin(ang) : -std::sin(ang));
  };
  std::vector<lcplx> lo(lo_size), hi(n / lo_size + 1);
  for (std::size_t i = 0; i < lo.size(); ++i) lo[i] = root(i);
  for (std::size_t i = 0; i < hi.size(); ++i) hi[i] = root(i << lo_bits);
  std::vector<lcplx> out;
  for (const std::size_t k : bins) {
    long double sr = 0.0L, si = 0.0L;
    for (std::size_t j = 0, jk = 0; j < n; ++j, jk = jk + k >= n ? jk + k - n : jk + k) {
      const lcplx& l = lo[jk & (lo_size - 1)];
      const lcplx& h = hi[jk >> lo_bits];
      const long double wr = l.real() * h.real() - l.imag() * h.imag();
      const long double wi = l.real() * h.imag() + l.imag() * h.real();
      const long double ar = a[j].real(), ai = a[j].imag();
      sr += ar * wr - ai * wi;
      si += ar * wi + ai * wr;
    }
    const lcplx s(sr, si);
    out.push_back(inverse ? s / static_cast<long double>(n) : s);
  }
  return out;
}

// 24 bins: both ends, the middle, and a seeded spread.
std::vector<std::size_t> sample_bins(std::size_t n, std::size_t limit) {
  std::vector<std::size_t> bins{0, 1, limit / 2, limit - 1};
  util::Rng rng(n);
  while (bins.size() < 24) {
    bins.push_back(static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(limit))) % limit);
  }
  return bins;
}

double sampled_error(const std::vector<cplx>& got, const std::vector<std::size_t>& bins,
                     const std::vector<lcplx>& ref) {
  long double err = 0.0L, norm = 0.0L;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    err += std::norm(lcplx(got[bins[i]]) - ref[i]);
    norm += std::norm(ref[i]);
  }
  return static_cast<double>(std::sqrt(err / norm));
}

std::vector<cplx> random_signal(std::size_t n, bool real) {
  util::Rng rng(7 * n + (real ? 1 : 0));
  std::vector<cplx> a(n);
  for (auto& v : a) v = cplx(rng.uniform(-1, 1), real ? 0.0 : rng.uniform(-1, 1));
  return a;
}

class FftAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(FftAccuracy, ComplexForwardAndInverse) {
  const std::size_t n = std::size_t{1} << GetParam();
  const std::vector<cplx> a = random_signal(n, false);
  const std::vector<std::size_t> bins = sample_bins(n, n);
  for (const bool inverse : {false, true}) {
    std::vector<cplx> got = a;
    fft(got, inverse);
    const double err = sampled_error(got, bins, reference_bins(a, bins, inverse));
    EXPECT_LE(err, 1e-15) << "n = " << n << (inverse ? " inverse" : " forward");
  }
}

TEST_P(FftAccuracy, RealForwardAndInverse) {
  const std::size_t n = std::size_t{1} << GetParam();
  const FftPlan plan(n);
  std::vector<cplx> work(plan.work_size());
  // Forward: real samples in, the half spectrum out.
  const std::vector<cplx> x = random_signal(n, true);
  std::vector<cplx> a(plan.bins());
  double* ar = reinterpret_cast<double*>(a.data());
  for (std::size_t i = 0; i < n; ++i) ar[i] = x[i].real();
  plan.forward_real(a.data(), work.data());
  const std::vector<std::size_t> fbins = sample_bins(n, plan.bins());
  EXPECT_LE(sampled_error(a, fbins, reference_bins(x, fbins, false)), 1e-15) << "n = " << n;
  // Inverse: a Hermitian spectrum (the transform of real samples) in,
  // real samples out, checked against the long-double inverse DFT.
  std::vector<cplx> full(n);
  util::Rng rng(n + 5);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    full[k] = cplx(rng.uniform(-1, 1), k == 0 || k == n / 2 ? 0.0 : rng.uniform(-1, 1));
    if (k > 0 && k < n / 2) full[n - k] = std::conj(full[k]);
  }
  std::copy(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(plan.bins()), a.begin());
  plan.inverse_real(a.data(), work.data());
  std::vector<cplx> samples(n);
  for (std::size_t i = 0; i < n; ++i) samples[i] = ar[i];
  const std::vector<std::size_t> ibins = sample_bins(n + 1, n);
  EXPECT_LE(sampled_error(samples, ibins, reference_bins(full, ibins, true)), 1e-15)
      << "n = " << n;
}

INSTANTIATE_TEST_SUITE_P(Pow2, FftAccuracy, ::testing::Range(10, 21));

class DftAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(DftAccuracy, BluesteinForwardAndInverse) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  const std::vector<cplx> a = random_signal(n, false);
  const std::vector<std::size_t> bins = sample_bins(n, n);
  for (const bool inverse : {false, true}) {
    std::vector<cplx> got = a;
    dft(got, inverse);
    const double err = sampled_error(got, bins, reference_bins(a, bins, inverse));
    EXPECT_LE(err, 1e-15) << "n = " << n << (inverse ? " inverse" : " forward");
  }
}

// Odd composites (1001 = 7 11 13, 3^10) and primes up to 2^17 - 1.
INSTANTIATE_TEST_SUITE_P(OddAndPrime, DftAccuracy,
                         ::testing::Values(1001, 1009, 4099, 59049, 65537, 131071));

}  // namespace
}  // namespace bst::toeplitz
