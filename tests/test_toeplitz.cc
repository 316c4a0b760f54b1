// Tests for the block Toeplitz types, matvec evaluators and generators.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "la/blas.h"
#include "la/cholesky.h"
#include "la/norms.h"
#include "toeplitz/block_toeplitz.h"
#include "toeplitz/generators.h"
#include "toeplitz/matvec.h"
#include "util/flops.h"
#include "util/rng.h"

namespace bst::toeplitz {
namespace {

TEST(BlockToeplitz, ScalarEntryResolution) {
  BlockToeplitz t = BlockToeplitz::scalar({5.0, 1.0, 2.0, 3.0});
  EXPECT_EQ(t.order(), 4);
  EXPECT_EQ(t.block_size(), 1);
  EXPECT_DOUBLE_EQ(t.entry(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(t.entry(0, 3), 3.0);
  EXPECT_DOUBLE_EQ(t.entry(3, 0), 3.0);
  EXPECT_DOUBLE_EQ(t.entry(2, 1), 1.0);
}

TEST(BlockToeplitz, DenseIsSymmetric) {
  BlockToeplitz t = random_spd_block(3, 4, 2, /*seed=*/17);
  la::Mat d = t.dense();
  EXPECT_LT(la::max_diff(d.view(), la::transpose(d.view()).view()), 1e-14);
}

TEST(BlockToeplitz, BlockEntryConsistency) {
  BlockToeplitz t = random_spd_block(2, 3, 1, 5);
  la::Mat d = t.dense();
  // Block (1, 2) must equal T_2; block (2, 1) its transpose.
  for (la::index_t i = 0; i < 2; ++i)
    for (la::index_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(d(2 + i, 4 + j), t.block(2)(i, j));
      EXPECT_DOUBLE_EQ(d(4 + i, 2 + j), t.block(2)(j, i));
    }
}

TEST(BlockToeplitz, RejectsAsymmetricLeadingBlock) {
  la::Mat row(2, 4);
  row(0, 1) = 1.0;  // T1 not symmetric
  EXPECT_THROW(BlockToeplitz(2, std::move(row)), std::invalid_argument);
}

TEST(BlockToeplitz, WithBlockSizePreservesMatrix) {
  BlockToeplitz t = random_spd_block(2, 8, 2, 23);
  BlockToeplitz t4 = t.with_block_size(4);
  EXPECT_EQ(t4.block_size(), 4);
  EXPECT_EQ(t4.order(), t.order());
  EXPECT_LT(la::max_diff(t.dense().view(), t4.dense().view()), 1e-14);
}

TEST(BlockToeplitz, WithBlockSizeValidation) {
  BlockToeplitz t = random_spd_block(2, 8, 2, 23);
  EXPECT_THROW(t.with_block_size(3), std::invalid_argument);   // not a multiple of m
  EXPECT_THROW(t.with_block_size(5), std::invalid_argument);   // does not divide n
  EXPECT_NO_THROW(t.with_block_size(8));
}

TEST(Generators, KmsIsSpdAndMatchesFormula) {
  BlockToeplitz t = kms(16, 0.5);
  EXPECT_DOUBLE_EQ(t.entry(3, 7), std::pow(0.5, 4));
  la::Mat d = t.dense();
  EXPECT_NO_THROW(la::cholesky_factor(d.view()));
}

TEST(Generators, ProlateIsSpd) {
  BlockToeplitz t = prolate(24, 0.30);
  la::Mat d = t.dense();
  EXPECT_NO_THROW(la::cholesky_factor(d.view()));
}

TEST(Generators, RandomSpdBlockIsSpd) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    BlockToeplitz t = random_spd_block(3, 5, 2, seed);
    la::Mat d = t.dense();
    EXPECT_NO_THROW(la::cholesky_factor(d.view())) << "seed " << seed;
  }
}

TEST(Generators, PaperExampleRow) {
  BlockToeplitz t = paper_example_6x6();
  EXPECT_EQ(t.order(), 6);
  EXPECT_DOUBLE_EQ(t.entry(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(t.entry(0, 5), 0.3834);
  // The leading 2x2 minor [[1 1],[1 1]] is singular.
  EXPECT_NEAR(t.entry(0, 0) * t.entry(1, 1) - t.entry(0, 1) * t.entry(1, 0), 0.0, 1e-15);
}

TEST(Generators, SingularMinorFamilyHasSingular2x2) {
  BlockToeplitz t = singular_minor_family(12, 99);
  EXPECT_DOUBLE_EQ(t.entry(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.entry(0, 1), 1.0);
}

TEST(MatVec, DirectMatchesDense) {
  util::Rng rng(12);
  BlockToeplitz t = random_spd_block(3, 5, 2, 31);
  const la::index_t n = t.order();
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> y;
  MatVec(t, MatVecMode::Direct).apply(x, y);
  la::Mat d = t.dense();
  std::vector<double> expect(static_cast<std::size_t>(n), 0.0);
  la::gemv(false, 1.0, d.view(), x.data(), 0.0, expect.data());
  for (la::index_t i = 0; i < n; ++i)
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], expect[static_cast<std::size_t>(i)], 1e-12);
}

// Mismatched operands are typed errors in every build type, in both modes
// (an assert let a Release build read past the input).
TEST(MatVec, RejectsMismatchedLengths) {
  const BlockToeplitz t = random_spd_block(2, 6, 2, 41);
  for (const MatVecMode mode : {MatVecMode::Direct, MatVecMode::Fft}) {
    const MatVec op(t, mode);
    const std::vector<double> good(12, 1.0), bad(11, 1.0);
    std::vector<double> y;
    EXPECT_THROW(op.apply(bad, y), std::invalid_argument);
    EXPECT_THROW(op.residual(bad, good, y), std::invalid_argument);
    EXPECT_THROW(op.residual(good, bad, y), std::invalid_argument);
    la::Mat x2(12, 2), y2(12, 2), y3(12, 3), short2(11, 2);
    EXPECT_THROW(op.apply(x2.view(), y3.view()), std::invalid_argument);
    EXPECT_THROW(op.apply(short2.view(), y2.view()), std::invalid_argument);
    EXPECT_THROW(op.residual(short2.view(), x2.view(), y2.view()), std::invalid_argument);
    EXPECT_THROW(op.residual(x2.view(), x2.view(), y3.view()), std::invalid_argument);
    EXPECT_NO_THROW(op.residual(good, good, y));
    EXPECT_NO_THROW(op.residual(x2.view(), x2.view(), y2.view()));
  }
}

// Direct MatVec against a long-double dense product T x, one column and a
// strided three-column batch, over scalar to 16 x 16 blocks and 1 to 64
// blocks.  Every block of the first row is random (T_1 symmetrized), so
// each block diagonal's gemm pair is exercised; each product charges
// exactly 2 n^2 flops.
class MatVecDirectSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MatVecDirectSweep, MatchesDenseAndCharges2N2) {
  const auto [m, p] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(1000 * m + p));
  la::Mat row(m, m * p);
  for (la::index_t j = 0; j < m * p; ++j)
    for (la::index_t i = 0; i < m; ++i) row(i, j) = rng.uniform(-1, 1);
  for (la::index_t j = 0; j < m; ++j)
    for (la::index_t i = 0; i < j; ++i) row(i, j) = row(j, i);
  const BlockToeplitz t(m, row);
  const la::index_t n = t.order();
  const la::Mat d = t.dense();
  const MatVec op(t, MatVecMode::Direct);
  const la::index_t k = 3;
  la::Mat xs(n + 2, k), ys(n + 1, k);
  for (la::index_t j = 0; j < k; ++j)
    for (la::index_t i = 0; i < n; ++i) xs(i, j) = rng.uniform(-1, 1);
  const la::CView x = xs.block(0, 0, n, k);
  const la::View y = ys.block(0, 0, n, k);

  const auto check_column = [&](const double* got, la::index_t j) {
    double max_err = 0.0, scale = 0.0;
    for (la::index_t i = 0; i < n; ++i) {
      long double s = 0.0L, mag = 0.0L;
      for (la::index_t l = 0; l < n; ++l) {
        s += static_cast<long double>(d(i, l)) * x(l, j);
        mag += std::fabs(static_cast<long double>(d(i, l)) * x(l, j));
      }
      max_err = std::max(max_err, std::fabs(got[i] - static_cast<double>(s)));
      scale = std::max(scale, static_cast<double>(mag));
    }
    EXPECT_LE(max_err, 1e-14 * scale) << "m=" << m << " p=" << p << " column " << j;
  };

  const std::vector<double> x0(x.col(0), x.col(0) + n);
  std::vector<double> y0;
  util::FlopScope one;
  op.apply(x0, y0);
  EXPECT_EQ(one.elapsed(), static_cast<std::uint64_t>(2 * n * n));
  check_column(y0.data(), 0);

  util::FlopScope batch;
  op.apply(x, y);
  EXPECT_EQ(batch.elapsed(), static_cast<std::uint64_t>(2 * n * n * k));
  for (la::index_t j = 0; j < k; ++j) check_column(y.col(j), j);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatVecDirectSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 16),
                                            ::testing::Values(1, 2, 7, 64)));

class MatVecFftSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MatVecFftSweep, FftMatchesDirect) {
  const auto [m, p] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(m * 100 + p));
  BlockToeplitz t = random_spd_block(m, p, 2, static_cast<std::uint64_t>(m + p));
  std::vector<double> x(static_cast<std::size_t>(t.order()));
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> yd, yf;
  MatVec(t, MatVecMode::Direct).apply(x, yd);
  MatVec(t, MatVecMode::Fft).apply(x, yf);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(yf[i], yd[i], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatVecFftSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                                            ::testing::Values(1, 2, 5, 16, 33)));

TEST(MatVec, ResidualOfExactSolutionIsZero) {
  BlockToeplitz t = kms(10, 0.4);
  std::vector<double> b = rhs_for_ones(t);
  const std::vector<double> ones(10, 1.0);
  std::vector<double> r;
  MatVec(t, MatVecMode::Fft).residual(b, ones, r);
  for (double v : r) EXPECT_NEAR(v, 0.0, 1e-13);
}

// ||T||_inf from the first block row in O(p m^2) equals the dense row-sum
// maximum, on symmetric and nonsymmetric off-diagonal blocks alike.
TEST(MatVec, NormInfMatchesDense) {
  for (const la::index_t m : {1, 2, 4, 16}) {
    for (const std::uint64_t seed : {3u, 8u}) {
      const BlockToeplitz t = random_spd_block(m, 9, 3, seed + static_cast<std::uint64_t>(m));
      const double dense = la::norm_inf(t.dense().view());
      for (const MatVecMode mode : {MatVecMode::Direct, MatVecMode::Fft}) {
        EXPECT_NEAR(MatVec(t, mode).norm_inf(), dense, 1e-14 * dense) << "m = " << m;
      }
    }
  }
  const BlockToeplitz s = singular_minor_family(40, 5);
  EXPECT_NEAR(MatVec(s, MatVecMode::Fft).norm_inf(), la::norm_inf(s.dense().view()),
              1e-14 * la::norm_inf(s.dense().view()));
}

TEST(MatVec, BackwardErrorIsTheNormwiseRatio) {
  const BlockToeplitz t = kms(8, 0.5);
  const MatVec op(t, MatVecMode::Fft);
  const std::vector<double> x = {1, -2, 3, 0, 0, 0, 0.5, 0};
  const std::vector<double> b = {4, 0, 0, 0, 0, 0, 0, -1};
  const std::vector<double> r = {0, 1e-10, 0, -3e-10, 0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(op.backward_error(b, x, r), 3e-10 / (op.norm_inf() * 3.0 + 4.0));
  EXPECT_EQ(op.backward_error(std::vector<double>(8), std::vector<double>(8),
                              std::vector<double>(8)),
            0.0);
  std::vector<double> bad = r;
  bad[2] = std::nan("");
  EXPECT_TRUE(std::isinf(op.backward_error(b, x, bad)));
  bad[2] = 0.0;
  std::vector<double> xbad = x;
  xbad[0] = INFINITY;
  EXPECT_TRUE(std::isinf(op.backward_error(b, xbad, r)));
  EXPECT_THROW((void)op.backward_error(b, x, std::vector<double>(7)), std::invalid_argument);
}

TEST(MatVec, IndefiniteRowWorksToo) {
  util::Rng rng(5);
  BlockToeplitz t = random_indefinite(9, 55);
  std::vector<double> x(9);
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> yd, yf;
  MatVec(t, MatVecMode::Direct).apply(x, yd);
  MatVec(t, MatVecMode::Fft).apply(x, yf);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_NEAR(yf[i], yd[i], 1e-12);
}


TEST(Generators, FgnIsSpdAndLongMemory) {
  for (double h : {0.55, 0.75, 0.9}) {
    BlockToeplitz t = fgn(24, h);
    EXPECT_DOUBLE_EQ(t.entry(0, 0), 1.0) << h;
    la::Mat d = t.dense();
    EXPECT_NO_THROW(la::cholesky_factor(d.view())) << h;
  }
  // H > 1/2: positively correlated (long memory); H < 1/2: negative lag-1.
  EXPECT_GT(fgn(8, 0.8).entry(0, 1), 0.0);
  EXPECT_LT(fgn(8, 0.3).entry(0, 1), 0.0);
  // H = 1/2 degenerates to the identity (white noise).
  BlockToeplitz white = fgn(8, 0.5);
  for (la::index_t k = 1; k < 8; ++k) EXPECT_NEAR(white.entry(0, k), 0.0, 1e-14);
}

TEST(Generators, Ar1BlockIsSpdBlockToeplitz) {
  for (std::uint64_t seed : {1u, 5u, 9u}) {
    BlockToeplitz t = ar1_block(3, 6, seed);
    la::Mat d = t.dense();
    EXPECT_NO_THROW(la::cholesky_factor(d.view())) << seed;
    // Covariances decay with lag (rho(Phi) < 1).
    EXPECT_LT(la::max_abs(t.block(6)), la::max_abs(t.block(1))) << seed;
  }
}

TEST(Generators, Ar1BlockSatisfiesStationaryEquation) {
  // C_k = Phi^k C_0 implies C_1 C_0^{-1} C_1 = Phi C_0 C_0^{-1} Phi C_0 = C_2.
  BlockToeplitz t = ar1_block(2, 4, 3);
  la::Mat c0(2, 2), c1(2, 2), c2(2, 2);
  la::copy(t.block(1), c0.view());
  la::copy(t.block(2), c1.view());
  la::copy(t.block(3), c2.view());
  // X = C_0^{-1} C_1: solve C_0 X = C_1.
  la::Mat l = la::cholesky_factor(c0.view());
  la::Mat x(2, 2);
  la::copy(c1.view(), x.view());
  la::trsm(la::Side::Left, la::Uplo::Lower, la::Op::None, la::Diag::NonUnit, 1.0, l.view(),
           x.view());
  la::trsm(la::Side::Left, la::Uplo::Lower, la::Op::Trans, la::Diag::NonUnit, 1.0, l.view(),
           x.view());
  la::Mat check(2, 2);
  la::gemm(la::Op::None, la::Op::None, 1.0, c1.view(), x.view(), 0.0, check.view());
  EXPECT_LT(la::max_diff(check.view(), c2.view()), 1e-10);
}

}  // namespace
}  // namespace bst::toeplitz
