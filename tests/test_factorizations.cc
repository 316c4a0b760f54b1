// Tests for the dense factorizations (Cholesky, LDL^T, signature LDL,
// triangle helpers).
#include <gtest/gtest.h>

#include <cmath>

#include "la/blas.h"
#include "la/cholesky.h"
#include "la/ldlt.h"
#include "la/norms.h"
#include "la/triangular.h"
#include "util/rng.h"

namespace bst::la {
namespace {

Mat random_spd(index_t n, util::Rng& rng, double ridge = 1.0) {
  Mat b(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) b(i, j) = rng.uniform(-1, 1);
  Mat a(n, n);
  gemm(Op::None, Op::Trans, 1.0, b.view(), b.view(), 0.0, a.view());
  for (index_t i = 0; i < n; ++i) a(i, i) += ridge;
  return a;
}

Mat random_symmetric(index_t n, util::Rng& rng) {
  Mat a(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) a(i, j) = a(j, i) = rng.uniform(-1, 1);
  return a;
}

class CholeskySweep : public ::testing::TestWithParam<int> {};

TEST_P(CholeskySweep, ReconstructsMatrix) {
  const index_t n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n));
  Mat a = random_spd(n, rng);
  Mat l = cholesky_factor(a.view(), /*block=*/8);  // small block to hit the blocked path
  Mat rec(n, n);
  gemm(Op::None, Op::Trans, 1.0, l.view(), l.view(), 0.0, rec.view());
  EXPECT_LT(max_diff(rec.view(), a.view()), 1e-10 * static_cast<double>(n));
  EXPECT_TRUE(is_upper_triangular(transpose(l.view()).view(), 0.0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySweep, ::testing::Values(1, 2, 3, 7, 8, 9, 16, 33, 64));

TEST(Cholesky, RejectsIndefinite) {
  Mat a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  Mat work(2, 2);
  copy(a.view(), work.view());
  EXPECT_FALSE(cholesky_lower(work.view()));
  EXPECT_THROW(cholesky_factor(a.view()), std::runtime_error);
}

TEST(Cholesky, RejectsSingular) {
  Mat a{{1.0, 1.0}, {1.0, 1.0}};
  Mat work(2, 2);
  copy(a.view(), work.view());
  EXPECT_FALSE(cholesky_lower(work.view()));
}

class LdltSweep : public ::testing::TestWithParam<int> {};

TEST_P(LdltSweep, ReconstructsSymmetricMatrix) {
  const index_t n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n * 3 + 1));
  Mat a = random_symmetric(n, rng);
  for (index_t i = 0; i < n; ++i) a(i, i) += (i % 2 == 0 ? 2.0 : -2.0);  // indefinite
  Mat l(n, n);
  copy(a.view(), l.view());
  std::vector<double> d;
  ASSERT_TRUE(ldlt_unpivoted(l.view(), d));
  // rec = L D L^T with unit lower L.
  keep_triangle(l.view(), /*keep_upper=*/false);
  for (index_t i = 0; i < n; ++i) l(i, i) = 1.0;
  Mat ld(n, n);
  copy(l.view(), ld.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ld(i, j) *= d[static_cast<std::size_t>(j)];
  Mat rec(n, n);
  gemm(Op::None, Op::Trans, 1.0, ld.view(), l.view(), 0.0, rec.view());
  EXPECT_LT(max_diff(rec.view(), a.view()), 1e-9 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LdltSweep, ::testing::Values(1, 2, 5, 8, 17, 32));

TEST(Ldlt, DetectsSingularMinor) {
  Mat a{{1.0, 1.0}, {1.0, 1.0}};  // second pivot is exactly zero
  std::vector<double> d;
  EXPECT_FALSE(ldlt_unpivoted(a.view(), d));
}

TEST(LdlSignature, ReconstructsAndSignsMatchInertia) {
  util::Rng rng(77);
  const index_t n = 6;
  Mat a = random_symmetric(n, rng);
  for (index_t i = 0; i < n; ++i) a(i, i) += (i < 3 ? 3.0 : -3.0);
  Mat work(n, n);
  copy(a.view(), work.view());
  Mat l;
  std::vector<double> sigma;
  ASSERT_TRUE(ldl_signature(work.view(), l, sigma));
  // rec = L S L^T.
  Mat ls(n, n);
  copy(l.view(), ls.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ls(i, j) *= sigma[static_cast<std::size_t>(j)];
  Mat rec(n, n);
  gemm(Op::None, Op::Trans, 1.0, ls.view(), l.view(), 0.0, rec.view());
  EXPECT_LT(max_diff(rec.view(), a.view()), 1e-9);
  for (double s : sigma) EXPECT_TRUE(s == 1.0 || s == -1.0);
}

TEST(LdlSignature, SpdGivesAllPlusAndMatchesCholesky) {
  util::Rng rng(13);
  Mat a = random_spd(5, rng);
  Mat work(5, 5);
  copy(a.view(), work.view());
  Mat l;
  std::vector<double> sigma;
  ASSERT_TRUE(ldl_signature(work.view(), l, sigma));
  for (double s : sigma) EXPECT_DOUBLE_EQ(s, 1.0);
  Mat lc = cholesky_factor(a.view());
  EXPECT_LT(max_diff(l.view(), lc.view()), 1e-10);
}

TEST(KeepTriangle, ZeroesStrictParts) {
  Mat a{{1, 2}, {3, 4}};
  keep_triangle(a.view(), /*keep_upper=*/true);
  EXPECT_DOUBLE_EQ(a(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 2.0);
  Mat b{{1, 2}, {3, 4}};
  keep_triangle(b.view(), /*keep_upper=*/false);
  EXPECT_DOUBLE_EQ(b(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(b(1, 0), 3.0);
}

}  // namespace
}  // namespace bst::la
