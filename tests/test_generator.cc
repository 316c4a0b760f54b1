// Tests for the displacement generator construction (paper section 2,
// eqs. 5-11): displacement identity and full reconstruction.
#include <gtest/gtest.h>

#include "core/generator.h"
#include "core/indefinite.h"
#include "core/schur.h"
#include "la/norms.h"
#include "la/triangular.h"
#include "toeplitz/generators.h"

namespace bst::core {
namespace {

using toeplitz::BlockToeplitz;

// Oracle for T - Z^T T Z from the dense matrix: the block displacement
// keeps the first block row/column and zeroes the rest (paper eq. 4).
Mat dense_displacement(const BlockToeplitz& t) {
  const index_t n = t.order(), m = t.block_size();
  Mat d = t.dense();
  Mat out(n, n);
  // (Z^T T Z)(i, j) = T(i - m, j - m) for i, j >= m.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      double shifted = (i >= m && j >= m) ? d(i - m, j - m) : 0.0;
      out(i, j) = d(i, j) - shifted;
    }
  return out;
}

class GeneratorSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GeneratorSweep, DisplacementIdentityHolds) {
  const auto [m, p] = GetParam();
  BlockToeplitz t =
      toeplitz::random_spd_block(m, p, 2, static_cast<std::uint64_t>(m * 10 + p), 1.0);
  Generator g = make_generator_spd(t);
  Mat lhs = dense_displacement(t);
  Mat rhs = generator_displacement(g);
  EXPECT_LT(la::max_diff(lhs.view(), rhs.view()), 1e-11);
}

TEST_P(GeneratorSweep, FullReconstructionHolds) {
  const auto [m, p] = GetParam();
  BlockToeplitz t =
      toeplitz::random_spd_block(m, p, 2, static_cast<std::uint64_t>(m * 10 + p + 1), 1.0);
  Generator g = make_generator_spd(t);
  Mat rec = generator_reconstruct(g);
  EXPECT_LT(la::max_diff(rec.view(), t.dense().view()), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GeneratorSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(1, 2, 3, 5, 8)));

TEST(Generator, PivotBlockIsUpperTriangularTranspose) {
  BlockToeplitz t = toeplitz::random_spd_block(3, 4, 2, 5);
  Generator g = make_generator_spd(t);
  // T_1 = L1^T: exactly upper triangular.
  EXPECT_TRUE(la::is_upper_triangular(g.a_block(0), 0.0));
  // B's first block is zero.
  EXPECT_DOUBLE_EQ(la::max_abs(g.b_block(0)), 0.0);
  // A and B agree on blocks 2..p.
  for (index_t k = 1; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(la::max_diff(g.a_block(k), g.b_block(k)), 0.0);
  }
}

TEST(Generator, SpdSignatureIsPlusMinusIdentity) {
  BlockToeplitz t = toeplitz::kms(6, 0.3);
  Generator g = make_generator_spd(t);
  ASSERT_EQ(g.sig.size(), 2u);
  EXPECT_DOUBLE_EQ(g.sig[0], 1.0);
  EXPECT_DOUBLE_EQ(g.sig[1], -1.0);
  EXPECT_GT(g.norm_g1, 0.0);
}

TEST(Generator, SpdThrowsOnIndefiniteLeadingBlock) {
  BlockToeplitz t = toeplitz::random_indefinite(6, 3, /*diag=*/0.05);
  // T1 = 0.05 is fine for m = 1 (scalar positive)... re-block to m = 2 so
  // the leading 2x2 block [[0.05, x],[x, 0.05]] is indefinite for |x|>0.05.
  BlockToeplitz t2 = t.with_block_size(2);
  // A typed breakdown at step 0, so toeplitz_solve falls back to the
  // indefinite driver as it does for a breakdown at any later step.
  try {
    (void)make_generator_spd(t2);
    ADD_FAILURE() << "no breakdown";
  } catch (const NotPositiveDefinite& e) {
    EXPECT_EQ(e.step, 0);
    EXPECT_EQ(e.column, 1);
    EXPECT_LT(e.hnorm, 0.0);
  }
}

TEST(Generator, IndefiniteHandlesMixedSignature) {
  toeplitz::BlockToeplitz t = toeplitz::random_indefinite(8, 21, /*diag=*/0.5);
  BlockToeplitz t2 = t.with_block_size(2);
  Generator g = make_generator_indefinite(t2);
  // Signature is (S, -S).
  for (index_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(g.sig[static_cast<std::size_t>(i)],
                     -g.sig[static_cast<std::size_t>(2 + i)]);
  }
  // Displacement identity still holds with the signature.
  Mat lhs = dense_displacement(t2);
  Mat rhs = generator_displacement(g);
  EXPECT_LT(la::max_diff(lhs.view(), rhs.view()), 1e-10);
  // And so does the full reconstruction.
  Mat rec = generator_reconstruct(g);
  EXPECT_LT(la::max_diff(rec.view(), t2.dense().view()), 1e-10);
}

TEST(Generator, IndefiniteThrowsOnSingularLeadingMinor) {
  // T1 = [[1, 1], [1, 1]] has a singular leading principal minor chain.
  BlockToeplitz t = toeplitz::paper_example_6x6().with_block_size(2);
  try {
    (void)make_generator_indefinite(t);
    ADD_FAILURE() << "no breakdown";
  } catch (const SingularMinor& e) {
    EXPECT_EQ(e.step, 0);
    EXPECT_EQ(e.column, 1);
  }
}

}  // namespace
}  // namespace bst::core
