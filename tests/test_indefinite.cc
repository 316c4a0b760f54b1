// Tests for the indefinite / singular-minor extension (paper section 8):
// T + dT = R^T D R, row interchanges, perturbations, the paper's worked
// 6x6 example.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/dense_solver.h"
#include "core/indefinite.h"
#include "core/refine.h"
#include "core/solve.h"
#include "la/blas.h"
#include "la/ldlt.h"
#include "la/norms.h"
#include "la/triangular.h"
#include "toeplitz/generators.h"
#include "toeplitz/matvec.h"
#include "util/rng.h"

namespace bst::core {
namespace {

using toeplitz::BlockToeplitz;

// max |R^T D R - T| / max|T|.
double reconstruction_error(const BlockToeplitz& t, const LdlFactor& f) {
  const index_t n = t.order();
  Mat dr(n, n);
  la::copy(f.r.view(), dr.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) dr(i, j) *= f.d[static_cast<std::size_t>(i)];
  Mat rec(n, n);
  la::gemm(la::Op::Trans, la::Op::None, 1.0, f.r.view(), dr.view(), 0.0, rec.view());
  Mat dense = t.dense();
  return la::max_diff(rec.view(), dense.view()) / (1.0 + la::max_abs(dense.view()));
}

TEST(Indefinite, SpdInputGivesIdentitySignature) {
  BlockToeplitz t = toeplitz::random_spd_block(2, 5, 2, 3);
  LdlFactor f = block_schur_indefinite(t);
  for (double d : f.d) EXPECT_DOUBLE_EQ(d, 1.0);
  EXPECT_EQ(f.interchanges, 0);
  EXPECT_TRUE(f.perturbations.empty());
  EXPECT_LT(reconstruction_error(t, f), 1e-10);
}

class IndefiniteSweep : public ::testing::TestWithParam<int> {};

TEST_P(IndefiniteSweep, RandomIndefiniteReconstructs) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  BlockToeplitz t = toeplitz::random_indefinite(16, seed, /*diag=*/1.2);
  LdlFactor f = block_schur_indefinite(t);
  EXPECT_TRUE(la::is_upper_triangular(f.r.view(), 0.0));
  if (f.perturbations.empty()) {
    EXPECT_LT(reconstruction_error(t, f), 1e-7) << "seed " << seed;
  }
  for (double d : f.d) EXPECT_TRUE(d == 1.0 || d == -1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndefiniteSweep, ::testing::Range(1, 21));

TEST(Indefinite, NegativeDefiniteMatrix) {
  // -KMS is negative definite: all signature entries must be -1.
  BlockToeplitz kms = toeplitz::kms(8, 0.4);
  Mat row(1, 8);
  for (index_t j = 0; j < 8; ++j) row(0, j) = -kms.entry(0, j);
  BlockToeplitz t(1, std::move(row));
  LdlFactor f = block_schur_indefinite(t);
  for (double d : f.d) EXPECT_DOUBLE_EQ(d, -1.0);
  EXPECT_LT(reconstruction_error(t, f), 1e-10);
}

TEST(Indefinite, SignatureMatchesInertia) {
  // Inertia of T = (#positive, #negative eigenvalues) must match D's signs
  // (Sylvester's law: T = R^T D R is a congruence).
  BlockToeplitz t = toeplitz::random_indefinite(10, 7, /*diag=*/1.5);
  LdlFactor f = block_schur_indefinite(t);
  ASSERT_TRUE(f.perturbations.empty());
  int pos = 0;
  for (double d : f.d) pos += (d > 0.0);
  // Count positive eigenvalues via the dense LDL^T pivots.
  Mat dense = t.dense();
  std::vector<double> piv;
  ASSERT_TRUE(la::ldlt_unpivoted(dense.view(), piv));
  int pos_ref = 0;
  for (double v : piv) pos_ref += (v > 0.0);
  EXPECT_EQ(pos, pos_ref);
}

TEST(Indefinite, BlockIndefiniteMatrix) {
  // Indefinite scalar matrix re-blocked to m = 2: exercises the signature
  // generator (T1 = L S L^T with mixed S) and the blocked fast path.
  BlockToeplitz t = toeplitz::random_indefinite(16, 31, /*diag=*/1.2).with_block_size(2);
  LdlFactor f = block_schur_indefinite(t);
  if (f.perturbations.empty()) {
    EXPECT_LT(reconstruction_error(t, f), 1e-7);
  }
}

TEST(Indefinite, SolveMatchesDenseBaseline) {
  BlockToeplitz t = toeplitz::random_indefinite(12, 11, /*diag=*/1.5);
  LdlFactor f = block_schur_indefinite(t);
  ASSERT_TRUE(f.perturbations.empty());
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  std::vector<double> x = solve_ldl(f, b);
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-6);
}

TEST(Indefinite, PaperExamplePerturbsOnceWithExpectedPivot) {
  // Paper section 8.2: first row (1, 1, .5297, .6711, .0077, .3834); the
  // generator's second pivot column (1, 1) has zero hyperbolic norm; with
  // delta = cbrt(1e-16) ~ 1e-5 the perturbed pivot is 1.0000049999875.
  BlockToeplitz t = toeplitz::paper_example_6x6();
  IndefiniteOptions opt;
  opt.delta = 1e-5;  // the paper's cbrt(10^-16)
  LdlFactor f = block_schur_indefinite(t, opt);
  ASSERT_EQ(f.perturbations.size(), 1u);
  const PerturbationEvent& e = f.perturbations[0];
  EXPECT_EQ(e.step, 1);
  EXPECT_NEAR(std::fabs(e.old_pivot), 1.0, 1e-12);
  EXPECT_NEAR(std::fabs(e.new_pivot), 1.0000049999875, 1e-10);
  // The factorization is exact for a nearby matrix: R^T D R ~ T to O(delta).
  EXPECT_LT(reconstruction_error(t, f), 1e-4);
  EXPECT_GT(reconstruction_error(t, f), 1e-12);  // but NOT exact
}

TEST(Indefinite, StrictModeThrowsOnSingularMinor) {
  IndefiniteOptions opt;
  opt.allow_perturbation = false;
  try {
    block_schur_indefinite(toeplitz::paper_example_6x6(), opt);
    FAIL() << "expected SingularMinor";
  } catch (const SingularMinor& e) {
    EXPECT_EQ(e.step, 1);
    EXPECT_NEAR(e.hnorm, 0.0, 1e-12);
  }
}

TEST(Indefinite, SingularMinorFamilyPerturbsAndStaysClose) {
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    BlockToeplitz t = toeplitz::singular_minor_family(24, seed);
    LdlFactor f = block_schur_indefinite(t);
    EXPECT_GE(f.perturbations.size(), 1u) << "seed " << seed;
    // delta ~ 1e-5: the factorization matches a nearby matrix.
    EXPECT_LT(reconstruction_error(t, f), 1e-3) << "seed " << seed;
  }
}

TEST(Indefinite, InterchangesAreCountedForIndefiniteInputs) {
  // Over several seeds, at least one indefinite matrix needs interchanges.
  int total = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    BlockToeplitz t = toeplitz::random_indefinite(12, seed, /*diag=*/0.8);
    LdlFactor f = block_schur_indefinite(t);
    total += f.interchanges;
  }
  EXPECT_GT(total, 0);
}

TEST(Indefinite, BlockSizeOverrideWorks) {
  BlockToeplitz t = toeplitz::random_indefinite(16, 13, /*diag=*/1.5);
  IndefiniteOptions opt;
  opt.block_size = 4;
  LdlFactor f = block_schur_indefinite(t, opt);
  EXPECT_EQ(f.block_size, 4);
  if (f.perturbations.empty()) {
    EXPECT_LT(reconstruction_error(t, f), 1e-7);
  }
}


// Builds a scalar first row (1, .3, .2, t3, r5..) whose leading 4x4 minor is
// exactly singular (t3 solved from the 3x3 cofactor system) while the 1x1,
// 2x2 and 3x3 minors stay nonsingular; re-blocked to m = 2 this puts the
// singular minor in the middle of a *block* step.
toeplitz::BlockToeplitz block_singular_minor(la::index_t n, std::uint64_t seed) {
  // det T4(t3) is quadratic in t3: find a root by bisection on [-3, 3].
  auto det4 = [&](double t3) {
    la::Mat t(4, 4);
    const double row[4] = {1.0, 0.3, 0.2, t3};
    for (la::index_t i = 0; i < 4; ++i)
      for (la::index_t j = 0; j < 4; ++j) t(i, j) = row[std::abs(i - j)];
    // Determinant via unpivoted LDL^T (minors nonsingular for our values).
    la::Mat w(4, 4);
    la::copy(t.view(), w.view());
    std::vector<double> d;
    if (!la::ldlt_unpivoted(w.view(), d, 0.0)) return 0.0;
    double det = 1.0;
    for (double v : d) det *= v;
    return det;
  };
  double lo = 0.0, hi = 3.0;
  // det4 is continuous; bracket a sign change.
  double flo = det4(lo);
  while (det4(hi) * flo > 0.0 && hi < 100.0) hi += 1.0;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (det4(mid) * flo <= 0.0) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  const double t3 = 0.5 * (lo + hi);
  util::Rng rng(seed);
  std::vector<double> row(static_cast<std::size_t>(n));
  row[0] = 1.0;
  row[1] = 0.3;
  row[2] = 0.2;
  row[3] = t3;
  for (la::index_t k = 4; k < n; ++k) row[static_cast<std::size_t>(k)] = rng.uniform(-1, 1);
  return toeplitz::BlockToeplitz::scalar(row);
}

TEST(Indefinite, BlockPathSingularMinorPerturbsAndRefines) {
  // m = 2: the singular 4x4 minor falls inside block step 2, exercising the
  // blocked probe -> sequential fallback -> perturbation chain.
  BlockToeplitz t = block_singular_minor(16, 77).with_block_size(2);
  LdlFactor f = block_schur_indefinite(t);
  EXPECT_GE(f.perturbations.size(), 1u);
  EXPECT_GT(f.max_reflector_norm, 1e2);
  // Refinement restores full accuracy.
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  toeplitz::MatVec op(t, toeplitz::MatVecMode::Fft);
  auto res = solve_refined(
      op,
      [&](const std::vector<double>& rhs, std::vector<double>& out) {
        out = solve_ldl(f, rhs);
      },
      b);
  EXPECT_TRUE(res.converged);
  double err = 0.0;
  for (double v : res.x) err = std::max(err, std::fabs(v - 1.0));
  EXPECT_LT(err, 1e-10);
}

TEST(Indefinite, ScalarAndBlockedPerturbationAgree) {
  // The same matrix factored at m = 1 and m = 2 must both perturb and both
  // refine to the same solution.
  BlockToeplitz t1 = block_singular_minor(16, 91);
  BlockToeplitz t2 = t1.with_block_size(2);
  LdlFactor f1 = block_schur_indefinite(t1);
  LdlFactor f2 = block_schur_indefinite(t2);
  EXPECT_GE(f1.perturbations.size(), 1u);
  EXPECT_GE(f2.perturbations.size(), 1u);
  std::vector<double> b = toeplitz::rhs_for_ones(t1);
  toeplitz::MatVec op(t1, toeplitz::MatVecMode::Fft);
  auto solve_with = [&](const LdlFactor& f) {
    return solve_refined(
               op,
               [&](const std::vector<double>& rhs, std::vector<double>& out) {
                 out = solve_ldl(f, rhs);
               },
               b)
        .x;
  };
  std::vector<double> x1 = solve_with(f1);
  std::vector<double> x2 = solve_with(f2);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x1[i], x2[i], 1e-9);
}

}  // namespace
}  // namespace bst::core
