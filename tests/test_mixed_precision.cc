// Mixed-precision iterative refinement: a factor rounded to single
// precision loses ~8 digits, and the paper's refinement loop (section 8)
// against the exact double-precision Toeplitz operator restores full
// accuracy in a handful of steps -- the classical mixed-precision scheme,
// driven entirely by machinery the paper already requires.
#include <gtest/gtest.h>

#include <cmath>

#include "core/refine.h"
#include "core/schur.h"
#include "core/solve.h"
#include "la/norms.h"
#include "toeplitz/generators.h"
#include "toeplitz/matvec.h"

namespace bst::core {
namespace {

using toeplitz::BlockToeplitz;
using toeplitz::MatVec;

class MixedPrecisionSweep : public ::testing::TestWithParam<int> {};

TEST_P(MixedPrecisionSweep, FloatFactorRefinesToDoubleAccuracy) {
  const int family = GetParam();
  BlockToeplitz t = [&]() -> BlockToeplitz {
    switch (family) {
      case 0: return toeplitz::kms(64, 0.6);
      case 1: return toeplitz::fgn(64, 0.7);
      default: return toeplitz::random_spd_block(4, 16, 3, 11);
    }
  }();
  SchurFactor f = block_schur_factor(t);
  demote_factor_to_float(f.r.view());

  std::vector<double> b = toeplitz::rhs_for_ones(t);
  MatVec op(t, toeplitz::MatVecMode::Fft);
  // Plain float-factor solve: single-precision-level error.
  std::vector<double> x0 = solve_spd(f, b);
  double e0 = 0.0;
  for (double v : x0) e0 = std::max(e0, std::fabs(v - 1.0));
  EXPECT_GT(e0, 1e-9) << "float demotion should cost accuracy";

  // Refinement against the exact operator recovers double accuracy.
  RefineResult res = solve_refined(
      op, [&](const std::vector<double>& rhs, std::vector<double>& out) {
        out = solve_spd(f, rhs);
      },
      b);
  EXPECT_TRUE(res.converged) << "family " << family;
  EXPECT_LE(res.iterations, 8) << "family " << family;
  double e1 = 0.0;
  for (double v : res.x) e1 = std::max(e1, std::fabs(v - 1.0));
  EXPECT_LT(e1, 1e-11) << "family " << family;
  EXPECT_LT(e1, e0 * 1e-3) << "family " << family;
}

INSTANTIATE_TEST_SUITE_P(Families, MixedPrecisionSweep, ::testing::Values(0, 1, 2));

TEST(MixedPrecision, DemoteIsIdempotent) {
  BlockToeplitz t = toeplitz::kms(16, 0.5);
  SchurFactor f = block_schur_factor(t);
  demote_factor_to_float(f.r.view());
  la::Mat once(16, 16);
  la::copy(f.r.view(), once.view());
  demote_factor_to_float(f.r.view());
  EXPECT_DOUBLE_EQ(la::max_diff(once.view(), f.r.view()), 0.0);
}

}  // namespace
}  // namespace bst::core
