// Tests for iterative refinement (paper section 8): the worked 6x6 example
// with its published error trajectory, plus random singular-minor families.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>

#include "core/indefinite.h"
#include "core/refine.h"
#include "core/schur.h"
#include "core/solve.h"
#include "la/norms.h"
#include "toeplitz/generators.h"
#include "toeplitz/matvec.h"
#include "util/rng.h"

namespace bst::core {
namespace {

using toeplitz::BlockToeplitz;
using toeplitz::MatVec;

double error_norm(const std::vector<double>& x, const std::vector<double>& xtrue) {
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - xtrue[i];
    s += d * d;
  }
  return std::sqrt(s);
}

TEST(Refine, PaperExampleErrorTrajectory) {
  // Paper: x = ones(6); ||x - x1|| = 3.6e-5, after one refinement step
  // 7.0e-10, after two 1.6e-14 ~ machine precision.
  BlockToeplitz t = toeplitz::paper_example_6x6();
  IndefiniteOptions opt;
  opt.delta = 1e-5;
  LdlFactor f = block_schur_indefinite(t, opt);
  ASSERT_EQ(f.perturbations.size(), 1u);

  const std::vector<double> xtrue(6, 1.0);
  std::vector<double> b;
  MatVec op(t, toeplitz::MatVecMode::Direct);
  op.apply(xtrue, b);
  // Check the paper's printed right-hand side (eq. after (50)).
  EXPECT_NEAR(b[0], 3.5919, 1e-12);
  EXPECT_NEAR(b[2], 4.7305, 1e-12);

  // Step errors: solve once, then refine manually to observe the decay.
  std::vector<double> x1 = solve_ldl(f, b);
  const double e1 = error_norm(x1, xtrue);
  EXPECT_GT(e1, 1e-6);
  EXPECT_LT(e1, 1e-3);  // paper: 3.6e-5

  RefineResult res = solve_refined(op, [&](const std::vector<double>& rhs,
                                           std::vector<double>& out) { out = solve_ldl(f, rhs); },
                                   b);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 4);  // paper: 2 steps suffice
  EXPECT_LT(error_norm(res.x, xtrue), 1e-11);
  // The residual history must decay monotonically by orders of magnitude.
  ASSERT_GE(res.residual_norms.size(), 2u);
  EXPECT_LT(res.residual_norms[1], res.residual_norms[0] * 1e-2);
}

TEST(Refine, ConvergesForSingularMinorFamilies) {
  for (std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    BlockToeplitz t = toeplitz::singular_minor_family(32, seed);
    LdlFactor f = block_schur_indefinite(t);
    std::vector<double> b = toeplitz::rhs_for_ones(t);
    MatVec op(t, toeplitz::MatVecMode::Fft);
    RefineResult res = solve_refined(
        op, [&](const std::vector<double>& rhs, std::vector<double>& out) {
          out = solve_ldl(f, rhs);
        },
        b);
    EXPECT_TRUE(res.converged) << "seed " << seed;
    EXPECT_LE(res.iterations, 6) << "seed " << seed;
    const std::vector<double> ones(32, 1.0);
    EXPECT_LT(error_norm(res.x, ones) / std::sqrt(32.0), 1e-9) << "seed " << seed;
  }
}

TEST(Refine, NoRefinementNeededForWellConditionedSpd) {
  BlockToeplitz t = toeplitz::kms(16, 0.3);
  SchurFactor f = block_schur_factor(t);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  MatVec op(t, toeplitz::MatVecMode::Fft);
  RefineResult res = solve_refined(
      op, [&](const std::vector<double>& rhs, std::vector<double>& out) {
        out = solve_spd(f, rhs);
      },
      b);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 1);
}

TEST(Refine, FftResidualsGiveSameResult) {
  BlockToeplitz t = toeplitz::singular_minor_family(64, 9);
  LdlFactor f = block_schur_indefinite(t);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  auto solver = [&](const std::vector<double>& rhs, std::vector<double>& out) {
    out = solve_ldl(f, rhs);
  };
  RefineResult direct = solve_refined(MatVec(t, toeplitz::MatVecMode::Direct), solver, b);
  RefineResult fft = solve_refined(MatVec(t, toeplitz::MatVecMode::Fft), solver, b);
  ASSERT_TRUE(direct.converged);
  ASSERT_TRUE(fft.converged);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(direct.x[i], fft.x[i], 1e-9);
}

// FFT-vs-dense agreement across every reflector representation: the
// residual route must not change the refined answer no matter which
// factorization produced the solver (documented bound: 1e-9 on a
// moderately conditioned SPD system, see docs/README.md SOLVERS).
class RefineFftAcrossReps : public ::testing::TestWithParam<core::Representation> {};

TEST_P(RefineFftAcrossReps, FftResidualsMatchDense) {
  BlockToeplitz t = toeplitz::kms(96, 0.8).with_block_size(4);
  SchurOptions sopt;
  sopt.rep = GetParam();
  SchurFactor f = block_schur_factor(t, sopt);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  auto solver = [&](const std::vector<double>& rhs, std::vector<double>& out) {
    out = solve_spd(f, rhs);
  };
  RefineResult direct = solve_refined(MatVec(t, toeplitz::MatVecMode::Direct), solver, b);
  RefineResult fft = solve_refined(MatVec(t, toeplitz::MatVecMode::Fft), solver, b);
  ASSERT_TRUE(direct.converged);
  ASSERT_TRUE(fft.converged);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(direct.x[i], fft.x[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllRepresentations, RefineFftAcrossReps,
                         ::testing::Values(core::Representation::AccumulatedU,
                                           core::Representation::VY1,
                                           core::Representation::VY2,
                                           core::Representation::YTY,
                                           core::Representation::Sequential));

TEST(Refine, RespectsMaxIterations) {
  BlockToeplitz t = toeplitz::paper_example_6x6();
  LdlFactor f = block_schur_indefinite(t);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  RefineOptions opt;
  opt.max_iters = 0;
  RefineResult res = solve_refined(
      MatVec(t, toeplitz::MatVecMode::Fft),
      [&](const std::vector<double>& rhs, std::vector<double>& out) { out = solve_ldl(f, rhs); },
      b, opt);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Refine, HistoriesAreRecorded) {
  BlockToeplitz t = toeplitz::paper_example_6x6();
  LdlFactor f = block_schur_indefinite(t);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  RefineResult res = solve_refined(
      MatVec(t, toeplitz::MatVecMode::Fft),
      [&](const std::vector<double>& rhs, std::vector<double>& out) { out = solve_ldl(f, rhs); },
      b);
  EXPECT_EQ(res.residual_norms.size(), static_cast<std::size_t>(res.iterations) + 1);
  EXPECT_GE(res.correction_norms.size(), static_cast<std::size_t>(res.iterations));
}


// The stop rule, from the solver's side: every call of the factor solve
// after the first solves for the residual of the current iterate, which
// the test rebuilds from the outputs it saw; no call may come once that
// iterate's backward error is at roundoff (eta <= eps).
TEST(Refine, NoSolveAfterBackwardErrorReachesRoundoff) {
  int at_roundoff = 0;
  for (std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    BlockToeplitz t = toeplitz::singular_minor_family(128, seed);
    LdlFactor f = block_schur_indefinite(t);
    std::vector<double> b = toeplitz::rhs_for_ones(t);
    const MatVec op(t, toeplitz::MatVecMode::Fft);
    int calls = 0;
    std::vector<double> x;  // the iterate whose residual the next call solves
    const FactorSolve counting = [&](const std::vector<double>& rhs, std::vector<double>& out) {
      if (calls > 0) {
        EXPECT_GT(op.backward_error(b, x, rhs), DBL_EPSILON)
            << "seed " << seed << " call " << calls;
      }
      out = solve_ldl(f, rhs);
      if (calls == 0) {
        x = out;
      } else {
        for (std::size_t i = 0; i < x.size(); ++i) x[i] += out[i];
      }
      ++calls;
    };
    RefineResult res = solve_refined(op, counting, b);
    EXPECT_TRUE(res.converged) << "seed " << seed;
    EXPECT_EQ(res.correction_norms.size(), static_cast<std::size_t>(calls - 1));
    if (res.backward_error <= DBL_EPSILON) {
      EXPECT_EQ(calls, res.iterations + 1) << "seed " << seed;  // stopped without a solve
      ++at_roundoff;
    } else {
      // Certified above roundoff: a tol or stagnation exit, whose
      // correction is solved but not applied.
      EXPECT_EQ(calls, res.iterations + 2) << "seed " << seed;
    }
  }
  EXPECT_GT(at_roundoff, 0);  // the eta <= eps exit was exercised
}

// Above the bound neither the 0.5-contraction exit nor the tol exit may
// stop the loop: seed 1248 contracts by ~0.8 per step, which a contraction
// exit would read as roundoff stagnation after one step.  It refines to the
// cap and reports what it reached.
TEST(Refine, SlowContractionAboveTheBoundRefinesToTheCap) {
  const la::index_t n = 1024;
  BlockToeplitz t = toeplitz::singular_minor_family(n, 1248);
  LdlFactor f = block_schur_indefinite(t);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (la::index_t i = 0; i < n; ++i) {
    b[static_cast<std::size_t>(i)] = std::sin(0.7 * static_cast<double>(i) + 0.013 * 1248);
  }
  RefineResult res = solve_refined(
      MatVec(t, toeplitz::MatVecMode::Fft),
      [&](const std::vector<double>& rhs, std::vector<double>& out) { out = solve_ldl(f, rhs); },
      b);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, RefineOptions{}.max_iters);
  EXPECT_GT(res.backward_error, backward_error_bound(n));
  EXPECT_EQ(res.residual_norms.size(), static_cast<std::size_t>(res.iterations) + 1);
}

TEST(Refine, ImprovesIllConditionedForwardError) {
  // The prolate matrix at this size has cond ~ 1e10; one or two refinement
  // steps against the exact operator tighten the residual substantially.
  toeplitz::BlockToeplitz t = toeplitz::prolate(48, 0.38);
  SchurFactor f = block_schur_factor(t);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  MatVec op(t, toeplitz::MatVecMode::Fft);
  std::vector<double> x0 = solve_spd(f, b);
  std::vector<double> r0;
  op.residual(b, x0, r0);
  RefineResult res = solve_refined(
      op, [&](const std::vector<double>& rhs, std::vector<double>& out) {
        out = solve_spd(f, rhs);
      },
      b);
  std::vector<double> r1;
  op.residual(b, res.x, r1);
  EXPECT_LE(la::norm2(r1), la::norm2(r0) * 1.0001);
  EXPECT_TRUE(res.converged);
}

}  // namespace
}  // namespace bst::core
