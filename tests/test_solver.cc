// Tests for the one-call solver facade and the block Levinson baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "baseline/block_levinson.h"
#include "baseline/dense_solver.h"
#include "baseline/levinson.h"
#include "core/solve.h"
#include "core/solver.h"
#include "toeplitz/generators.h"
#include "toeplitz/matvec.h"
#include "util/rng.h"
#include "util/trace.h"
#include "util/watchdog.h"

namespace bst {
namespace {

using core::SolvePath;
using toeplitz::BlockToeplitz;

double max_err_vs_ones(const std::vector<double>& x) {
  double e = 0.0;
  for (double v : x) e = std::max(e, std::fabs(v - 1.0));
  return e;
}

TEST(ToeplitzSolve, SpdTakesSpdPath) {
  BlockToeplitz t = toeplitz::random_spd_block(3, 8, 2, 5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveReport rep = core::toeplitz_solve(t, b);
  EXPECT_EQ(rep.path, SolvePath::Spd);
  EXPECT_FALSE(rep.refined);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-10);
  EXPECT_GT(rep.factor_flops, 0u);
  EXPECT_EQ(rep.backward_error, -1.0);  // the plain route is not certified
}

TEST(ToeplitzSolve, IndefiniteFallsBack) {
  BlockToeplitz t = toeplitz::random_indefinite(12, 3, /*diag=*/1.2);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveReport rep = core::toeplitz_solve(t, b);
  EXPECT_EQ(rep.path, SolvePath::Indefinite);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-7);
}

TEST(ToeplitzSolve, SingularMinorPerturbsAndRefines) {
  BlockToeplitz t = toeplitz::paper_example_6x6();
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveReport rep = core::toeplitz_solve(t, b);
  EXPECT_EQ(rep.path, SolvePath::IndefinitePerturbed);
  EXPECT_TRUE(rep.refined);
  EXPECT_TRUE(rep.converged);
  EXPECT_GE(rep.perturbations, 1u);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-12);
  EXPECT_GE(rep.final_residual, 0.0);
  EXPECT_LT(rep.final_residual, 1e-12);
}

TEST(ToeplitzSolve, AlwaysRefineOnSpd) {
  BlockToeplitz t = toeplitz::kms(16, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveOptions opt;
  opt.always_refine = true;
  core::SolveReport rep = core::toeplitz_solve(t, b, opt);
  EXPECT_TRUE(rep.refined);
  EXPECT_LE(rep.refinement_steps, 1);
  EXPECT_LT(rep.final_residual, 1e-11);
}

TEST(ToeplitzSolve, AssumeIndefiniteSkipsSpd) {
  BlockToeplitz t = toeplitz::kms(10, 0.5);  // SPD, but force the other path
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveOptions opt;
  opt.assume_indefinite = true;
  core::SolveReport rep = core::toeplitz_solve(t, b, opt);
  EXPECT_EQ(rep.path, SolvePath::Indefinite);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-9);
}

TEST(ToeplitzSolve, PathNames) {
  EXPECT_STREQ(core::to_string(SolvePath::Spd), "spd");
  EXPECT_STREQ(core::to_string(SolvePath::Indefinite), "indefinite");
  EXPECT_STREQ(core::to_string(SolvePath::IndefinitePerturbed), "indefinite+perturbed");
  EXPECT_STREQ(core::to_string(SolvePath::Pcg), "pcg");
}

TEST(SolverPolicy, SmallSystemsStayOnSchur) {
  BlockToeplitz t = toeplitz::kms(256, 0.5);
  core::PolicyDecision dec = core::choose_solver(t, core::SolverPolicy{});
  EXPECT_EQ(dec.chosen, core::SolverKind::Schur);
  EXPECT_EQ(dec.reason, "small");
  EXPECT_EQ(dec.condest, -1.0);       // never probed
  EXPECT_EQ(dec.precond, nullptr);    // never built
}

TEST(SolverPolicy, LargeWellConditionedCrossesToPcg) {
  BlockToeplitz t = toeplitz::kms(512, 0.5);
  core::SolverPolicy pol;
  pol.pcg_min_n = 128;
  core::PolicyDecision dec = core::choose_solver(t, pol);
  EXPECT_EQ(dec.chosen, core::SolverKind::Pcg);
  EXPECT_EQ(dec.reason, "crossover");
  EXPECT_GE(dec.condest, 1.0);
  ASSERT_NE(dec.precond, nullptr);
  EXPECT_TRUE(dec.precond->positive_definite());
}

TEST(SolverPolicy, IndefiniteProbeStaysOnSchur) {
  BlockToeplitz t = toeplitz::singular_minor_family(256, 9);
  core::SolverPolicy pol;
  pol.pcg_min_n = 64;
  core::PolicyDecision dec = core::choose_solver(t, pol);
  EXPECT_EQ(dec.chosen, core::SolverKind::Schur);
  EXPECT_EQ(dec.reason, "not_spd");
}

TEST(SolverPolicy, IllConditionedProbeStaysOnSchur) {
  BlockToeplitz t = toeplitz::kms(256, 0.9);
  core::SolverPolicy pol;
  pol.pcg_min_n = 64;
  pol.pcg_max_cond = 2.0;  // anything real fails this on purpose
  core::PolicyDecision dec = core::choose_solver(t, pol);
  EXPECT_EQ(dec.chosen, core::SolverKind::Schur);
  EXPECT_EQ(dec.reason, "ill_conditioned");
  EXPECT_GT(dec.condest, 2.0);
}

TEST(SolverPolicy, FromEnvOverrides) {
  setenv("BST_SOLVER", "pcg", 1);
  setenv("BST_SOLVER_MIN_N", "123", 1);
  setenv("BST_SOLVER_MAX_COND", "1e4", 1);
  core::SolverPolicy pol = core::SolverPolicy::from_env();
  unsetenv("BST_SOLVER");
  unsetenv("BST_SOLVER_MIN_N");
  unsetenv("BST_SOLVER_MAX_COND");
  EXPECT_EQ(pol.kind, core::SolverKind::Pcg);
  EXPECT_EQ(pol.pcg_min_n, 123);
  EXPECT_DOUBLE_EQ(pol.pcg_max_cond, 1e4);
  EXPECT_THROW(core::parse_solver_kind("bogus"), std::invalid_argument);
}

TEST(SolverPolicy, FromEnvRejectsGarbageAndTreatsEmptyAsUnset) {
  const core::SolverPolicy defaults;
  for (const char* var : {"BST_SOLVER", "BST_SOLVER_MIN_N", "BST_SOLVER_MAX_COND"}) {
    for (const char* bad : {"abc", "5x", "-4", "inf", "fast"}) {
      setenv(var, bad, 1);
      try {
        (void)core::SolverPolicy::from_env();
        ADD_FAILURE() << var << "=" << bad << " was accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(var), std::string::npos) << e.what();
      }
    }
    setenv(var, "", 1);
    const core::SolverPolicy pol = core::SolverPolicy::from_env();
    EXPECT_EQ(pol.kind, defaults.kind);
    EXPECT_EQ(pol.pcg_min_n, defaults.pcg_min_n);
    EXPECT_DOUBLE_EQ(pol.pcg_max_cond, defaults.pcg_max_cond);
    unsetenv(var);
  }
}

TEST(ToeplitzSolve, PcgPathSolvesLargeWellConditioned) {
  BlockToeplitz t = toeplitz::kms(1024, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveOptions opt;
  opt.policy.pcg_min_n = 256;
  core::SolveReport rep = core::toeplitz_solve(t, b, opt);
  EXPECT_EQ(rep.path, SolvePath::Pcg);
  EXPECT_EQ(rep.solver_path, "pcg");
  EXPECT_EQ(rep.policy_reason, "crossover");
  EXPECT_GT(rep.pcg_iterations, 0);
  EXPECT_TRUE(rep.converged);
  EXPECT_GE(rep.final_residual, 0.0);
  EXPECT_LE(rep.backward_error, core::backward_error_bound(t.order()));
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-9);
}

TEST(ToeplitzSolve, ForcedPcgOnIndefiniteFallsBackToSchur) {
  // Forcing PCG onto a matrix whose Strang circulant is not SPD must land
  // on the Schur path with mandatory refinement, flagged as the fallback,
  // with a watchdog warning explaining why.
  BlockToeplitz t = toeplitz::singular_minor_family(128, 9);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveOptions opt;
  opt.policy.kind = core::SolverKind::Pcg;
  util::Tracer::enable();
  util::Watchdog::reset();
  core::SolveReport rep = core::toeplitz_solve(t, b, opt);
  util::Tracer::disable();
  EXPECT_EQ(rep.solver_path, "pcg+fallback");
  EXPECT_TRUE(rep.refined);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-8);
  bool warned = false;
  for (const auto& w : util::Watchdog::snapshot()) {
    if (w.code == "pcg_precond_not_spd" || w.code == "pcg_no_convergence" ||
        w.code == "pcg_breakdown") {
      warned = true;
    }
  }
  util::Watchdog::reset();
  EXPECT_TRUE(warned);
}

TEST(ToeplitzSolve, ForcedSchurSkipsProbeOnLargeSystem) {
  BlockToeplitz t = toeplitz::kms(512, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveOptions opt;
  opt.policy.kind = core::SolverKind::Schur;
  opt.policy.pcg_min_n = 64;  // would cross over under Auto
  core::SolveReport rep = core::toeplitz_solve(t, b, opt);
  EXPECT_EQ(rep.path, SolvePath::Spd);
  EXPECT_EQ(rep.solver_path, "schur");
  EXPECT_EQ(rep.policy_reason, "forced");
  EXPECT_EQ(rep.condest, -1.0);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-9);
}

TEST(ToeplitzSolve, ReflectorNormTracking) {
  // Section 8.2: a perturbed factorization must exhibit transforms of norm
  // ~ 1/delta (delta ~ 1e-5): large_reflectors counts them (paper: two).
  BlockToeplitz t = toeplitz::paper_example_6x6();
  core::IndefiniteOptions opt;
  opt.delta = 1e-5;
  core::LdlFactor f = core::block_schur_indefinite(t, opt);
  EXPECT_GE(f.large_reflectors, 1);
  EXPECT_LE(f.large_reflectors, 4);
  EXPECT_GT(f.max_reflector_norm, 1e2);   // ~ 1/sqrt(delta) or larger
  // A clean SPD factorization has modest transform norms and none large.
  core::LdlFactor g = core::block_schur_indefinite(toeplitz::kms(16, 0.5));
  EXPECT_EQ(g.large_reflectors, 0);
  EXPECT_LT(g.max_reflector_norm, 1e3);
}

// ---- certified answers --------------------------------------------------

std::vector<double> sin_rhs(la::index_t n, std::uint64_t seed) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (la::index_t i = 0; i < n; ++i) {
    b[static_cast<std::size_t>(i)] =
        std::sin(0.7 * static_cast<double>(i) + 0.013 * static_cast<double>(seed));
  }
  return b;
}

// eta of x against the O(n^2) reference operator, independent of the FFT
// operator that certified it.
double reference_backward_error(const BlockToeplitz& t, const std::vector<double>& b,
                                const std::vector<double>& x) {
  const toeplitz::MatVec op(t, toeplitz::MatVecMode::Direct);
  std::vector<double> r;
  op.residual(b, x, r);
  return op.backward_error(b, x, r);
}

// eta evaluated in long double from the dense matrix.
long double dense_backward_error(const BlockToeplitz& t, const std::vector<double>& b,
                                 const std::vector<double>& x) {
  const la::Mat d = t.dense();
  const la::index_t n = t.order();
  long double nt = 0, nr = 0, nx = 0, nb = 0;
  for (la::index_t i = 0; i < n; ++i) {
    long double row = 0, ri = b[static_cast<std::size_t>(i)];
    for (la::index_t j = 0; j < n; ++j) {
      row += std::fabs(static_cast<long double>(d(i, j)));
      ri -= static_cast<long double>(d(i, j)) * x[static_cast<std::size_t>(j)];
    }
    nt = std::max(nt, row);
    nr = std::max(nr, std::fabs(ri));
    nx = std::max(nx, std::fabs(static_cast<long double>(x[static_cast<std::size_t>(i)])));
    nb = std::max(nb, std::fabs(static_cast<long double>(b[static_cast<std::size_t>(i)])));
  }
  return nr / (nt * nx + nb);
}

// Seeds 1248 and 2806 contract by ~0.8 and ~0.7 per refinement step; with
// b_i = sin(0.7 i + 0.013 s) they need ~47 and ~23 steps to reach 10 n eps,
// so at max_iters = 20 the solve raises instead of returning the answer.
// A contraction exit would have stopped after one step at eta ~ 1e-8.
TEST(Certificate, SlowSeedsRaiseAccuracyNotReached) {
  const la::index_t n = 1024;
  for (const std::uint64_t seed : {1248u, 2806u}) {
    const BlockToeplitz t = toeplitz::singular_minor_family(n, seed);
    try {
      (void)core::toeplitz_solve(t, sin_rhs(n, seed));
      ADD_FAILURE() << "seed " << seed << " returned an answer";
    } catch (const core::AccuracyNotReached& e) {
      EXPECT_GT(e.backward_error, e.bound) << "seed " << seed;
      EXPECT_EQ(e.bound, core::backward_error_bound(n));
      EXPECT_EQ(e.route, "schur+refine");
      EXPECT_EQ(e.steps, core::RefineOptions{}.max_iters);
      EXPECT_NE(std::string(e.what()).find("AccuracyNotReached"), std::string::npos);
    }
  }
}

// With b = T * ones the same two matrices contract from a smaller start and
// reach the bound after 13 and 12 steps: the answers come back certified,
// and the reference operator agrees that they are inside the bound.  (After
// one step, seed 1248's answer was off by max|x - 1| = 1.4e-3.)
TEST(Certificate, SlowSeedsWithOnesRhsReturnOnlyCertifiedAnswers) {
  const la::index_t n = 1024;
  for (const std::uint64_t seed : {1248u, 2806u}) {
    const BlockToeplitz t = toeplitz::singular_minor_family(n, seed);
    const std::vector<double> b = toeplitz::rhs_for_ones(t);
    const core::SolveReport rep = core::toeplitz_solve(t, b);
    EXPECT_EQ(rep.solver_path, "schur+refine");
    EXPECT_TRUE(rep.converged);
    EXPECT_GT(rep.refinement_steps, 4) << "seed " << seed;
    EXPECT_LE(rep.backward_error, core::backward_error_bound(n)) << "seed " << seed;
    EXPECT_LE(reference_backward_error(t, b, rep.x), core::backward_error_bound(n))
        << "seed " << seed;
    EXPECT_LT(max_err_vs_ones(rep.x), 1e-3) << "seed " << seed;
  }
}

// Seeds 1 .. 3000 of the family at n = 1024: no answer comes back above the
// bound (by the certificate and by the reference operator), none comes back
// converged above it, and only the two slow seeds raise.  Ten shards keep
// each ctest case near 5 s.
class CertificateSweep : public ::testing::TestWithParam<int> {};

TEST_P(CertificateSweep, NoAnswerAboveTheBound) {
  const la::index_t n = 1024;
  const double bound = core::backward_error_bound(n);
  const std::set<std::uint64_t> slow = {1248, 2806};
  const std::uint64_t first = 300 * static_cast<std::uint64_t>(GetParam()) + 1;
  for (std::uint64_t seed = first; seed < first + 300; ++seed) {
    const BlockToeplitz t = toeplitz::singular_minor_family(n, seed);
    const std::vector<double> b = sin_rhs(n, seed);
    try {
      const core::SolveReport rep = core::toeplitz_solve(t, b);
      EXPECT_TRUE(rep.converged) << "seed " << seed;
      EXPECT_LE(rep.backward_error, bound) << "seed " << seed;
      EXPECT_GE(rep.backward_error, 0.0) << "seed " << seed;
      EXPECT_LE(reference_backward_error(t, b, rep.x), bound) << "seed " << seed;
    } catch (const core::AccuracyNotReached& e) {
      EXPECT_GT(e.backward_error, bound) << "seed " << seed;
      EXPECT_TRUE(slow.contains(seed)) << "seed " << seed << ": " << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds1To3000, CertificateSweep, ::testing::Range(0, 10));

// The reported eta is the true one: it matches a long-double dense
// evaluation on every route that sets it, at roundoff and well above it.
TEST(Certificate, BackwardErrorMatchesLongDoubleDenseEvaluation) {
  const double tol = 2.0 * DBL_EPSILON;  // measured differences are below 0.3 eps
  // schur+refine
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const BlockToeplitz t = toeplitz::singular_minor_family(256, seed);
    const std::vector<double> b = sin_rhs(256, seed);
    const core::SolveReport rep = core::toeplitz_solve(t, b);
    ASSERT_EQ(rep.solver_path, "schur+refine");
    EXPECT_NEAR(rep.backward_error, static_cast<double>(dense_backward_error(t, b, rep.x)), tol)
        << "seed " << seed;
  }
  // pcg
  {
    const BlockToeplitz t = toeplitz::kms(256, 0.5).with_block_size(2);
    const std::vector<double> b = sin_rhs(256, 7);
    core::SolveOptions opt;
    opt.policy.pcg_min_n = 64;
    const core::SolveReport rep = core::toeplitz_solve(t, b, opt);
    ASSERT_EQ(rep.solver_path, "pcg");
    EXPECT_NEAR(rep.backward_error, static_cast<double>(dense_backward_error(t, b, rep.x)), tol);
  }
  // pcg+fallback
  {
    const BlockToeplitz t = toeplitz::singular_minor_family(128, 9);
    const std::vector<double> b = sin_rhs(128, 9);
    core::SolveOptions opt;
    opt.policy.kind = core::SolverKind::Pcg;
    const core::SolveReport rep = core::toeplitz_solve(t, b, opt);
    ASSERT_EQ(rep.solver_path, "pcg+fallback");
    EXPECT_NEAR(rep.backward_error, static_cast<double>(dense_backward_error(t, b, rep.x)), tol);
  }
  // Well above roundoff: one unrefined solve through the perturbed factor.
  {
    const BlockToeplitz t = toeplitz::singular_minor_family(256, 4);
    const std::vector<double> b = sin_rhs(256, 4);
    const core::LdlFactor f = core::block_schur_indefinite(t);
    core::RefineOptions ropt;
    ropt.max_iters = 0;
    const core::RefineResult res = core::solve_refined(
        toeplitz::MatVec(t, toeplitz::MatVecMode::Fft),
        [&](const std::vector<double>& rhs, std::vector<double>& out) {
          out = core::solve_ldl(f, rhs);
        },
        b, ropt);
    const auto exact = static_cast<double>(dense_backward_error(t, b, res.x));
    EXPECT_GT(exact, 1e3 * DBL_EPSILON);
    EXPECT_NEAR(res.backward_error, exact, 1e-6 * exact);
    EXPECT_EQ(res.converged, res.backward_error <= core::backward_error_bound(256));
  }
}

// m_s > m: a breakdown inside the leading m_s x m_s block is a typed
// NotPositiveDefinite at step 0, so the solve falls back to the indefinite
// driver.
TEST(ToeplitzSolve, LeadingBlockBreakdownAtMsAboveMFallsBack) {
  const BlockToeplitz t = toeplitz::random_indefinite(256, 1, 1.2);
  core::SchurOptions sopt;
  sopt.block_size = 16;
  try {
    (void)core::block_schur_factor(t, sopt);
    ADD_FAILURE() << "no breakdown";
  } catch (const core::NotPositiveDefinite& e) {
    EXPECT_EQ(e.step, 0);
  }
  core::SolveOptions opt;
  opt.spd.block_size = opt.indefinite.block_size = 16;
  const std::vector<double> b = toeplitz::rhs_for_ones(t);
  const core::SolveReport rep = core::toeplitz_solve(t, b, opt);
  EXPECT_EQ(rep.path, SolvePath::Indefinite);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-8);
}

// ... and a singular minor inside it is a typed SingularMinor at step 0.
TEST(ToeplitzSolve, SingularMinorInLeadingBlockIsTyped) {
  core::SolveOptions opt;
  opt.spd.block_size = opt.indefinite.block_size = 16;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const BlockToeplitz t = toeplitz::singular_minor_family(1024, seed);
    try {
      (void)core::toeplitz_solve(t, toeplitz::rhs_for_ones(t), opt);
      ADD_FAILURE() << "seed " << seed << " solved";
    } catch (const core::SingularMinor& e) {
      EXPECT_EQ(e.step, 0) << "seed " << seed;
    }
  }
}

// ---- block size policy (paper section 6.5, Fig. 10) ---------------------

// A zero matrix of block size m and order n: the rule reads the shape only.
BlockToeplitz of_shape(la::index_t m, la::index_t n) { return BlockToeplitz(m, la::Mat(m, n)); }

TEST(BlockSizePolicy, SmallestTileFillingMultipleThatDividesTheOrder) {
  struct Case {
    la::index_t m, n, ms;
  };
  for (const Case c : {Case{1, 1024, 8}, Case{2, 512, 8}, Case{4, 512, 8}, Case{3, 768, 12},
                       Case{5, 1000, 10}, Case{6, 960, 12}, Case{16, 3840, 16},
                       Case{1, 1001, 1}, Case{1, 4, 1}}) {
    EXPECT_EQ(core::choose_block_size(of_shape(c.m, c.n)), c.ms) << "m=" << c.m << " n=" << c.n;
  }
}

TEST(BlockSizePolicy, ReportsTheBlockSizeInEffectAndWhy) {
  const BlockToeplitz t = toeplitz::kms(512, 0.5);
  const std::vector<double> b = toeplitz::rhs_for_ones(t);
  const core::SolveReport chosen = core::toeplitz_solve(t, b);
  EXPECT_EQ(chosen.path, SolvePath::Spd);
  EXPECT_EQ(chosen.block_size, 8);
  EXPECT_EQ(chosen.block_size_reason, "policy");
  core::SolveOptions opt;
  opt.spd.block_size = 1;
  const core::SolveReport caller = core::toeplitz_solve(t, b, opt);
  EXPECT_EQ(caller.block_size, 1);
  EXPECT_EQ(caller.block_size_reason, "caller");
  // A forced route runs the kernels as configured: the structural m.
  opt.spd.block_size = 0;
  opt.policy.kind = core::SolverKind::Schur;
  const core::SolveReport forced = core::toeplitz_solve(t, b, opt);
  EXPECT_EQ(forced.block_size, 1);
  EXPECT_EQ(forced.block_size_reason, "caller");
  EXPECT_EQ(forced.x, caller.x);
}

// prolate(1024, 0.49) breaks down at m_s = 2, 4, 8 and 16 but factors at
// m = 1: the SPD attempt at the chosen m_s = 8 retries at m.
TEST(BlockSizePolicy, BreakdownAtChosenMsRetriesAtM) {
  const BlockToeplitz t = toeplitz::prolate(1024, 0.49);
  ASSERT_EQ(core::choose_block_size(t), 8);
  core::SchurOptions at8;
  at8.block_size = 8;
  EXPECT_THROW((void)core::block_schur_factor(t, at8), core::NotPositiveDefinite);
  const std::vector<double> b = sin_rhs(1024, 1);
  const core::SolveReport rep = core::toeplitz_solve(t, b);
  EXPECT_EQ(rep.path, SolvePath::Spd);
  EXPECT_EQ(rep.solver_path, "schur");
  EXPECT_EQ(rep.block_size, 1);
  EXPECT_EQ(rep.block_size_reason, "retry_at_m");
  EXPECT_LE(reference_backward_error(t, b, rep.x), core::backward_error_bound(1024));
  // The same bits as a solve the caller pinned at m.
  core::SolveOptions at_m;
  at_m.spd.block_size = 1;
  EXPECT_EQ(core::toeplitz_solve(t, b, at_m).x, rep.x);
}

// Both SPD attempts break down (at m_s = 8, then at m); the indefinite
// driver keeps m, so the answer has the bits of a solve that skips the SPD
// attempt altogether -- the indefinite route as it was before the policy.
TEST(BlockSizePolicy, IndefiniteRouteKeepsItsBitsWhenBothSpdAttemptsFail) {
  const BlockToeplitz t = toeplitz::singular_minor_family(1024, 1);
  for (const la::index_t ms : {la::index_t{8}, la::index_t{1}}) {
    core::SchurOptions sopt;
    sopt.block_size = ms;
    EXPECT_THROW((void)core::block_schur_factor(t, sopt), core::NotPositiveDefinite) << ms;
  }
  const std::vector<double> b = sin_rhs(1024, 1);
  const core::SolveReport rep = core::toeplitz_solve(t, b);
  EXPECT_EQ(rep.solver_path, "schur+refine");
  EXPECT_EQ(rep.block_size, 1);
  EXPECT_EQ(rep.block_size_reason, "policy");
  core::SolveOptions direct;
  direct.assume_indefinite = true;
  const core::SolveReport want = core::toeplitz_solve(t, b, direct);
  ASSERT_EQ(rep.x.size(), want.x.size());
  EXPECT_EQ(0, std::memcmp(rep.x.data(), want.x.data(), rep.x.size() * sizeof(double)));
  EXPECT_EQ(rep.refinement_steps, want.refinement_steps);
}

// At the chosen m_s the plain route's answers stay within 10 n eps on
// well- and ill-conditioned SPD families.
TEST(BlockSizePolicy, ChosenMsAnswersStayWithinTheBound) {
  for (const la::index_t n : {la::index_t{256}, la::index_t{1024}}) {
    const std::vector<std::pair<std::string, BlockToeplitz>> inputs = {
        {"kms(0.5)", toeplitz::kms(n, 0.5)},
        {"kms(0.99999)", toeplitz::kms(n, 0.99999)},
        {"fgn(0.3)", toeplitz::fgn(n, 0.3)},
        {"fgn(0.99)", toeplitz::fgn(n, 0.99)},
        {"random_spd_block(4)", toeplitz::random_spd_block(4, n / 4, 4, 7)},
    };
    for (const auto& [name, t] : inputs) {
      const std::vector<double> b = sin_rhs(n, 3);
      const core::SolveReport rep = core::toeplitz_solve(t, b);
      EXPECT_EQ(rep.block_size, core::choose_block_size(t)) << name << " n=" << n;
      EXPECT_EQ(rep.block_size_reason, "policy") << name << " n=" << n;
      EXPECT_LE(reference_backward_error(t, b, rep.x), core::backward_error_bound(n))
          << name << " n=" << n;
    }
  }
}

// ---- block Levinson baseline ------------------------------------------

class BlockLevinsonSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BlockLevinsonSweep, MatchesDenseSolve) {
  const auto [m, p] = GetParam();
  BlockToeplitz t =
      toeplitz::random_spd_block(m, p, 2, static_cast<std::uint64_t>(7 * m + p));
  util::Rng rng(static_cast<std::uint64_t>(m + p));
  std::vector<double> b(static_cast<std::size_t>(t.order()));
  for (auto& v : b) v = rng.uniform(-1, 1);
  std::vector<double> x = baseline::block_levinson_solve(t, b);
  std::vector<double> xd = baseline::dense_spd_solve(t.dense().view(), b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x[i], xd[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BlockLevinsonSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(1, 2, 3, 4, 8, 16)));

TEST(BlockLevinson, ScalarCaseAgreesWithLevinson) {
  BlockToeplitz t = toeplitz::kms(24, 0.6);
  std::vector<double> row(24);
  for (la::index_t j = 0; j < 24; ++j) row[static_cast<std::size_t>(j)] = t.entry(0, j);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  std::vector<double> xb = baseline::block_levinson_solve(t, b);
  std::vector<double> xs = baseline::levinson_solve(row, b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(xb[i], xs[i], 1e-9);
}

TEST(BlockLevinson, IndefiniteWithNonsingularMinors) {
  BlockToeplitz t = toeplitz::random_indefinite(12, 11, /*diag=*/1.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  std::vector<double> x = baseline::block_levinson_solve(t, b);
  EXPECT_LT(max_err_vs_ones(x), 1e-7);
}

TEST(BlockLevinson, ThrowsOnSingularMinor) {
  BlockToeplitz t = toeplitz::paper_example_6x6();
  std::vector<double> b(6, 1.0);
  EXPECT_THROW(baseline::block_levinson_solve(t, b), std::runtime_error);
}

TEST(BlockLevinson, RhsSizeMismatchThrows) {
  BlockToeplitz t = toeplitz::kms(8, 0.5);
  EXPECT_THROW(baseline::block_levinson_solve(t, std::vector<double>(7, 1.0)),
               std::invalid_argument);
}

TEST(BlockLevinson, AgreesWithBlockSchurSolve) {
  BlockToeplitz t = toeplitz::random_spd_block(4, 10, 3, 17);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  std::vector<double> xl = baseline::block_levinson_solve(t, b);
  core::SchurFactor f = core::block_schur_factor(t);
  std::vector<double> xs = core::solve_spd(f, b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(xl[i], xs[i], 1e-8);
}

}  // namespace
}  // namespace bst
