// Tests for util/: RNG determinism and distributions, flop counting,
// table rendering, CLI parsing, FP trap scopes.
#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/cli.h"
#include "util/flops.h"
#include "util/fpenv.h"
#include "util/rng.h"
#include "util/table.h"

namespace bst::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng r(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, BelowStaysBelow) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r(0);
  EXPECT_NE(r.next(), 0u);
}

TEST(Flops, ChargeAndScope) {
  FlopCounter::reset();
  FlopCounter::charge(100);
  EXPECT_EQ(FlopCounter::now(), 100u);
  {
    FlopScope scope;
    FlopCounter::charge(42);
    EXPECT_EQ(scope.elapsed(), 42u);
  }
  std::uint64_t out = 0;
  {
    FlopScope scope(&out);
    FlopCounter::charge(7);
  }
  EXPECT_EQ(out, 7u);
}

TEST(Flops, WallClockAdvances) {
  const double t0 = wall_seconds();
  EXPECT_GE(wall_seconds(), t0);
}

TEST(Table, RendersHeaderAndRows) {
  Table t("demo");
  t.header({"a", "bb", "ccc"});
  t.row({std::string("x"), 42LL, 3.25});
  t.row({std::string("yy"), -1LL, 0.5});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("3.25"), std::string::npos);
  EXPECT_NE(s.find("yy"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Cli, ParsesKeysAndDefaults) {
  const char* argv[] = {"prog", "--n=128", "--flag", "--rate=2.5", "positional"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_EQ(cli.get("flag", ""), "1");
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(cli.get_int("missing", -7), -7);
  EXPECT_FALSE(cli.has("positional"));
}

TEST(Cli, RejectsTrailingGarbageOnIntegers) {
  const char* argv[] = {"prog", "--np=4x", "--panel=8q", "--n=16"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_THROW((void)cli.get_int("np", 0), std::runtime_error);
  EXPECT_THROW((void)cli.get_int("panel", 0), std::runtime_error);
  EXPECT_EQ(cli.get_int("n", 0), 16);  // clean values still parse
  try {
    (void)cli.get_int("np", 0);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    // The message names the flag and echoes the bad value.
    EXPECT_NE(std::string(e.what()).find("--np"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("4x"), std::string::npos);
  }
}

TEST(Cli, RejectsTrailingGarbageOnDoubles) {
  const char* argv[] = {"prog", "--rate=2.5mb", "--tol=1e-9", "--empty="};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_THROW((void)cli.get_double("rate", 0.0), std::runtime_error);
  EXPECT_DOUBLE_EQ(cli.get_double("tol", 0.0), 1e-9);  // exponents are fine
  EXPECT_THROW((void)cli.get_double("empty", 0.0), std::runtime_error);
}

TEST(ParseNumber, NamesTheSourceAndRejectsPartialValues) {
  EXPECT_EQ(parse_number<long>("BST_THREADS", "12"), 12);
  EXPECT_DOUBLE_EQ(parse_number<double>("BST_PCG_TOL", "1e-9"), 1e-9);
  for (const char* bad : {"abc", "5x", ""}) {
    try {
      (void)parse_number<long>("BST_THREADS", bad);
      ADD_FAILURE() << "'" << bad << "' was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("BST_THREADS"), std::string::npos) << e.what();
    }
    EXPECT_THROW((void)parse_number<double>("BST_PCG_TOL", bad), std::runtime_error) << bad;
  }
}

TEST(Cli, RejectsNonNumericValues) {
  const char* argv[] = {"prog", "--n=abc", "--rate=fast"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_THROW((void)cli.get_int("n", 0), std::runtime_error);
  EXPECT_THROW((void)cli.get_double("rate", 0.0), std::runtime_error);
}

// FpTrapScope save/restore when no scope is active: the baseline mask is
// whatever the harness runs with, and a scope must hand it back exactly.
TEST(FpTrap, RestoresBaselineMask) {
  if (!FpTrapScope::supported()) GTEST_SKIP() << "no feenableexcept on this libc";
  const int baseline = FpTrapScope::enabled_traps();
  {
    FpTrapScope scope(FE_DIVBYZERO);
    EXPECT_EQ(FpTrapScope::enabled_traps() & FE_DIVBYZERO, FE_DIVBYZERO);
  }
  EXPECT_EQ(FpTrapScope::enabled_traps(), baseline);
}

// Nested scopes: the inner scope adds its traps on top of the outer one's
// and each destructor peels back exactly one layer.
TEST(FpTrap, ScopesNestAndUnwindExactly) {
  if (!FpTrapScope::supported()) GTEST_SKIP() << "no feenableexcept on this libc";
  const int baseline = FpTrapScope::enabled_traps();
  {
    FpTrapScope outer(FE_DIVBYZERO);
    const int outer_mask = FpTrapScope::enabled_traps();
    EXPECT_EQ(outer_mask & FE_DIVBYZERO, FE_DIVBYZERO);
    {
      FpTrapScope inner(FE_INVALID);
      const int inner_mask = FpTrapScope::enabled_traps();
      EXPECT_EQ(inner_mask & FE_DIVBYZERO, FE_DIVBYZERO);  // outer survives
      EXPECT_EQ(inner_mask & FE_INVALID, FE_INVALID);      // inner added
    }
    EXPECT_EQ(FpTrapScope::enabled_traps(), outer_mask);  // inner peeled off
  }
  EXPECT_EQ(FpTrapScope::enabled_traps(), baseline);
}

// Re-requesting a trap the outer scope already armed must not disarm it
// when the inner scope ends (the restore is to the saved mask, not a
// subtraction).
TEST(FpTrap, OverlappingRequestsRestoreToSavedMask) {
  if (!FpTrapScope::supported()) GTEST_SKIP() << "no feenableexcept on this libc";
  const int baseline = FpTrapScope::enabled_traps();
  {
    FpTrapScope outer(FE_DIVBYZERO | FE_OVERFLOW);
    {
      FpTrapScope inner(FE_OVERFLOW);  // overlaps the outer request
      EXPECT_EQ(FpTrapScope::enabled_traps() & FE_OVERFLOW, FE_OVERFLOW);
    }
    EXPECT_EQ(FpTrapScope::enabled_traps() & (FE_DIVBYZERO | FE_OVERFLOW),
              FE_DIVBYZERO | FE_OVERFLOW);
  }
  EXPECT_EQ(FpTrapScope::enabled_traps(), baseline);
}

}  // namespace
}  // namespace bst::util
