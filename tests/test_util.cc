// Tests for util/: RNG determinism and distributions, flop counting,
// table rendering, CLI and BST_* environment parsing, FP trap scopes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/env.h"
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

// A flag held in an int is range-checked, not narrowed: 2^32 + 1 would
// otherwise read as 1.
TEST(Cli, Int32FlagRejectsValuesOutsideInt) {
  const char* argv[] = {"prog", "--np=4294967297", "--reqs=-2147483649", "--n=2147483647"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("np", 0), 4294967297L);  // a long holds it
  EXPECT_EQ(cli.get_int32("n", 0), 2147483647);
  EXPECT_EQ(cli.get_int32("missing", -3), -3);
  EXPECT_THROW((void)cli.get_int32("reqs", 0), std::runtime_error);
  try {
    (void)cli.get_int32("np", 0);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--np"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("4294967297"), std::string::npos) << e.what();
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
  const auto expect_named = [](auto parse, const char* bad) {
    try {
      (void)parse(bad);
      ADD_FAILURE() << "'" << bad << "' was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("BST_"), std::string::npos) << e.what();
    }
  };
  const auto as_long = [](const char* t) { return parse_number<long>("BST_THREADS", t); };
  const auto as_double = [](const char* t) { return parse_number<double>("BST_PCG_TOL", t); };
  for (const char* bad : {"abc", "5x", ""}) {
    expect_named(as_long, bad);
    expect_named(as_double, bad);
  }
  // Values the type cannot represent: strtol saturates, strtod yields
  // nan/inf, and neither may pass as a number.
  for (const char* bad : {"99999999999999999999", "-99999999999999999999"}) {
    expect_named(as_long, bad);
  }
  for (const char* bad : {"nan", "inf", "-inf", "infinity", "1e400", "-1e400"}) {
    expect_named(as_double, bad);
  }
  EXPECT_EQ(parse_number<long>("BST_THREADS", "9223372036854775807"), 9223372036854775807L);
  EXPECT_DOUBLE_EQ(parse_number<double>("BST_PCG_TOL", "1e308"), 1e308);

  // The flags share the parser.
  const char* argv[] = {"prog", "--n=99999999999999999999", "--tol=nan"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_THROW((void)cli.get_int("n", 0), std::runtime_error);
  EXPECT_THROW((void)cli.get_double("tol", 0.0), std::runtime_error);
}

// Sets (or, given nullptr, unsets) one variable for the lifetime of the
// guard, then restores what the process started with.
class ScopedEnv {
 public:
  ScopedEnv(std::string name, const char* value) : name_(std::move(name)) {
    if (const char* old = std::getenv(name_.c_str()); old != nullptr) old_ = old;
    if (value != nullptr) {
      ::setenv(name_.c_str(), value, 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

std::string integer_text(double x) { return std::to_string(static_cast<long long>(x)); }

std::string real_text(double x) {
  std::ostringstream os;
  os << x;
  return os.str();
}

// Reads `v` into a field of the type its declaration calls for and renders
// the result; nullopt when the reader reports it unset.
std::optional<std::string> read_declared(const env::Var& v) {
  switch (v.type) {
    case env::Type::Integer: {
      long x = 0;
      if (!env::read(v.name, x)) return std::nullopt;
      return std::to_string(x);
    }
    case env::Type::Real: {
      double x = 0.0;
      if (!env::read(v.name, x)) return std::nullopt;
      return real_text(x);
    }
    case env::Type::Switch: {
      bool x = false;
      if (!env::read(v.name, x)) return std::nullopt;
      return x ? "1" : "0";
    }
    case env::Type::String:
    case env::Type::Choice:
      break;
  }
  std::string x;
  if (!env::read(v.name, x)) return std::nullopt;
  return x;
}

// Values each declared variable must refuse, and values it must take back
// unchanged, derived from its declared type and range.
struct Cases {
  std::vector<std::string> bad;
  std::vector<std::string> good;
};

Cases cases_for(const env::Var& v) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Cases c;
  switch (v.type) {
    case env::Type::Integer:
      c.bad = {"abc", "5x", "7 ", "1.5", "99999999999999999999", integer_text(v.lo - 1)};
      c.good = {integer_text(v.lo), integer_text(v.lo + 1)};
      if (v.hi != kInf) {
        c.bad.push_back(integer_text(v.hi + 1));
        c.good.push_back(integer_text(v.hi));
      }
      break;
    case env::Type::Real:
      c.bad = {"abc", "2.5x", "nan", "inf", "1e400", real_text(v.lo_open ? v.lo : v.lo - 1)};
      c.good = {real_text(v.lo + 2.5)};
      if (!v.lo_open) c.good.push_back(real_text(v.lo));
      if (v.hi != kInf) {
        c.bad.push_back(real_text(2 * v.hi + 1));
        c.good.push_back(real_text(v.hi));
      }
      break;
    case env::Type::Switch:
      c.bad = {"abc", "2", "-1", "01", "1x", "true", "yes", "false", "no"};
      c.good = {"0", "1"};
      break;
    case env::Type::Choice:
      c.bad = {"abc", "x"};
      for (std::size_t start = 0; start <= v.choices.size();) {
        const std::size_t bar = std::min(v.choices.find('|', start), v.choices.size());
        c.good.emplace_back(v.choices.substr(start, bar - start));
        c.bad.push_back(c.good.back() + "x");
        start = bar + 1;
      }
      break;
    case env::Type::String:
      c.good = {"some/path", "a b"};
      break;
  }
  return c;
}

TEST(Env, EveryDeclaredVariableIsReadStrictly) {
  const std::span<const env::Var> vars = env::declared();
  ASSERT_EQ(vars.size(), 39u);
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const env::Var& v = vars[i];
    const std::string name(v.name);
    SCOPED_TRACE(name);
    EXPECT_TRUE(name.starts_with("BST_"));
    if (i > 0) {
      EXPECT_LT(vars[i - 1].name, v.name);  // sorted, unique
    }
    const ScopedEnv unset(name, nullptr);
    EXPECT_EQ(read_declared(v), std::nullopt);
    {
      const ScopedEnv empty(name, "");  // empty means unset
      EXPECT_EQ(read_declared(v), std::nullopt);
    }
    const Cases c = cases_for(v);
    for (const std::string& bad : c.bad) {
      const ScopedEnv set(name, bad.c_str());
      try {
        (void)read_declared(v);
        ADD_FAILURE() << name << "=" << bad << " was accepted";
      } catch (const std::runtime_error& e) {
        // The message names the variable, its accepted range and the value.
        const std::string what = e.what();
        EXPECT_NE(what.find(name), std::string::npos) << what;
        EXPECT_NE(what.find(env::accepted(v)), std::string::npos) << what;
        EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
      }
    }
    for (const std::string& good : c.good) {
      const ScopedEnv set(name, good.c_str());
      EXPECT_EQ(read_declared(v), good);
    }
  }
}

TEST(Env, AcceptedRangesReadAsTheyAreChecked) {
  const auto accepted = [](std::string_view name) {
    for (const env::Var& v : env::declared()) {
      if (v.name == name) return env::accepted(v);
    }
    return std::string("undeclared");
  };
  EXPECT_EQ(accepted("BST_PROF_HZ"), "an integer in [0, 10000]");
  EXPECT_EQ(accepted("BST_THREADS"), "an integer in [1, 1024]");
  EXPECT_EQ(accepted("BST_SERVICE_QUEUE"), "an integer >= 1");
  EXPECT_EQ(accepted("BST_PCG_TOL"), "a number > 0");
  EXPECT_EQ(accepted("BST_SERVICE_SLOW_MS"), "a number >= 0");
  EXPECT_EQ(accepted("BST_STALL_FATAL"), "0 or 1");
  EXPECT_EQ(accepted("BST_SOLVER"), "one of auto|schur|pcg");
}

TEST(Env, UndeclaredNameIsAnErrorAndEmptyIsUnset) {
  const ScopedEnv unset("BST_THREADS", nullptr);
  long threads = 0;
  {
    const ScopedEnv typo("BST_THREAD", "4");
    try {
      (void)env::read("BST_THREADS", threads);
      ADD_FAILURE() << "BST_THREAD=4 was ignored";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("BST_THREAD:"), std::string::npos) << e.what();
    }
  }
  {
    const ScopedEnv typo("BST_THREAD", "");
    EXPECT_FALSE(env::read("BST_THREADS", threads));
  }
  EXPECT_EQ(threads, 0);
  // A name the program reads without declaring it is a program bug.
  EXPECT_THROW((void)env::read("BST_NOT_DECLARED", threads), std::logic_error);
  EXPECT_THROW((void)env::read("BST_PCG_TOL", threads), std::logic_error);
}

TEST(Env, InEffectListsTheSetDeclaredVariablesByName) {
  std::deque<ScopedEnv> unset;
  for (const env::Var& v : env::declared()) unset.emplace_back(std::string(v.name), nullptr);
  EXPECT_TRUE(env::in_effect().empty());
  const ScopedEnv b("BST_SOLVER", "pcg");
  const ScopedEnv a("BST_PCG_TOL", "1e-9");
  const ScopedEnv empty("BST_PROF", "");
  using Entry = std::pair<std::string, std::string>;
  EXPECT_EQ(env::in_effect(),
            (std::vector<Entry>{{"BST_PCG_TOL", "1e-9"}, {"BST_SOLVER", "pcg"}}));
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
