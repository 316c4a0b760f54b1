// Self-test of the end-to-end benchmark's own machinery (harness.h): the
// span recorder's additivity, the percentile rule, the seeded key draws,
// the correctness oracle, and the traced solve against the entry point.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>

#include "core/solver.h"
#include "harness.h"
#include "la/norms.h"
#include "toeplitz/generators.h"

namespace {

using namespace bst;
using e2e::SpanRecorder;

void busy(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

std::uint64_t self_sum(const SpanRecorder& rec, std::uint64_t op) {
  std::uint64_t total = 0;
  for (const auto& [name, ns] : rec.self_ns(op)) total += ns;
  return total;
}

TEST(SpanRecorder, SelfTimesSumToOpWallTime) {
  SpanRecorder rec;
  for (std::uint64_t op = 0; op < 3; ++op) {
    rec.set_op(op);
    SpanRecorder::Scope root(rec, "op.other");
    busy(std::chrono::microseconds(50));
    {
      SpanRecorder::Scope a(rec, "layer.a");
      busy(std::chrono::microseconds(100));
      {
        SpanRecorder::Scope b(rec, "layer.b");
        busy(std::chrono::microseconds(200));
      }
      SpanRecorder::Scope b2(rec, "layer.b");
      busy(std::chrono::microseconds(30));
    }
    root.close();
    EXPECT_EQ(rec.open_depth(), 0u);
    EXPECT_EQ(self_sum(rec, op), rec.wall_ns(op)) << "op " << op;
    const auto self = rec.self_ns(op);
    EXPECT_EQ(self.size(), 3u);
    EXPECT_GE(self.at("layer.b"), 230000u);  // two spans summed
    EXPECT_GE(self.at("layer.a"), 100000u);
    EXPECT_LT(self.at("layer.a"), 230000u);  // children excluded
  }
}

TEST(SpanRecorder, FoldedSpanOwnsItsWholeDuration) {
  SpanRecorder rec;
  rec.set_op(7);
  SpanRecorder::Scope root(rec, "op.other");
  {
    SpanRecorder::Scope attempt(rec, "schur.steps");
    {
      SpanRecorder::Scope inner(rec, "schur.generator");
      busy(std::chrono::microseconds(100));
    }
    attempt.close_folded("indefinite.spd_attempt");
  }
  root.close();
  const auto self = rec.self_ns(7);
  EXPECT_EQ(self.count("schur.generator"), 0u);
  EXPECT_EQ(self.count("schur.steps"), 0u);
  EXPECT_GE(self.at("indefinite.spd_attempt"), 100000u);
  EXPECT_EQ(self_sum(rec, 7), rec.wall_ns(7));
}

// The traced replica of toeplitz_solve, on every route the workloads take:
// bitwise equal answers and additive self times.
struct Route {
  const char* name;
  toeplitz::BlockToeplitz t;
  core::SolveOptions opt;
  const char* must_have;  // a span this route has to record
};

TEST(TracedSolve, MatchesEntryPointBitwiseOnEveryRoute) {
  std::vector<Route> routes;
  {
    Route spd{"spd", toeplitz::random_spd_block(4, 24, 3, 11), {}, "schur.steps"};
    spd.opt.policy.kind = core::SolverKind::Schur;
    routes.push_back(spd);
  }
  {
    Route pcg{"pcg", toeplitz::ar1_block(2, 256, 5), {}, "pcg.iterate"};
    pcg.opt.policy.pcg_min_n = 256;
    routes.push_back(pcg);
  }
  routes.push_back({"indefinite", toeplitz::singular_minor_family(64, 3), {}, "refine.self"});
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const Route& r = routes[i];
    const std::vector<double> b = e2e::random_vector(42, r.t.order());
    const core::SolveReport rep = core::toeplitz_solve(r.t, b, r.opt);
    SpanRecorder rec;
    rec.set_op(i);
    e2e::OpCounts c;
    std::vector<double> x;
    {
      SpanRecorder::Scope root(rec, "op.other");
      x = e2e::traced_solve(rec, r.t, b, r.opt, c);
    }
    EXPECT_TRUE(e2e::bitwise_equal(x, rep.x)) << r.name;
    EXPECT_EQ(self_sum(rec, i), rec.wall_ns(i)) << r.name;
    EXPECT_EQ(rec.self_ns(i).count(r.must_have), 1u) << r.name;
  }
}

TEST(Percentile, TenSamplesBeyondRule) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  ASSERT_TRUE(e2e::percentile(v, 0.90).has_value());
  EXPECT_EQ(*e2e::percentile(v, 0.90), 90.0);  // nearest rank, 10 beyond
  v.pop_back();
  EXPECT_FALSE(e2e::percentile(v, 0.90).has_value());  // 99 samples: 9 beyond

  std::vector<double> w;
  for (int i = 0; i < 1000; ++i) w.push_back(999 - i);
  ASSERT_TRUE(e2e::percentile(w, 0.99).has_value());
  EXPECT_EQ(*e2e::percentile(w, 0.99), 989.0);
  w.pop_back();
  EXPECT_FALSE(e2e::percentile(w, 0.99).has_value());
  EXPECT_TRUE(e2e::percentile(w, 0.99, 0).has_value());  // rule off

  EXPECT_EQ(e2e::median({3, 1, 2}), 2.0);
  EXPECT_EQ(e2e::median({4, 1, 2, 3}), 2.5);
}

TEST(Percentile, WindowedRateIgnoresABurst) {
  // 100 events per second over 8 s, except a stalled second with none.
  std::vector<std::uint64_t> stamps;
  for (std::uint64_t ms = 0; ms < 8000; ms += 10) {
    if (ms < 3000 || ms >= 4000) stamps.push_back(ms * 1000000);
  }
  EXPECT_DOUBLE_EQ(e2e::median_window_rate(stamps, 0, 8000000000ull, 8), 100.0);
  EXPECT_EQ(e2e::median_window_rate(stamps, 5, 5, 8), 0.0);
}

std::vector<int> zipf_keys(std::uint64_t seed) {
  const e2e::Zipf zipf(16, 1.0);
  e2e::Rng rng(seed);
  std::vector<int> keys(5000);
  for (int& k : keys) k = zipf.draw(rng);
  return keys;
}

TEST(Schedules, SameSeedSameScheduleOtherSeedOther) {
  const auto z1 = zipf_keys(1);
  const auto z2 = zipf_keys(1);
  const auto z3 = zipf_keys(2);
  EXPECT_EQ(z1, z2);
  EXPECT_NE(z1, z3);
  std::vector<int> counts(16, 0);
  for (int k : z1) {
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 16);
    ++counts[static_cast<std::size_t>(k)];
  }
  EXPECT_GT(counts[0], counts[15] * 4);  // P(0)/P(15) = 16 under Zipf(1)

  EXPECT_EQ(e2e::random_vector(9, 32), e2e::random_vector(9, 32));
  EXPECT_NE(e2e::random_vector(9, 32), e2e::random_vector(10, 32));
  EXPECT_NE(e2e::derive_seed(1, 1), e2e::derive_seed(1, 2));
}

TEST(Oracle, NormInfMatchesDense) {
  const toeplitz::BlockToeplitz t = toeplitz::random_spd_block(3, 7, 2, 4);
  EXPECT_NEAR(e2e::norm_inf(t), la::norm_inf(t.dense().view()), 1e-12 * e2e::norm_inf(t));
  const toeplitz::BlockToeplitz s = toeplitz::singular_minor_family(9, 1);
  EXPECT_NEAR(e2e::norm_inf(s), la::norm_inf(s.dense().view()), 1e-12 * e2e::norm_inf(s));
}

TEST(Oracle, CorruptedSolutionCountsAsFailure) {
  const toeplitz::BlockToeplitz t = toeplitz::random_spd_block(4, 32, 3, 8);
  const std::vector<double> b = e2e::random_vector(3, t.order());
  const std::vector<double> x = core::toeplitz_solve(t, b).x;
  const e2e::Oracle oracle(t);
  e2e::Tally tally;
  EXPECT_TRUE(tally.check(oracle.backward_error(b, x), oracle.bound()));

  std::vector<double> bad = x;
  bad[5] += 1e-6 * std::fabs(bad[5]) + 1e-9;
  EXPECT_FALSE(tally.check(oracle.backward_error(b, bad), oracle.bound()));
  bad[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(tally.check(oracle.backward_error(b, bad), oracle.bound()));
  EXPECT_FALSE(tally.check(oracle.backward_error(b, std::vector<double>(3)), oracle.bound()));
  EXPECT_EQ(tally.attempted, 4u);
  EXPECT_EQ(tally.failed, 3u);
  EXPECT_TRUE(std::isinf(tally.worst_backward_error));
  tally.fail();  // a refused request
  EXPECT_EQ(tally.failed, 4u);
  EXPECT_FALSE(e2e::bitwise_equal(x, bad));
}

}  // namespace
