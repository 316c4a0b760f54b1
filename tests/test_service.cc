// Tests for the batched solver service: factor cache (keying, LRU-by-bytes
// eviction, thundering-herd coalescing), sync/async solve paths, bitwise
// determinism of concurrent submission, the panel-blocked multi-RHS solve,
// env-knob parsing, and the util::Metrics named-counter facility the
// service reports through.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/refine.h"
#include "core/schur.h"
#include "core/solve.h"
#include "core/solver.h"
#include "service/cache.h"
#include "service/service.h"
#include "toeplitz/generators.h"
#include "toeplitz/matvec.h"
#include "util/fault.h"
#include "util/metrics.h"

namespace bst {
namespace {

using service::FactorCache;
using service::Service;
using service::ServiceOptions;
using service::SolveResult;
using toeplitz::BlockToeplitz;

double max_err_vs_ones(const std::vector<double>& x) {
  double e = 0.0;
  for (double v : x) e = std::max(e, std::fabs(v - 1.0));
  return e;
}

// ---------------------------------------------------------------- cache key

TEST(ProblemKey, SameProblemSameKey) {
  BlockToeplitz a = toeplitz::kms(24, 0.5);
  BlockToeplitz b = toeplitz::kms(24, 0.5);
  core::SchurOptions opt;
  EXPECT_EQ(service::problem_key(a, opt), service::problem_key(b, opt));
}

TEST(ProblemKey, MatrixContentChangesKey) {
  core::SchurOptions opt;
  EXPECT_NE(service::problem_key(toeplitz::kms(24, 0.5), opt),
            service::problem_key(toeplitz::kms(24, 0.6), opt));
  EXPECT_NE(service::problem_key(toeplitz::kms(24, 0.5), opt),
            service::problem_key(toeplitz::kms(32, 0.5), opt));
}

TEST(ProblemKey, NumericalOptionsChangeKey) {
  BlockToeplitz t = toeplitz::kms(24, 0.5);
  core::SchurOptions a;
  core::SchurOptions b;
  b.block_size = a.block_size + 1;
  EXPECT_NE(service::problem_key(t, a), service::problem_key(t, b));
  core::SchurOptions c;
  c.breakdown_tol = 1e-3;
  EXPECT_NE(service::problem_key(t, a), service::problem_key(t, c));
}

// A key names the factor it holds: block_size = 0 hashes the m_s the
// service factors at, so it shares the key of that m_s set explicitly.
TEST(ProblemKey, HashesTheResolvedBlockSize) {
  const BlockToeplitz t = toeplitz::kms(64, 0.5);
  core::SchurOptions chosen;
  chosen.block_size = core::choose_block_size(t);
  ASSERT_EQ(chosen.block_size, 8);
  EXPECT_EQ(service::problem_key(t, core::SchurOptions{}), service::problem_key(t, chosen));
  core::SchurOptions at_m;
  at_m.block_size = 1;
  EXPECT_NE(service::problem_key(t, core::SchurOptions{}), service::problem_key(t, at_m));
}

// The key folds whole 64-bit words: two sign flips must not cancel out.
TEST(ProblemKey, SignFlipsChangeKey) {
  std::vector<double> row = {1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125};
  const std::string key = service::problem_key(BlockToeplitz::scalar(row), {});
  row[1] = -row[1];
  row[2] = -row[2];
  EXPECT_NE(service::problem_key(BlockToeplitz::scalar(row), {}), key);
}

// ------------------------------------------------------------- FactorCache

// The reference factor at the m_s the service factors at.
core::SchurFactor factor_of(const BlockToeplitz& t) {
  core::SchurOptions opt;
  opt.block_size = core::choose_block_size(t);
  return core::block_schur_factor(t, opt);
}

TEST(FactorCache, HitOnSecondLookup) {
  FactorCache cache(64ull << 20);
  BlockToeplitz t = toeplitz::kms(16, 0.4);
  const std::string key = service::problem_key(t, core::SchurOptions{});
  bool hit = true;
  auto f1 = cache.get_or_factor(key, [&] { return factor_of(t); }, &hit);
  EXPECT_FALSE(hit);
  auto f2 = cache.get_or_factor(key, [&] { return factor_of(t); }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(f1.get(), f2.get());  // same cached object, not a refactor
  const service::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(FactorCache, DifferentKeysMiss) {
  FactorCache cache(64ull << 20);
  BlockToeplitz a = toeplitz::kms(16, 0.4);
  BlockToeplitz b = toeplitz::kms(16, 0.7);
  core::SchurOptions opt;
  cache.get_or_factor(service::problem_key(a, opt), [&] { return factor_of(a); });
  cache.get_or_factor(service::problem_key(b, opt), [&] { return factor_of(b); });
  const service::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(FactorCache, LruEvictionUnderByteBudget) {
  // An n x n factor is n^2 doubles; budget two 16x16 factors, insert three.
  const std::size_t one = 16 * 16 * sizeof(double) + sizeof(core::SchurFactor);
  FactorCache cache(2 * one + one / 2);
  core::SchurOptions opt;
  BlockToeplitz a = toeplitz::kms(16, 0.3);
  BlockToeplitz b = toeplitz::kms(16, 0.5);
  BlockToeplitz c = toeplitz::kms(16, 0.7);
  const std::string ka = service::problem_key(a, opt);
  const std::string kb = service::problem_key(b, opt);
  const std::string kc = service::problem_key(c, opt);
  cache.get_or_factor(ka, [&] { return factor_of(a); });
  cache.get_or_factor(kb, [&] { return factor_of(b); });
  // Touch `a` so `b` is the LRU victim when `c` lands.
  cache.get_or_factor(ka, [&] { return factor_of(a); });
  cache.get_or_factor(kc, [&] { return factor_of(c); });
  EXPECT_TRUE(cache.contains(ka));
  EXPECT_FALSE(cache.contains(kb));
  EXPECT_TRUE(cache.contains(kc));
  const service::CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.resident_bytes, cache.max_bytes());
}

TEST(FactorCache, OversizedEntryStillCaches) {
  // A single factor above the budget caches anyway (and evicts the rest).
  FactorCache cache(1);
  BlockToeplitz t = toeplitz::kms(12, 0.4);
  const std::string key = service::problem_key(t, core::SchurOptions{});
  cache.get_or_factor(key, [&] { return factor_of(t); });
  EXPECT_TRUE(cache.contains(key));
  bool hit = false;
  cache.get_or_factor(key, [&] { return factor_of(t); }, &hit);
  EXPECT_TRUE(hit);
}

TEST(FactorCache, ConcurrentMissesFactorOnce) {
  FactorCache cache(64ull << 20);
  BlockToeplitz t = toeplitz::kms(32, 0.5);
  const std::string key = service::problem_key(t, core::SchurOptions{});
  std::atomic<int> factories{0};
  auto factory = [&] {
    ++factories;
    return factor_of(t);
  };
  std::vector<std::thread> threads;
  std::vector<service::FactorPtr> got(8);
  threads.reserve(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] { got[i] = cache.get_or_factor(key, factory); });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(factories.load(), 1);
  for (const auto& f : got) EXPECT_EQ(f.get(), got.front().get());
}

TEST(FactorCache, ThrowingFactoryPropagatesAndLeavesNoEntry) {
  FactorCache cache(64ull << 20);
  BlockToeplitz bad = toeplitz::random_indefinite(12, 3, /*diag=*/1.2);
  const std::string key = service::problem_key(bad, core::SchurOptions{});
  EXPECT_THROW(cache.get_or_factor(key, [&] { return factor_of(bad); }),
               core::NotPositiveDefinite);
  EXPECT_FALSE(cache.contains(key));
  EXPECT_EQ(cache.stats().entries, 0u);
}

// --------------------------------------------------------- panel-block solve

// The panel width is only the pool grain: every width gives
// solve_rtdr_multi's bits (n = 160 puts 32- and 96-row gemm updates in the
// blocked trsm).
TEST(SolvePanels, MatchesMultiForAnyPanelWidth) {
  BlockToeplitz t = toeplitz::kms(160, 0.5);
  core::SchurFactor f = factor_of(t);
  const la::index_t n = t.order(), k = 11;
  la::Mat b(n, k);
  for (la::index_t j = 0; j < k; ++j) {
    for (la::index_t i = 0; i < n; ++i) b.view().col(j)[i] = std::sin(0.1 * (i + 3 * j) + 1.0);
  }
  la::Mat ref = b;
  core::solve_rtdr_multi(f.r.view(), nullptr, ref.view());
  for (la::index_t panel : {1, 3, 4, 11, 64}) {
    for (bool parallel : {false, true}) {
      la::Mat x = b;
      core::solve_rtdr_panels(f.r.view(), nullptr, x.view(), panel, parallel);
      EXPECT_EQ(0, std::memcmp(x.data(), ref.data(),
                               static_cast<std::size_t>(n * k) * sizeof(double)))
          << "panel=" << panel << " parallel=" << parallel;
    }
  }
}

TEST(SolvePanels, ParallelBitwiseMatchesSerialAtFixedPanel) {
  BlockToeplitz t = toeplitz::kms(96, 0.6);
  core::SchurFactor f = factor_of(t);
  const la::index_t n = t.order(), k = 40, panel = 8;
  la::Mat b(n, k);
  for (la::index_t i = 0; i < n * k; ++i) b.data()[i] = std::cos(0.01 * i);
  la::Mat serial = b, parallel = b;
  core::solve_rtdr_panels(f.r.view(), nullptr, serial.view(), panel, false);
  core::solve_rtdr_panels(f.r.view(), nullptr, parallel.view(), panel, true);
  EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                           static_cast<std::size_t>(n * k) * sizeof(double)));
}

// ------------------------------------------------------------------ Service

ServiceOptions small_opts() {
  ServiceOptions o;
  o.cache_bytes = 64ull << 20;
  return o;
}

TEST(Service, SolveHitsCacheOnRepeat) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(32, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  SolveResult r1 = svc.solve(t, b);
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_LT(max_err_vs_ones(r1.x), 1e-10);
  SolveResult r2 = svc.solve(t, b);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r1.x, r2.x);  // bitwise: same factor, same column
  const service::ServiceStats s = svc.stats();
  EXPECT_EQ(s.cache.hits, 1u);
  EXPECT_EQ(s.cache.misses, 1u);
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(Service, DifferentProblemsMiss) {
  Service svc(small_opts());
  BlockToeplitz a = toeplitz::kms(24, 0.4);
  BlockToeplitz c = toeplitz::kms(24, 0.8);
  svc.solve(a, toeplitz::rhs_for_ones(a));
  svc.solve(c, toeplitz::rhs_for_ones(c));
  EXPECT_EQ(svc.stats().cache.misses, 2u);
  EXPECT_EQ(svc.stats().cache.hits, 0u);
}

// No padding: a batch of k columns gives each column the bits of solve(),
// and solve() gives the bits of the library's own one-column solve, at every
// k from 1 to 64 (n = 500 runs eight 64-row trsm blocks).
TEST(Service, SolveManyMatchesSingleSolvesBitwise) {
  for (const BlockToeplitz& t : {toeplitz::kms(40, 0.5), toeplitz::random_spd_block(4, 25, 4, 11),
                                 toeplitz::random_spd_block(4, 125, 4, 11)}) {
    const la::index_t n = t.order(), kmax = 64;
    la::Mat b(n, kmax);
    for (la::index_t i = 0; i < n * kmax; ++i) b.data()[i] = std::sin(0.013 * i + 0.2);
    Service svc(small_opts());
    const core::SchurFactor f = factor_of(t);
    const auto bytes = static_cast<std::size_t>(n) * sizeof(double);
    std::vector<std::vector<double>> alone(static_cast<std::size_t>(kmax));
    for (la::index_t j = 0; j < kmax; ++j) {
      const std::vector<double> bj(b.view().col(j), b.view().col(j) + n);
      alone[static_cast<std::size_t>(j)] = svc.solve(t, bj).x;
      la::Mat lib(n, 1);
      la::copy(b.block(0, j, n, 1), lib.view());
      core::solve_rtdr_multi(f.r.view(), nullptr, lib.view());
      ASSERT_EQ(0, std::memcmp(alone[static_cast<std::size_t>(j)].data(), lib.data(), bytes))
          << "n=" << n << " solve() column " << j << " differs from solve_rtdr_multi";
    }
    for (la::index_t k = 1; k <= kmax; ++k) {
      const la::Mat x = svc.solve_many(t, b.block(0, 0, n, k));
      for (la::index_t j = 0; j < k; ++j) {
        ASSERT_EQ(0, std::memcmp(x.view().col(j), alone[static_cast<std::size_t>(j)].data(),
                                 bytes))
            << "n=" << n << " k=" << k << " column " << j;
      }
    }
  }
}

TEST(Service, ConcurrentSubmitBitwiseIdenticalToSerial) {
  BlockToeplitz t = toeplitz::kms(64, 0.5);
  const la::index_t n = t.order();
  const int kReqs = 48;
  std::vector<std::vector<double>> rhs(kReqs);
  for (int r = 0; r < kReqs; ++r) {
    rhs[r].resize(static_cast<std::size_t>(n));
    for (la::index_t i = 0; i < n; ++i) {
      rhs[r][static_cast<std::size_t>(i)] = std::sin(0.02 * i + 0.3 * r);
    }
  }
  // Serial reference: one synchronous service, request at a time.
  std::vector<std::vector<double>> want(kReqs);
  {
    Service ref(small_opts());
    for (int r = 0; r < kReqs; ++r) want[r] = ref.solve(t, rhs[r]).x;
  }
  // Concurrent: many submitter threads racing into the batching dispatcher.
  Service svc(small_opts());
  std::vector<std::future<SolveResult>> futs(kReqs);
  {
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int w = 0; w < 4; ++w) {
      threads.emplace_back([&, w] {
        for (int r = w; r < kReqs; r += 4) futs[r] = svc.submit(t, rhs[r]);
      });
    }
    for (auto& th : threads) th.join();
  }
  std::uint64_t batched = 0;
  for (int r = 0; r < kReqs; ++r) {
    SolveResult res = futs[static_cast<std::size_t>(r)].get();
    ASSERT_EQ(res.x.size(), want[r].size());
    EXPECT_EQ(0, std::memcmp(res.x.data(), want[r].data(),
                             res.x.size() * sizeof(double)))
        << "request " << r;
    batched = std::max<std::uint64_t>(batched, static_cast<std::uint64_t>(res.batch_cols));
  }
  svc.drain();
  const service::ServiceStats s = svc.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kReqs));
  EXPECT_GE(s.batches, 1u);
  EXPECT_LE(s.cache.misses, 1u + 0u);  // one factorization serves everything
}

TEST(Service, ReportsTheBlockSizeInEffectAndWhy) {
  const BlockToeplitz t = toeplitz::kms(64, 0.5);
  Service chosen(small_opts());
  const SolveResult r = chosen.solve(t, toeplitz::rhs_for_ones(t));
  EXPECT_EQ(r.block_size, 8);
  EXPECT_EQ(r.block_size_reason, "policy");
  ServiceOptions at_m = small_opts();
  at_m.schur.block_size = 1;
  Service caller(at_m);
  const SolveResult c = caller.solve(t, toeplitz::rhs_for_ones(t));
  EXPECT_EQ(c.block_size, 1);
  EXPECT_EQ(c.block_size_reason, "caller");
}

// prolate(1024, 0.49) breaks down at the chosen m_s = 8 and factors at
// m = 1: the service retries at m, caches that factor and says so on a hit.
TEST(Service, BreakdownAtChosenMsRetriesAtM) {
  const BlockToeplitz t = toeplitz::prolate(1024, 0.49);
  std::vector<double> b(1024);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(0.7 * static_cast<double>(i));
  Service svc(small_opts());
  const SolveResult miss = svc.solve(t, b);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(miss.block_size, 1);
  EXPECT_EQ(miss.block_size_reason, "retry_at_m");
  const SolveResult hit = svc.solve(t, b);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.block_size_reason, "retry_at_m");
  EXPECT_EQ(hit.x, miss.x);
  const toeplitz::MatVec op(t, toeplitz::MatVecMode::Direct);
  std::vector<double> r;
  op.residual(b, miss.x, r);
  EXPECT_LE(op.backward_error(b, miss.x, r), core::backward_error_bound(1024));
}

TEST(Service, SubmitPropagatesFactorizationFailure) {
  Service svc(small_opts());
  BlockToeplitz bad = toeplitz::random_indefinite(12, 3, /*diag=*/1.2);
  std::vector<double> b(static_cast<std::size_t>(bad.order()), 1.0);
  std::future<SolveResult> fut = svc.submit(bad, b);
  EXPECT_THROW(fut.get(), core::NotPositiveDefinite);
  EXPECT_THROW(svc.solve(bad, b), core::NotPositiveDefinite);
}

TEST(Service, RhsSizeMismatchThrows) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(16, 0.5);
  std::vector<double> shorter(7, 1.0);
  EXPECT_THROW(svc.solve(t, shorter), std::invalid_argument);
  EXPECT_THROW(svc.submit(t, shorter), std::invalid_argument);
}

TEST(Service, NoCacheModeAlwaysMisses) {
  ServiceOptions o = small_opts();
  o.cache_enabled = false;
  Service svc(o);
  BlockToeplitz t = toeplitz::kms(24, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  EXPECT_FALSE(svc.solve(t, b).cache_hit);
  EXPECT_FALSE(svc.solve(t, b).cache_hit);
  EXPECT_EQ(svc.stats().cache.hits, 0u);
  EXPECT_EQ(svc.stats().cache.misses, 0u);  // cache never consulted
}

TEST(Service, TrySubmitAdmitsWhenQueueHasRoom) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(24, 0.5);
  std::future<SolveResult> fut;
  ASSERT_TRUE(svc.try_submit(t, toeplitz::rhs_for_ones(t), fut));
  EXPECT_LT(max_err_vs_ones(fut.get().x), 1e-10);
  EXPECT_EQ(svc.stats().rejected, 0u);
}

TEST(Service, StatsJsonHasAllSections) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(16, 0.5);
  svc.solve(t, toeplitz::rhs_for_ones(t));
  const std::string json = svc.stats_json().dump_compact();
  for (const char* key : {"\"cache\"", "\"queue\"", "\"batch\"", "\"hits\"", "\"misses\"",
                          "\"evictions\"", "\"hit_rate\"", "\"capacity\"", "\"rejected\"",
                          "\"rhs_panel\"", "\"refine\"", "\"sweeps\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing from " << json;
  }
}

// ---------------------------------------------------------------- refinement

TEST(Service, RefinementImprovesResidualAndReportsPath) {
  BlockToeplitz t = toeplitz::kms(96, 0.9);
  const std::vector<double> b = toeplitz::rhs_for_ones(t);
  ServiceOptions off = small_opts();
  Service plain(off);
  const SolveResult r0 = plain.solve(t, b);
  EXPECT_EQ(r0.solver_path, "schur");
  EXPECT_EQ(r0.refine_steps, 0);
  EXPECT_EQ(plain.stats().refine_sweeps, 0u);

  ServiceOptions on = small_opts();
  on.refine_steps = 2;
  Service refined(on);
  const SolveResult r1 = refined.solve(t, b);
  EXPECT_EQ(r1.solver_path, "schur+refine");
  EXPECT_EQ(r1.refine_steps, 2);
  EXPECT_EQ(refined.stats().refine_sweeps, 2u);
  // Refinement must not make the answer worse, and on this conditioning it
  // should land at (or below) the unrefined error.
  EXPECT_LE(max_err_vs_ones(r1.x), max_err_vs_ones(r0.x) + 1e-14);
  EXPECT_LT(max_err_vs_ones(r1.x), 1e-10);
}

TEST(Service, RefinedAsyncMatchesRefinedSyncBitwise) {
  ServiceOptions opt = small_opts();
  opt.refine_steps = 1;
  BlockToeplitz t = toeplitz::kms(32, 0.5);
  const std::vector<double> b = toeplitz::rhs_for_ones(t);
  Service sync_svc(opt);
  const std::vector<double> want = sync_svc.solve(t, b).x;
  Service async_svc(opt);
  std::future<SolveResult> fut = async_svc.submit(t, b);
  const SolveResult res = fut.get();
  EXPECT_EQ(res.solver_path, "schur+refine");
  ASSERT_EQ(res.x.size(), want.size());
  EXPECT_EQ(std::memcmp(res.x.data(), want.data(), want.size() * sizeof(double)), 0);
}

// Requests of one key queue behind a dispatcher slowed by an injected fault
// and share one copy of their matrix; the entry goes once they are served.
TEST(Service, QueuedRequestsShareOneMatrixPerKey) {
  const BlockToeplitz t = toeplitz::random_spd_block(4, 32, 4, 5);
  const la::index_t n = t.order();
  const int kReqs = 64;
  std::vector<std::vector<double>> rhs(kReqs);
  for (int r = 0; r < kReqs; ++r) {
    rhs[r].resize(static_cast<std::size_t>(n));
    for (la::index_t i = 0; i < n; ++i) {
      rhs[r][static_cast<std::size_t>(i)] = std::cos(0.03 * i + 0.7 * r);
    }
  }
  std::vector<std::vector<double>> want(kReqs);
  {
    Service ref(small_opts());
    for (int r = 0; r < kReqs; ++r) want[r] = ref.solve(t, rhs[r]).x;
  }
  ::setenv("BST_FAULT", "dispatch:slow", 1);
  ::setenv("BST_FAULT_SLOW_MS", "250", 1);
  util::Fault::reload();
  {
    ServiceOptions o = small_opts();
    o.slow_ms = 0.0;  // the injected delay is not news
    Service svc(o);
    EXPECT_EQ(svc.stats().queued_matrices, 0u);
    std::vector<std::future<SolveResult>> futs;
    for (int r = 0; r < kReqs; ++r) futs.push_back(svc.submit(t, rhs[r]));
    // Every dispatch sleeps 250 ms first, so requests are still queued or
    // being dispatched here.
    EXPECT_EQ(svc.stats().queued_matrices, 1u);
    EXPECT_NE(svc.stats_json().dump_compact().find("\"queued_matrices\":1"), std::string::npos);
    for (int r = 0; r < kReqs; ++r) {
      const SolveResult res = futs[static_cast<std::size_t>(r)].get();
      ASSERT_EQ(res.x.size(), want[r].size());
      EXPECT_EQ(0, std::memcmp(res.x.data(), want[r].data(), res.x.size() * sizeof(double)))
          << "request " << r;
    }
    svc.drain();
    EXPECT_EQ(svc.stats().queued_matrices, 0u);
  }
  ::unsetenv("BST_FAULT");
  ::unsetenv("BST_FAULT_SLOW_MS");
  util::Fault::reload();
}

// ------------------------------------------------------- option validation
// The constructor rejects what from_env rejects, naming the field, and
// starts no dispatcher.

void expect_rejected_option(const ServiceOptions& o, const char* field) {
  try {
    Service svc(o);
    ADD_FAILURE() << field << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(ServiceOptions, RejectsZeroRhsPanel) {
  ServiceOptions o = small_opts();
  o.rhs_panel = 0;
  expect_rejected_option(o, "rhs_panel");
}

TEST(ServiceOptions, RejectsZeroMaxBatch) {
  ServiceOptions o = small_opts();
  o.max_batch = 0;
  expect_rejected_option(o, "max_batch");
}

TEST(ServiceOptions, RejectsZeroQueueCapacity) {
  ServiceOptions o = small_opts();
  o.queue_capacity = 0;
  expect_rejected_option(o, "queue_capacity");
}

TEST(ServiceOptions, RejectsNegativeRefineSteps) {
  ServiceOptions o = small_opts();
  o.refine_steps = -1;
  expect_rejected_option(o, "refine_steps");
}

// ---------------------------------------------------------------- env knobs

TEST(ServiceOptions, FromEnvOverridesAndClamps) {
  setenv("BST_SERVICE_CACHE_BYTES", "1048576", 1);
  setenv("BST_SERVICE_QUEUE", "7", 1);
  setenv("BST_SERVICE_BATCH", "3", 1);
  setenv("BST_SERVICE_PANEL", "1", 1);
  setenv("BST_SERVICE_NOCACHE", "1", 1);
  setenv("BST_SERVICE_REFINE", "2", 1);
  ServiceOptions o = ServiceOptions::from_env();
  EXPECT_EQ(o.cache_bytes, 1048576u);
  EXPECT_EQ(o.queue_capacity, 7u);
  EXPECT_EQ(o.max_batch, 3);
  EXPECT_EQ(o.rhs_panel, 1);
  EXPECT_FALSE(o.cache_enabled);
  EXPECT_EQ(o.refine_steps, 2);
  setenv("BST_SERVICE_NOCACHE", "0", 1);
  EXPECT_TRUE(ServiceOptions::from_env().cache_enabled);
  // Nothing is clamped: a panel of 0, a queue of -1 and a switch spelled
  // "false" throw naming the variable.
  const auto expect_rejected = [](const char* var, const char* bad) {
    const std::string old = std::getenv(var);
    setenv(var, bad, 1);
    try {
      (void)ServiceOptions::from_env();
      ADD_FAILURE() << var << "=" << bad << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos) << e.what();
    }
    setenv(var, old.c_str(), 1);
  };
  expect_rejected("BST_SERVICE_PANEL", "0");
  expect_rejected("BST_SERVICE_PANEL", "8q");
  expect_rejected("BST_SERVICE_QUEUE", "-1");
  expect_rejected("BST_SERVICE_BATCH", "0");
  expect_rejected("BST_SERVICE_NOCACHE", "false");
  expect_rejected("BST_SERVICE_REFINE", "-1");
  expect_rejected("BST_SERVICE_CACHE_BYTES", "1e9");
  for (const char* v : {"BST_SERVICE_CACHE_BYTES", "BST_SERVICE_QUEUE", "BST_SERVICE_BATCH",
                        "BST_SERVICE_PANEL", "BST_SERVICE_NOCACHE", "BST_SERVICE_REFINE"}) {
    unsetenv(v);
  }
  ServiceOptions d = ServiceOptions::from_env();
  EXPECT_EQ(d.cache_bytes, ServiceOptions{}.cache_bytes);
  EXPECT_TRUE(d.cache_enabled);
  EXPECT_EQ(d.refine_steps, 0);
}

TEST(Service, BadPostMortemSettingThrowsFromTheConstructor) {
  // The constructor reads BST_STALL_MS itself; a bad value must surface as
  // an exception, not end the process through a joinable dispatcher.
  const char* old = std::getenv("BST_STALL_MS");
  const std::string saved = old != nullptr ? old : "";
  setenv("BST_STALL_MS", "5s", 1);
  EXPECT_THROW(Service svc(small_opts()), std::runtime_error);
  if (old != nullptr) {
    setenv("BST_STALL_MS", saved.c_str(), 1);
  } else {
    unsetenv("BST_STALL_MS");
  }
}

// ---------------------------------------------------------- metric counters

TEST(MetricsCounters, InternAddAndSnapshot) {
  const util::CtrId id = util::Metrics::counter("test_service_ctr");
  EXPECT_EQ(id, util::Metrics::counter("test_service_ctr"));  // interned
  const std::uint64_t before = util::Metrics::counter_value(id);
  util::Metrics::add(id);
  util::Metrics::add(id, 41);
  EXPECT_EQ(util::Metrics::counter_value(id), before + 42);
  bool found = false;
  for (const util::CounterStats& c : util::Metrics::counters_snapshot()) {
    if (c.name == "test_service_ctr") {
      found = true;
      EXPECT_GE(c.value, 42u);
    }
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------- per-request observability

TEST(Service, RequestIdsAreMonotoneAndNonzero) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(24, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  const SolveResult r1 = svc.solve(t, b);
  const SolveResult r2 = svc.solve(t, b);
  auto fut = svc.submit(t, b);
  const SolveResult r3 = fut.get();
  EXPECT_GT(r1.req_id, 0u);
  EXPECT_GT(r2.req_id, r1.req_id);
  EXPECT_GT(r3.req_id, r2.req_id);
}

TEST(Service, SolveResultCarriesPhaseTimings) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(32, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  const SolveResult miss = svc.solve(t, b);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_GT(miss.factor_ns, 0u);  // a miss pays the factorization
  EXPECT_GT(miss.solve_ns, 0u);
  const SolveResult hit = svc.solve(t, b);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_GT(hit.solve_ns, 0u);
  // Async requests additionally report their admission-to-dispatch wait.
  auto fut = svc.submit(t, b);
  const SolveResult async = fut.get();
  EXPECT_GT(async.done_ns, 0u);
  EXPECT_GT(async.req_id, 0u);
}

TEST(Service, SlowRequestsCountedAgainstThreshold) {
  ServiceOptions o = small_opts();
  o.slow_ms = 1e-6;  // ~1 ns threshold: everything is "slow" (0 disables)
  Service svc(o);
  BlockToeplitz t = toeplitz::kms(24, 0.5);
  svc.solve(t, toeplitz::rhs_for_ones(t));
  EXPECT_EQ(svc.stats().slow, 1u);
  const std::string json = svc.stats_json().dump_compact();
  EXPECT_NE(json.find("\"slow\""), std::string::npos) << json;

  ServiceOptions fast = small_opts();
  fast.slow_ms = 1e9;  // nothing is slow
  Service svc2(fast);
  svc2.solve(t, toeplitz::rhs_for_ones(t));
  EXPECT_EQ(svc2.stats().slow, 0u);
}

TEST(Service, GaugesTrackCacheAndQueueState) {
  const util::GaugeId resident = util::Metrics::gauge("service_cache_resident_bytes");
  const util::GaugeId depth = util::Metrics::gauge("service_queue_depth");
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(32, 0.5);
  svc.solve(t, toeplitz::rhs_for_ones(t));
  EXPECT_GT(util::Metrics::gauge_value(resident), 0);  // the factor is resident
  svc.drain();
  EXPECT_EQ(util::Metrics::gauge_value(depth), 0);  // drained queue reads empty
}

TEST(ServiceOptions, SlowAndTraceKnobsFromEnv) {
  setenv("BST_SERVICE_SLOW_MS", "7.5", 1);
  setenv("BST_SERVICE_TRACE_REQS", "3", 1);
  const ServiceOptions o = ServiceOptions::from_env();
  EXPECT_NEAR(o.slow_ms, 7.5, 1e-12);
  EXPECT_EQ(o.trace_requests, 3u);
  unsetenv("BST_SERVICE_SLOW_MS");
  unsetenv("BST_SERVICE_TRACE_REQS");
  EXPECT_NEAR(ServiceOptions::from_env().slow_ms, ServiceOptions{}.slow_ms, 1e-12);
}

TEST(MetricsCounters, ServiceCountersAccumulate) {
  const util::CtrId hits = util::Metrics::counter("service_cache_hits");
  const util::CtrId misses = util::Metrics::counter("service_cache_misses");
  const std::uint64_t h0 = util::Metrics::counter_value(hits);
  const std::uint64_t m0 = util::Metrics::counter_value(misses);
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(16, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  svc.solve(t, b);
  svc.solve(t, b);
  EXPECT_EQ(util::Metrics::counter_value(hits), h0 + 1);
  EXPECT_EQ(util::Metrics::counter_value(misses), m0 + 1);
}

// ------------------------------------------------------ one request path

// One accounting rule on every path: a request whose factorization fails
// counts as submitted, as completed and as one batch, whether it came
// through solve(), solve_many() or submit().
TEST(Service, FailedRequestCountsAlikeOnEveryPath) {
  const BlockToeplitz bad = toeplitz::random_indefinite(12, 3, /*diag=*/1.2);
  const la::index_t n = bad.order();
  const std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  la::Mat bm(n, 1);
  std::copy(b.begin(), b.end(), bm.data());
  const auto counts = [](const Service& svc) {
    const service::ServiceStats s = svc.stats();
    return std::vector<std::uint64_t>{s.submitted, s.completed, s.batches};
  };
  const std::vector<std::uint64_t> want{1, 1, 1};

  Service sync_svc(small_opts());
  EXPECT_THROW(sync_svc.solve(bad, b), core::NotPositiveDefinite);
  EXPECT_EQ(counts(sync_svc), want) << "solve()";

  Service many_svc(small_opts());
  EXPECT_THROW(many_svc.solve_many(bad, bm.view()), core::NotPositiveDefinite);
  EXPECT_EQ(counts(many_svc), want) << "solve_many()";

  Service async_svc(small_opts());
  std::future<SolveResult> fut = async_svc.submit(bad, b);
  EXPECT_THROW(fut.get(), core::NotPositiveDefinite);
  async_svc.drain();
  EXPECT_EQ(counts(async_svc), want) << "submit()";
}

// A sync call is in flight while it runs: the service_inflight gauge
// counts it and drain() waits for it.  An injected slow fault holds the
// call inside its factorization.
TEST(Service, DrainWaitsForSyncCalls) {
  const util::GaugeId inflight = util::Metrics::gauge("service_inflight");
  const BlockToeplitz t = toeplitz::kms(32, 0.5);
  const std::vector<double> b = toeplitz::rhs_for_ones(t);
  ::setenv("BST_FAULT", "cache_fill:slow", 1);
  ::setenv("BST_FAULT_SLOW_MS", "300", 1);
  util::Fault::reload();
  {
    ServiceOptions o = small_opts();
    o.slow_ms = 0.0;  // the injected delay is not news
    Service svc(o);
    std::thread caller([&] { (void)svc.solve(t, b); });
    // Admitted: the call now sleeps 300 ms before its factorization.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (svc.stats().submitted == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(util::Metrics::gauge_value(inflight), 1);
    svc.drain();
    EXPECT_EQ(svc.stats().completed, 1u) << "drain() returned before the call finished";
    EXPECT_EQ(util::Metrics::gauge_value(inflight), 0);
    caller.join();
  }
  ::unsetenv("BST_FAULT");
  ::unsetenv("BST_FAULT_SLOW_MS");
  util::Fault::reload();
}

}  // namespace
}  // namespace bst
