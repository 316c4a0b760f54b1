// Tests for the work-sharing thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <vector>

#include "util/flops.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace bst::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t) { calls.fetch_add(1); });
  pool.parallel_for(7, 3, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int sum = 0;
  pool.parallel_for(0, 10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, GrainChunksStillCoverRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(97);
  pool.parallel_for(0, 97, [&](std::size_t i) { hits[i].fetch_add(1); }, /*grain=*/8);
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 97);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(0, 100, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, OffsetRange) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.parallel_for(100, 200, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), (100L + 199L) * 100 / 2);
}

TEST(ThreadPool, ResetWorkerStatsZeroesUtilizationCounters) {
  ThreadPool pool(3);
  pool.parallel_for(0, 50, [](std::size_t) {});
  std::uint64_t chunks = 0;
  for (const WorkerStats& s : pool.worker_stats()) chunks += s.chunks;
  EXPECT_GT(chunks, 0u);
  pool.reset_worker_stats();
  for (const WorkerStats& s : pool.worker_stats()) {
    EXPECT_EQ(s.chunks, 0u);
    EXPECT_DOUBLE_EQ(s.busy_seconds, 0.0);
    EXPECT_DOUBLE_EQ(s.idle_seconds, 0.0);
  }
}

TEST(ThreadPool, ResetWorkerStatsClearsWorkerFlopCountersNotTheCallers) {
  ThreadPool pool(4);
  // First run: every participating thread piles up flop charges.
  pool.parallel_for(0, 64, [](std::size_t) { FlopCounter::charge(1'000'000); });
  // The caller's thread-local counter must survive the reset (an enclosing
  // FlopScope/TraceSpan on the caller holds a baseline against it).
  const std::uint64_t caller_before = FlopCounter::now();
  pool.reset_worker_stats();
  EXPECT_EQ(FlopCounter::now(), caller_before);

  // Second run: workers honour the pending reset before their next chunk,
  // so any thread still carrying the first run's megaflops can only be the
  // caller (whose counter kept growing from caller_before).
  std::mutex mu;
  std::vector<std::uint64_t> observed;
  std::atomic<int> calls{0};
  pool.parallel_for(0, 64, [&](std::size_t) {
    FlopCounter::charge(1);
    calls.fetch_add(1);
    const std::uint64_t now = FlopCounter::now();
    std::lock_guard lock(mu);
    observed.push_back(now);
  });
  EXPECT_EQ(calls.load(), 64);
  for (const std::uint64_t v : observed) {
    EXPECT_TRUE(v <= 64 || v >= caller_before)
        << "worker kept a stale counter: " << v;
  }
}

TEST(ThreadPool, ChunkLatenciesFeedTheMetricsHistogram) {
  Tracer::reset();
  Tracer::enable();
  ThreadPool pool(2);
  pool.parallel_for(0, 32, [](std::size_t) {}, /*grain=*/4);
  Tracer::disable();
  bool found = false;
  for (const HistogramStats& h : Metrics::snapshot()) {
    if (h.name == "pool_chunk_ns") {
      found = true;
      EXPECT_GT(h.count, 0u);
    }
  }
  EXPECT_TRUE(found);
  Tracer::reset();
}

TEST(ThreadPool, LateWorkerNeverRunsAFinishedTask) {
  // Back-to-back dispatches over alternating ranges: a worker that wakes
  // after its parallel_for returned must not run the finished body on the
  // next dispatch's indices.
  ThreadPool pool(8);
  std::atomic<std::uint64_t> live{0};
  std::atomic<std::uint64_t> stale{0};
  for (std::uint64_t it = 0; it < 1'000'000; ++it) {
    live.store(it, std::memory_order_relaxed);
    const std::size_t lo = it % 2 == 0 ? 0 : 2;
    const std::size_t hi = it % 2 == 0 ? 8 : 4;
    pool.parallel_for(lo, hi, [&live, &stale, it, lo, hi](std::size_t i) {
      if (live.load(std::memory_order_relaxed) != it || i < lo || i >= hi) stale.fetch_add(1);
    });
  }
  EXPECT_EQ(stale.load(), 0u);
}

TEST(ThreadPool, GlobalPoolExists) {
  auto& pool = ThreadPool::global();
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> calls{0};
  pool.parallel_for(0, 10, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

}  // namespace
}  // namespace bst::util
