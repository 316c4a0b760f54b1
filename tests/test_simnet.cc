// Tests for the distributed-memory simulation: machine cost model, the
// distributed factorization on the virtual-clock transport (every layout
// factors on per-PE storage), the pinned figure timings and the
// qualitative tradeoffs of section 7.
#include <gtest/gtest.h>

#include "core/schur.h"
#include "la/norms.h"
#include "simnet/dist_schur.h"
#include "simnet/machine.h"
#include "toeplitz/generators.h"
#include "util/trace.h"

namespace bst::simnet {
namespace {

TEST(Machine, ComputeAdvancesClock) {
  Machine m(2, MachineParams{.flop_rate = 100.0, .latency = 0.0, .bandwidth = 1e9});
  m.compute(0, 200.0);
  EXPECT_DOUBLE_EQ(m.time(), 2.0);
  EXPECT_DOUBLE_EQ(m.breakdown().compute, 2.0);
}

TEST(Machine, PutSynchronizesReceiver) {
  MachineParams p;
  p.flop_rate = 1.0;
  p.latency = 1.0;
  p.bandwidth = 8.0;  // 1 second per 8 bytes
  Machine m(2, p);
  m.compute(0, 5.0);              // PE0 at t=5
  m.exchange({{0, 1, 1.0, 8.0}});  // one put, arrives at 5 + 1 + 1 = 7
  EXPECT_DOUBLE_EQ(m.time(), 7.0);
  // The receiver's 7-second wait is charged along with the sender's 2.
  EXPECT_DOUBLE_EQ(m.breakdown().shift, 2.0 + 7.0);
}

TEST(Machine, BroadcastReachesEveryone) {
  MachineParams p;
  p.latency = 1.0;
  p.bandwidth = 1e18;
  Machine m(8, p);
  m.compute(3, 0.0);
  m.broadcast(3, 0.0);
  // log2(8) = 3 hops of 1 second latency.
  EXPECT_DOUBLE_EQ(m.time(), 3.0);
}

TEST(Machine, BarrierAlignsClocksAndCountsIdle) {
  MachineParams p;
  p.flop_rate = 1.0;
  p.barrier_hop = 0.0;
  Machine m(2, p);
  m.compute(0, 10.0);
  m.barrier();
  EXPECT_DOUBLE_EQ(m.time(), 10.0);
  EXPECT_DOUBLE_EQ(m.breakdown().barrier, 10.0);  // PE1 idled 10 seconds
}

TEST(Machine, SelfPutIsFree) {
  Machine m(2, MachineParams{});
  m.exchange({{0, 0, 1.0, 1e9}});
  EXPECT_DOUBLE_EQ(m.time(), 0.0);
}

TEST(Machine, BucketsSumToEveryPeClock) {
  MachineParams p;
  p.flop_rate = 1.0;
  p.latency = 0.5;
  p.bandwidth = 4.0;
  Machine m(4, p);
  m.compute(1, 3.0);
  m.exchange({{0, 1, 2.0, 4.0}, {1, 2, 1.0, 8.0}});
  m.broadcast(2, 16.0);
  m.comm_delay(3, 0.25);
  m.compute(0, 1.0);
  m.barrier();
  EXPECT_NEAR(m.breakdown().total(), 4.0 * m.time(), 1e-12 * m.time());
}

TEST(RepresentationBytes, YtyIsSmallest) {
  for (core::index_t m : {2, 4, 8, 32}) {
    const double u = representation_bytes(core::Representation::AccumulatedU, m);
    const double vy = representation_bytes(core::Representation::VY2, m);
    const double yty = representation_bytes(core::Representation::YTY, m);
    // Paper section 6.5: the YTY form needs about half the storage /
    // communication volume of the other methods (U and VY are both 4m^2).
    EXPECT_LT(yty, vy) << m;
    EXPECT_LE(vy, u) << m;
    // ~ (2m^2 + m^2/2) / 4m^2 = 0.625, approaching 0.5 as the triangular
    // T block becomes negligible.
    EXPECT_GE(yty / vy, 0.5) << m;
    EXPECT_LE(yty / vy, 0.72) << m;
  }
}

class DistCorrectness : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DistCorrectness, DistributedFactorEqualsSequential) {
  const auto [layouti, np, group] = GetParam();
  const Layout layout = layouti == 0 ? Layout::V1 : Layout::V2;
  toeplitz::BlockToeplitz t = toeplitz::random_spd_block(3, 12, 2, 99);
  core::SchurFactor seq = core::block_schur_factor(t);

  DistOptions opt;
  opt.layout = layout;
  opt.np = np;
  opt.group = group;
  la::Mat r(t.order(), t.order());
  DistResult res = dist_schur_factor(t, opt, collect_into(r));
  EXPECT_LT(la::max_diff(r.view(), seq.r.view()), 1e-10);
  EXPECT_GT(res.sim_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(LayoutsAndSizes, DistCorrectness,
                         ::testing::Combine(::testing::Values(0, 1), ::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(1, 2, 3)));

TEST(DistSchur, V3FactorsUnderSimulatedTime) {
  toeplitz::BlockToeplitz t = toeplitz::random_spd_block(4, 6, 1, 1);
  core::SchurFactor seq = core::block_schur_factor(t);
  DistOptions opt;
  opt.layout = Layout::V3;
  opt.np = 4;
  opt.spread = 2;
  la::Mat r(t.order(), t.order());
  const DistResult res = dist_schur_factor(t, opt, collect_into(r));
  EXPECT_LT(la::max_diff(r.view(), seq.r.view()), 1e-10);
  EXPECT_GT(res.sim_seconds, 0.0);
  EXPECT_GT(res.breakdown.broadcast, 0.0);
}

TEST(DistSchur, InvalidOptionsRejected) {
  const toeplitz::BlockToeplitz t = toeplitz::kms(8, 0.5);
  DistOptions opt;
  opt.np = 0;
  EXPECT_THROW(dist_schur_factor(t, opt), std::invalid_argument);
  opt.np = 4;
  opt.layout = Layout::V3;
  opt.spread = 3;  // does not divide np
  EXPECT_THROW(dist_schur_factor(t, opt), std::invalid_argument);
  opt.np = 6;  // divides np but not the block size
  EXPECT_THROW(dist_schur_factor(t.with_block_size(4), opt), std::invalid_argument);
}

TEST(DistSchur, ModelIsDeterministic) {
  util::Tracer::reset();
  util::Tracer::enable();  // arms the schedule capture
  const toeplitz::BlockToeplitz t = toeplitz::kms(96, 0.5).with_block_size(4);
  for (Layout layout : {Layout::V1, Layout::V2, Layout::V3}) {
    DistOptions opt;
    opt.np = 4;
    opt.layout = layout;
    opt.group = 2;
    opt.spread = 2;
    const DistResult a = dist_schur_factor(t, opt);
    const DistResult b = dist_schur_factor(t, opt);
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << to_string(layout);
    EXPECT_EQ(a.steps, 23);
    ASSERT_FALSE(a.schedule.empty());
    ASSERT_EQ(a.schedule.spans.size(), b.schedule.spans.size());
    for (std::size_t k = 0; k < a.schedule.spans.size(); ++k) {
      const util::PeSpan& x = a.schedule.spans[k];
      const util::PeSpan& y = b.schedule.spans[k];
      EXPECT_TRUE(x.pe == y.pe && x.peer == y.peer && x.step == y.step && x.kind == y.kind &&
                  x.t0 == y.t0 && x.t1 == y.t1 && x.bytes == y.bytes)
          << to_string(layout) << " span " << k;
    }
  }
  util::Tracer::disable();
  util::Tracer::reset();
}

TEST(DistSchur, BreakdownSumsToMakespanEveryLayout) {
  const toeplitz::BlockToeplitz t = toeplitz::kms(256, 0.5).with_block_size(8);
  for (Layout layout : {Layout::V1, Layout::V2, Layout::V3}) {
    for (int np : {1, 4, 8}) {
      DistOptions opt;
      opt.np = np;
      opt.layout = layout;
      opt.group = 3;
      opt.spread = np == 1 ? 1 : 2;
      const DistResult res = dist_schur_factor(t, opt);
      EXPECT_NEAR(res.breakdown.total(), np * res.sim_seconds, 1e-9 * np * res.sim_seconds)
          << to_string(layout) << " np=" << np;
    }
  }
}

// The V1/V2 figure timings the data-free cost model produced, to the last
// bit printed: the numeric program charges the machine identically.
TEST(DistSchur, FigureTimingsArePinned) {
  auto sim = [](core::index_t n, core::index_t m, int np, Layout layout, core::index_t group) {
    DistOptions opt;
    opt.np = np;
    opt.layout = layout;
    opt.group = group;
    return dist_schur_factor(toeplitz::kms(n, 0.5).with_block_size(m), opt).sim_seconds;
  };
  const struct {
    double got, want;
  } pins[] = {
      {sim(4096, 1, 16, Layout::V1, 1), 1.0945175466665016},     // Fig. 6, b = 1
      {sim(4096, 1, 16, Layout::V2, 16), 0.61446634666678657},   // Fig. 6, b = 16
      {sim(4096, 8, 16, Layout::V1, 1), 1.5950151466666058},     // Fig. 7, V1
      {sim(4096, 32, 64, Layout::V1, 1), 2.7553591200000098},    // Fig. 8, V1
      {sim(1024, 2, 64, Layout::V1, 1), 0.03400577777777835},    // Fig. 9, m = 2
      {sim(1024, 4, 64, Layout::V1, 1), 0.03106549333333326},    // Fig. 9, m = 4
  };
  for (const auto& pin : pins) EXPECT_NEAR(pin.got, pin.want, 1e-12 * pin.want);
}

TEST(DistSchur, GroupingReducesShiftTraffic) {
  // Paper section 7.1.2: V2's shift volume drops by the group factor.
  DistOptions v1;
  v1.np = 16;
  DistOptions v2 = v1;
  v2.layout = Layout::V2;
  v2.group = 8;
  const toeplitz::BlockToeplitz t = toeplitz::kms(1024, 0.5);
  const DistResult r1 = dist_schur_factor(t, v1);
  const DistResult r2 = dist_schur_factor(t, v2);
  EXPECT_LT(r2.breakdown.shift, r1.breakdown.shift * 0.5);
}

TEST(DistSchur, Fig6ShapeSharpFallThenRise) {
  // 4096-point scalar matrix on 16 PEs: time falls with b then rises
  // (paper Fig. 6; best around b = 16).
  DistOptions opt;
  opt.np = 16;
  const toeplitz::BlockToeplitz t = toeplitz::kms(4096, 0.5);
  auto time_for = [&](core::index_t b) {
    DistOptions o = opt;
    if (b == 1) {
      o.layout = Layout::V1;
    } else {
      o.layout = Layout::V2;
      o.group = b;
    }
    return dist_schur_factor(t, o).sim_seconds;
  };
  const double t1 = time_for(1);
  const double t16 = time_for(16);
  const double t256 = time_for(256);
  EXPECT_LT(t16, t1);    // grouping helps at first...
  EXPECT_GT(t256, t16);  // ...then the lost parallelism dominates
}

TEST(DistSchur, Fig9ShapeBlockSizeCrossover) {
  // 1024-point matrix, m = 2 vs m = 4 (paper Fig. 9): the larger block
  // size loses on few PEs (more flops) and wins on many (fewer steps =>
  // fewer synchronizations).
  auto time_for = [&](core::index_t m, int np) {
    DistOptions o;
    o.np = np;
    return dist_schur_factor(toeplitz::kms(1024, 0.5).with_block_size(m), o).sim_seconds;
  };
  EXPECT_LT(time_for(2, 1), time_for(4, 1));    // small NP: m = 2 faster
  EXPECT_GT(time_for(2, 64), time_for(4, 64));  // large NP: m = 4 faster
}

TEST(DistSchur, V3HelpsLargeBlocksFewBlocks) {
  // Paper Fig. 8 mechanism: m = 32, p = 128 on 64 PEs: most PEs idle
  // under V1; spreading each block increases parallelism.
  DistOptions v1;
  v1.np = 64;
  DistOptions v3 = v1;
  v3.layout = Layout::V3;
  v3.spread = 8;
  const toeplitz::BlockToeplitz t = toeplitz::kms(4096, 0.5).with_block_size(32);
  const double t1 = dist_schur_factor(t, v1).sim_seconds;
  const double t3 = dist_schur_factor(t, v3).sim_seconds;
  EXPECT_LT(t3, t1);
}

TEST(DistSchur, MoreProcessorsHelpWhenParallelismAvailable) {
  DistOptions a, b;
  a.np = 4;
  b.np = 16;
  const toeplitz::BlockToeplitz t = toeplitz::kms(2048, 0.5).with_block_size(8);
  const double t4 = dist_schur_factor(t, a).sim_seconds;
  const double t16 = dist_schur_factor(t, b).sim_seconds;
  EXPECT_LT(t16, t4);
}

TEST(DistSchur, BlockSizeOverrideInDistributedRun) {
  toeplitz::BlockToeplitz t = toeplitz::kms(16, 0.5);
  DistOptions opt;
  opt.np = 2;
  opt.block_size = 4;
  la::Mat r(t.order(), t.order());
  dist_schur_factor(t, opt, collect_into(r));
  core::SchurOptions sopt;
  sopt.block_size = 4;
  core::SchurFactor seq = core::block_schur_factor(t, sopt);
  EXPECT_LT(la::max_diff(r.view(), seq.r.view()), 1e-10);
}


TEST(Machine, ExchangeIsConcurrentNotChained) {
  // With one exchange per put, PE k's send would wait for PE k-1's
  // arrival; one exchange must charge all sends from a common snapshot.
  MachineParams p;
  p.latency = 1.0;
  p.bandwidth = 1e18;
  Machine chained(4, p), collective(4, p);
  for (int pe = 0; pe < 4; ++pe) chained.exchange({{pe, (pe + 1) % 4, 1.0, 0.0}});
  std::vector<Machine::ShiftMsg> msgs;
  for (int pe = 0; pe < 4; ++pe) msgs.push_back({pe, (pe + 1) % 4, 1.0, 0.0});
  collective.exchange(msgs);
  EXPECT_DOUBLE_EQ(collective.time(), 1.0);  // all concurrent
  EXPECT_GT(chained.time(), 1.5);            // the ring chained up
}

TEST(Machine, ExchangeSkipsSelfAndEmpty) {
  Machine m(2, MachineParams{});
  m.exchange({{0, 0, 5.0, 100.0}, {1, 0, 0.0, 100.0}});
  EXPECT_DOUBLE_EQ(m.time(), 0.0);
}

TEST(Machine, CommDelayChargesBroadcastBucket) {
  Machine m(2, MachineParams{});
  m.comm_delay(1, 0.25);
  EXPECT_DOUBLE_EQ(m.time(), 0.25);
  EXPECT_DOUBLE_EQ(m.breakdown().broadcast, 0.25);
}

TEST(MachineParams, BlockEfficiencySaturatesAtCacheLine) {
  MachineParams p;
  EXPECT_LT(p.block_efficiency(1), p.block_efficiency(2));
  EXPECT_LT(p.block_efficiency(2), p.block_efficiency(4));
  EXPECT_DOUBLE_EQ(p.block_efficiency(4), 1.0);
  EXPECT_DOUBLE_EQ(p.block_efficiency(32), 1.0);
}

}  // namespace
}  // namespace bst::simnet
