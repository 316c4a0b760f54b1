// Tests for util/par_analysis: the schedule capture of the simulated
// machine, the comm-matrix bookkeeping against analytic V1/V2 volumes, the
// critical-path invariant and the flight-recorder replay.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "bst.h"

using namespace bst;

namespace {

// Arms the tracer so Machine construction turns span capture on.
struct TracerGuard {
  TracerGuard() {
    util::Tracer::reset();
    util::Tracer::enable();
  }
  ~TracerGuard() {
    util::Tracer::disable();
    util::Tracer::reset();
  }
};

simnet::DistResult run_model(int np, la::index_t m, la::index_t p, simnet::Layout layout,
                             la::index_t group = 1, la::index_t spread = 1) {
  simnet::DistOptions opt;
  opt.np = np;
  opt.layout = layout;
  opt.group = group;
  opt.spread = spread;
  return simnet::dist_schur_factor(toeplitz::kms(m * p, 0.5).with_block_size(m), opt);
}

double matrix_total(const util::ParAnalysis& a) {
  double s = 0.0;
  for (const auto& row : a.comm_matrix)
    for (double v : row) s += v;
  return s;
}

// Analytic total payload volume for V1 (group = 1) / V2: every Schur step
// shifts the blocks that cross a group boundary (one m x m block each) and
// broadcasts one reflector to the other np - 1 PEs.
double expected_volume(int np, la::index_t m, la::index_t p, la::index_t group) {
  const double block_bytes = static_cast<double>(m * m) * 8.0;
  const double rep_bytes = simnet::representation_bytes(core::Representation::VY2, m);
  double crossings = 0.0;
  for (la::index_t i = 1; i < p; ++i)
    for (la::index_t j = i - 1; j < p - 1; ++j)
      if (j % group == group - 1) crossings += 1.0;
  return crossings * block_bytes +
         static_cast<double>(p - 1) * static_cast<double>(np - 1) * rep_bytes;
}

}  // namespace

TEST(ParAnalysis, CommMatrixMatchesAnalyticVolumesV1V2) {
  TracerGuard guard;
  const la::index_t m = 4;
  for (int np : {2, 4}) {
    for (la::index_t p : {9, 16}) {
      for (la::index_t group : {1, 2, 4}) {
        const simnet::Layout layout = group == 1 ? simnet::Layout::V1 : simnet::Layout::V2;
        simnet::DistResult res = run_model(np, m, p, layout, group);
        ASSERT_FALSE(res.schedule.empty());
        const util::ParAnalysis a = util::analyze_schedule(res.schedule);
        const double expect = expected_volume(np, m, p, group);
        EXPECT_NEAR(matrix_total(a), expect, 1e-9 * expect)
            << "np=" << np << " p=" << p << " group=" << group;
      }
    }
  }
}

TEST(ParAnalysis, GroupingReducesShiftVolumeOnly) {
  TracerGuard guard;
  // Same np/p: V2's broadcast volume equals V1's, only the shift volume
  // shrinks (by roughly the group factor) -- the mechanism behind Fig. 6.
  const la::index_t m = 4, p = 17;
  const int np = 4;
  auto shift_bytes = [](const util::ParSchedule& s) {
    double b = 0.0;
    for (const util::PeSpan& span : s.spans)
      if (span.kind == util::SpanKind::kSend) b += span.bytes;
    return b;
  };
  auto bcast_bytes = [](const util::ParSchedule& s) {
    double b = 0.0;
    for (const util::PeSpan& span : s.spans)
      if (span.kind == util::SpanKind::kBroadcastRecv) b += span.bytes;
    return b;
  };
  simnet::DistResult v1 = run_model(np, m, p, simnet::Layout::V1);
  simnet::DistResult v2 = run_model(np, m, p, simnet::Layout::V2, /*group=*/4);
  EXPECT_NEAR(bcast_bytes(v1.schedule), bcast_bytes(v2.schedule),
              1e-9 * bcast_bytes(v1.schedule));
  EXPECT_GT(shift_bytes(v1.schedule), 2.0 * shift_bytes(v2.schedule));
}

TEST(ParAnalysis, PerPeBusySumsMatchBreakdown) {
  TracerGuard guard;
  for (auto [layout, group, spread] :
       {std::tuple{simnet::Layout::V1, la::index_t{1}, la::index_t{1}},
        std::tuple{simnet::Layout::V2, la::index_t{4}, la::index_t{1}},
        std::tuple{simnet::Layout::V3, la::index_t{1}, la::index_t{2}}}) {
    simnet::DistResult res = run_model(4, 8, 12, layout, group, spread);
    const util::ParAnalysis a = util::analyze_schedule(res.schedule);
    double compute = 0.0;
    for (const util::PeUsage& u : a.per_pe) compute += u.compute;
    EXPECT_NEAR(compute, res.breakdown.compute, 1e-9 * res.breakdown.compute)
        << simnet::to_string(layout);
  }
}

TEST(ParAnalysis, CommMatrixColumnsMatchMachineRecvStats) {
  TracerGuard guard;
  simnet::DistResult res = run_model(4, 4, 13, simnet::Layout::V2, /*group=*/2);
  const util::ParAnalysis a = util::analyze_schedule(res.schedule);
  ASSERT_EQ(a.comm_matrix.size(), 4u);
  for (std::size_t dst = 0; dst < 4; ++dst) {
    double recv = 0.0;
    for (std::size_t src = 0; src < 4; ++src) recv += a.comm_matrix[src][dst];
    EXPECT_NEAR(recv, res.comm[dst].bytes_recv, 1e-9 * (res.comm[dst].bytes_recv + 1.0));
  }
}

TEST(ParAnalysis, CriticalPathTelescopesToMakespan) {
  TracerGuard guard;
  for (auto [layout, group, spread] :
       {std::tuple{simnet::Layout::V1, la::index_t{1}, la::index_t{1}},
        std::tuple{simnet::Layout::V2, la::index_t{4}, la::index_t{1}},
        std::tuple{simnet::Layout::V3, la::index_t{1}, la::index_t{4}}}) {
    simnet::DistResult res = run_model(8, 4, 24, layout, group, spread);
    const util::ParAnalysis a = util::analyze_schedule(res.schedule);
    EXPECT_TRUE(a.consistent()) << simnet::to_string(layout) << " slack=" << a.critical_slack;
    EXPECT_NEAR(a.makespan, res.sim_seconds, 1e-12 * res.sim_seconds);
    EXPECT_NEAR(a.critical_path_seconds, a.makespan, 1e-9 * a.makespan);
    EXPECT_GE(a.imbalance, 1.0);
    EXPECT_FALSE(a.critical_path.empty());
  }
}

TEST(ParAnalysis, FactorPathCapturesScheduleToo) {
  TracerGuard guard;
  toeplitz::BlockToeplitz t = toeplitz::kms(64, 0.5).with_block_size(8);
  simnet::DistOptions opt;
  opt.np = 4;
  opt.layout = simnet::Layout::V1;
  la::Mat r(t.order(), t.order());
  simnet::DistResult res = simnet::dist_schur_factor(t, opt, simnet::collect_into(r));
  EXPECT_LT(la::max_diff(r.view(), core::block_schur_factor(t).r.view()), 1e-10);
  ASSERT_FALSE(res.schedule.empty());
  const util::ParAnalysis a = util::analyze_schedule(res.schedule);
  EXPECT_TRUE(a.consistent());
  EXPECT_EQ(a.per_pe.size(), 4u);
}

TEST(ParAnalysis, EmitScheduleReplaysOntoVirtualPeTracks) {
  TracerGuard guard;
  util::FlightRecorder::enable();
  util::FlightRecorder::reset();

  util::ParSchedule s;
  s.np = 2;
  s.spans.push_back({0, -1, 1, util::SpanKind::kCompute, 0.0, 1.0, 0.0});
  s.spans.push_back({0, 1, 1, util::SpanKind::kSend, 1.0, 1.5, 64.0});
  s.spans.push_back({1, 0, 1, util::SpanKind::kRecv, 0.5, 1.5, 64.0});
  // Zero-length receive: counts for the comm matrix, not for the Gantt.
  s.spans.push_back({1, 0, 2, util::SpanKind::kRecv, 1.5, 1.5, 8.0});
  util::emit_schedule(s);

  int pe_tracks = 0;
  for (const util::ThreadEvents& te : util::FlightRecorder::snapshot()) {
    if (te.label.rfind("pe:", 0) != 0) continue;
    ++pe_tracks;
    EXPECT_TRUE(te.virtual_time) << te.label;
    int begins = 0, ends = 0;
    for (const util::FlightEvent& e : te.events) {
      begins += e.kind == util::EventKind::kBegin;
      ends += e.kind == util::EventKind::kEnd;
    }
    EXPECT_EQ(begins, ends) << te.label;
    EXPECT_EQ(te.events.size(), te.label == "pe:0" ? 4u : 2u) << te.label;
  }
  EXPECT_EQ(pe_tracks, 2);

  std::ostringstream os;
  util::FlightRecorder::write_chrome_trace(os);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"pe:0\""), std::string::npos);
  EXPECT_NE(doc.find("\"pe:1\""), std::string::npos);
  EXPECT_NE(doc.find("thread_name"), std::string::npos);
  EXPECT_NO_THROW(util::parse_json(doc));

  util::FlightRecorder::disable();
}

TEST(ParAnalysis, TraceFromModelHasOneTrackPerPe) {
  TracerGuard guard;
  util::FlightRecorder::enable();
  util::FlightRecorder::reset();
  run_model(4, 4, 10, simnet::Layout::V2, /*group=*/2);  // emits internally

  int pe_tracks = 0;
  for (const util::ThreadEvents& te : util::FlightRecorder::snapshot()) {
    if (te.label.rfind("pe:", 0) == 0) ++pe_tracks;
  }
  EXPECT_EQ(pe_tracks, 4);
  util::FlightRecorder::disable();
}
