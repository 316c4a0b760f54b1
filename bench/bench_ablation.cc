// Ablations of the paper's qualitative machine-sensitivity claims and of
// our own design choices.
//
//  (a) Section 7.1.5: "If the shift operation on the T3D were slower, then
//      the optimal b would be greater than 16, whereas if the shift
//      operation were quicker we would not have seen a significant
//      reduction in execution times with increasing b."
//      -> sweep the message latency and report where the optimal b lands.
//  (b) Section 7.1.7: "If the cost of broadcast on the T3D were to reduce,
//      then the optimal number of processors over which to distribute a
//      block ... would increase."
//      -> sweep the latency/barrier cost and report the optimal V3 spread.
//  (c) Two-level blocking (section 6.2): factorization time vs the inner
//      panel size for a large working block.
//  (d) Representation choice vs communication: total broadcast bytes per
//      factorization for VY vs YTY (the YTY volume advantage).
#include <iostream>

#include "bench_obs.h"
#include "bst.h"

using namespace bst;

namespace {

la::index_t best_b(double latency_scale, int np, la::index_t p) {
  const toeplitz::BlockToeplitz t = toeplitz::kms(p, 0.5);
  double best = 1e300;
  la::index_t arg = 0;
  for (la::index_t b : {1, 2, 4, 8, 16, 32, 64, 128}) {
    simnet::DistOptions o;
    o.np = np;
    o.machine.latency *= latency_scale;
    if (b > 1) {
      o.layout = simnet::Layout::V2;
      o.group = b;
    }
    const double sim = simnet::dist_schur_factor(t, o).sim_seconds;
    if (sim < best) {
      best = sim;
      arg = b;
    }
  }
  return arg;
}

la::index_t best_spread(double comm_scale, int np, la::index_t m, la::index_t p) {
  const toeplitz::BlockToeplitz t = toeplitz::kms(m * p, 0.5).with_block_size(m);
  double best = 1e300;
  la::index_t arg = 0;
  for (la::index_t s : {1, 2, 4, 8, 16, 32}) {
    simnet::DistOptions o;
    o.np = np;
    o.machine.latency *= comm_scale;
    o.machine.barrier_hop *= comm_scale;
    if (s > 1) {
      o.layout = simnet::Layout::V3;
      o.spread = s;
    }
    const double sim = simnet::dist_schur_factor(t, o).sim_seconds;
    if (sim < best) {
      best = sim;
      arg = s;
    }
  }
  return arg;
}

int run(int argc, char** argv) {
  util::enable_flush_to_zero();
  util::Cli cli(argc, argv);
  bench::Obs obs(cli);
  util::PerfReport report("bench_ablation");
  const double run_t0 = util::wall_seconds();

  std::cout << "# bench_ablation: machine-sensitivity + design-choice ablations\n";

  {
    util::Table tab("(a) optimal b vs shift latency (4096 pt matrix, NP=16)");
    tab.header({"latency scale", "optimal b"});
    for (double s : {0.1, 0.5, 1.0, 2.0, 4.0, 10.0}) {
      tab.row({s, static_cast<long long>(best_b(s, 16, 4096))});
    }
    tab.print(std::cout);
    report.add_table(tab);
    std::cout << "paper: slower shift => larger optimal b; quicker shift => grouping "
                 "barely helps\n";
  }
  {
    util::Table tab("(b) optimal V3 spread vs communication cost (m=32, p=128, NP=64)");
    tab.header({"comm scale", "optimal spread"});
    for (double s : {0.1, 0.25, 0.5, 1.0, 2.0, 4.0}) {
      tab.row({s, static_cast<long long>(best_spread(s, 64, 32, 128))});
    }
    tab.print(std::cout);
    report.add_table(tab);
    std::cout << "paper: cheaper broadcast => larger optimal spread\n";
  }
  {
    const la::index_t n = cli.get_int("n", 1024);
    const la::index_t ms = cli.get_int("ms", 64);
    report.param("n", static_cast<std::int64_t>(n));
    report.param("ms", static_cast<std::int64_t>(ms));
    toeplitz::BlockToeplitz t = toeplitz::kms(n, 0.7);
    util::Table tab("(c) two-level blocking: factor time vs inner panel size (m_s = " +
                    std::to_string(ms) + ")");
    tab.header({"inner k", "time (s)", "flops"});
    for (la::index_t kb : {0, 4, 8, 16, 32}) {
      core::SchurOptions opt;
      opt.block_size = ms;
      opt.inner_block = kb;
      const double t0 = util::wall_seconds();
      std::uint64_t flops = core::block_schur_stream(t, opt, [](la::index_t, la::CView) {});
      const double dt = util::wall_seconds() - t0;
      tab.row({static_cast<long long>(kb), dt, static_cast<long long>(flops)});
    }
    tab.print(std::cout);
    report.add_table(tab);
  }
  {
    util::Table tab("(d) broadcast volume per factorization (p = 128 steps)");
    tab.header({"m", "VY bytes", "YTY bytes", "ratio"});
    for (la::index_t m : {8, 16, 32, 64}) {
      const double vy = 127 * simnet::representation_bytes(core::Representation::VY2, m);
      const double yty = 127 * simnet::representation_bytes(core::Representation::YTY, m);
      tab.row({static_cast<long long>(m), vy, yty, yty / vy});
    }
    tab.print(std::cout);
    report.add_table(tab);
    std::cout << "paper (section 6.5): YTY halves the communicated volume\n";
  }
  report.metric("time_s", util::wall_seconds() - run_t0);
  obs.finish(report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("bench_ablation", run, argc, argv);
}
