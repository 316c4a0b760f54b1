// Reproduces paper Figure 8: 4096 x 4096 block Toeplitz with m = 32 on a
// 64-PE T3D, V1 vs V3 with varying spread (number of PEs per block).
//
// Expected shape: with only p = 128 blocks on 64 PEs, V1 leaves most PEs
// idle; splitting each block over `spread` PEs buys parallelism until the
// extra broadcasts win -- optimum spread ~ 8 (paper section 7.1.7).
#include <iostream>

#include "bench_obs.h"
#include "bst.h"

using namespace bst;

namespace {

int run(int argc, char** argv) {
  util::enable_flush_to_zero();
  util::Cli cli(argc, argv);
  const la::index_t m = cli.get_int("m", 32);
  const la::index_t n = cli.get_int("n", 4096);
  const int np = cli.get_int32("np", 64);
  bench::Obs obs(cli);

  std::cout << "# bench_fig8: " << n << " x " << n << " block Toeplitz, m=" << m
            << ", NP=" << np << " (simulated T3D)\n";
  util::Table tab("Figure 8: factor time vs spread (PEs per block)");
  tab.header({"spread", "scheme", "time (s)", "compute (s)", "bcast (s)", "barrier idle (s)"});
  util::PerfReport report("bench_fig8");
  report.param("n", static_cast<std::int64_t>(n));
  report.param("m", static_cast<std::int64_t>(m));
  report.param("np", static_cast<std::int64_t>(np));
  const toeplitz::BlockToeplitz t = toeplitz::kms(n, 0.5).with_block_size(m);
  double best_sim = 1e300;
  {
    simnet::DistOptions opt;
    opt.np = np;
    opt.layout = simnet::Layout::V1;
    simnet::DistResult r = simnet::dist_schur_factor(t, opt);
    best_sim = std::min(best_sim, r.sim_seconds);
    tab.row({1LL, std::string("V1"), r.sim_seconds, r.breakdown.compute / np,
             r.breakdown.broadcast / np, r.breakdown.barrier / np});
  }
  for (la::index_t spread : {2, 4, 8, 16, 32}) {
    simnet::DistOptions opt;
    opt.np = np;
    opt.layout = simnet::Layout::V3;
    opt.spread = spread;
    simnet::DistResult r = simnet::dist_schur_factor(t, opt);
    best_sim = std::min(best_sim, r.sim_seconds);
    tab.row({static_cast<long long>(spread), std::string("V3"), r.sim_seconds,
             r.breakdown.compute / np, r.breakdown.broadcast / np, r.breakdown.barrier / np});
    if (spread == 8) {  // the paper's optimum: keep its per-PE comm profile
      for (const simnet::PeCommStats& pe : r.comm) {
        report.add_pe_comm(pe.bytes_sent, pe.bytes_recv, pe.messages);
      }
      if (!r.schedule.empty()) report.add_par_analysis(util::analyze_schedule(r.schedule));
    }
  }
  tab.precision(4);
  tab.print(std::cout);
  report.metric("sim_seconds", best_sim);
  report.add_table(tab);
  obs.finish(report);
  obs.write_default_json(report, "BENCH_fig8.json");
  std::cout << "paper: optimal spread is 8; larger spreads lose to broadcast cost\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("bench_fig8", run, argc, argv);
}
