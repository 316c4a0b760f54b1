// Reproduces paper Figure 6: time to factor a 4096 x 4096 *point* (m = 1)
// Toeplitz matrix on a 16-PE T3D as the number b of adjacent blocks per PE
// varies (V1 at b = 1, V2 for b > 1).
//
// Expected shape: a sharp initial fall (the shift traffic drops by a factor
// b) to an optimum near b = 16, then a rise as the lost parallelism
// dominates (paper section 7.1.5).
#include <iostream>

#include "bench_obs.h"
#include "bst.h"

using namespace bst;

int main(int argc, char** argv) {
  util::enable_flush_to_zero();
  util::Cli cli(argc, argv);
  const la::index_t n = cli.get_int("n", 4096);
  const int np = static_cast<int>(cli.get_int("np", 16));
  bench::Obs obs(cli);

  std::cout << "# bench_fig6: " << n << " x " << n << " point Toeplitz (m=1), NP=" << np
            << " (simulated T3D)\n";
  util::Table tab("Figure 6: factor time vs b (adjacent blocks per PE)");
  tab.header({"b", "scheme", "time (s)", "compute (s)", "shift (s)", "barrier idle (s)"});
  util::PerfReport report("bench_fig6");
  report.param("n", static_cast<std::int64_t>(n));
  report.param("np", static_cast<std::int64_t>(np));
  const toeplitz::BlockToeplitz t = toeplitz::kms(n, 0.5);
  double best_sim = 1e300;
  for (la::index_t b : {1, 2, 4, 8, 16, 32, 64}) {
    simnet::DistOptions opt;
    opt.np = np;
    if (b == 1) {
      opt.layout = simnet::Layout::V1;
    } else {
      opt.layout = simnet::Layout::V2;
      opt.group = b;
    }
    simnet::DistResult r = simnet::dist_schur_factor(t, opt);
    best_sim = std::min(best_sim, r.sim_seconds);
    tab.row({static_cast<long long>(b), std::string(to_string(opt.layout)), r.sim_seconds,
             r.breakdown.compute / np, r.breakdown.shift / np, r.breakdown.barrier / np});
    if (b == 1) {
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
  obs.write_default_json(report, "BENCH_fig6.json");
  std::cout << "paper: best time at b = 16; times increase again at b = 32, 64\n";
  return 0;
}
