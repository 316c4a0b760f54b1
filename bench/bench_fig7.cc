// Reproduces paper Figure 7: 4096 x 4096 block Toeplitz with m = 8 on a
// 16-PE T3D, across all three data distribution schemes: V3 for b < 1
// (each block split over 1/b PEs), V1 at b = 1, V2 for b > 1.
//
// Expected shape: for moderate block sizes with adequate parallelism
// (N >> NP), V1 (b = 1) is the fastest scheme (paper section 7.1.6).
#include <iostream>

#include "bench_obs.h"
#include "bst.h"

using namespace bst;

namespace {

int run(int argc, char** argv) {
  util::enable_flush_to_zero();
  util::Cli cli(argc, argv);
  const la::index_t m = cli.get_int("m", 8);
  const la::index_t n = cli.get_int("n", 4096);
  const int np = cli.get_int32("np", 16);
  bench::Obs obs(cli);

  std::cout << "# bench_fig7: " << n << " x " << n << " block Toeplitz, m=" << m
            << ", NP=" << np << " (simulated T3D)\n";
  util::Table tab("Figure 7: factor time vs b across V1/V2/V3");
  tab.header({"b", "scheme", "time (s)", "compute (s)", "bcast (s)", "shift (s)"});

  util::PerfReport report("bench_fig7");
  report.param("n", static_cast<std::int64_t>(n));
  report.param("m", static_cast<std::int64_t>(m));
  report.param("np", static_cast<std::int64_t>(np));

  const toeplitz::BlockToeplitz t = toeplitz::kms(n, 0.5).with_block_size(m);
  double best_sim = 1e300;
  auto add = [&](double blabel, simnet::DistOptions opt) {
    simnet::DistResult r = simnet::dist_schur_factor(t, opt);
    best_sim = std::min(best_sim, r.sim_seconds);
    tab.row({blabel, std::string(to_string(opt.layout)), r.sim_seconds,
             r.breakdown.compute / np, r.breakdown.broadcast / np, r.breakdown.shift / np});
    if (opt.layout == simnet::Layout::V1) {
      // Per-PE comm volume for the paper's preferred scheme (section 7.1).
      for (const simnet::PeCommStats& pe : r.comm) {
        report.add_pe_comm(pe.bytes_sent, pe.bytes_recv, pe.messages);
      }
      if (!r.schedule.empty()) report.add_par_analysis(util::analyze_schedule(r.schedule));
      report.metric("v1_sim_seconds", r.sim_seconds);
    }
  };

  for (la::index_t spread : {4, 2}) {  // b = 1/4, 1/2
    simnet::DistOptions opt;
    opt.np = np;
    opt.layout = simnet::Layout::V3;
    opt.spread = spread;
    add(1.0 / static_cast<double>(spread), opt);
  }
  {
    simnet::DistOptions opt;
    opt.np = np;
    opt.layout = simnet::Layout::V1;
    add(1.0, opt);
  }
  for (la::index_t b : {2, 4, 8, 16}) {
    simnet::DistOptions opt;
    opt.np = np;
    opt.layout = simnet::Layout::V2;
    opt.group = b;
    add(static_cast<double>(b), opt);
  }
  tab.precision(4);
  tab.print(std::cout);
  report.metric("sim_seconds", best_sim);
  report.add_table(tab);
  obs.finish(report);
  obs.write_default_json(report, "BENCH_fig7.json");
  std::cout << "paper: for moderate m with N >> NP, V1 (b = 1) gives the fastest "
               "factorization\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("bench_fig7", run, argc, argv);
}
