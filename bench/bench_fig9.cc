// Reproduces paper Figure 9: time to factor a 1024 x 1024 block Toeplitz
// matrix with block sizes m = 2 and m = 4 as the machine size NP grows.
//
// Expected shape: m = 4 does ~2x the flops, so it loses on small machines;
// it halves the number of steps (and hence synchronizations/broadcasts)
// and updates memory more efficiently (4-word cache lines), so it wins on
// large machines -- the curves cross (paper section 7.1.7, last paragraph).
#include <algorithm>
#include <iostream>

#include "bench_obs.h"
#include "bst.h"

using namespace bst;

namespace {

int run(int argc, char** argv) {
  util::enable_flush_to_zero();
  util::Cli cli(argc, argv);
  const la::index_t n = cli.get_int("n", 1024);
  bench::Obs obs(cli);

  std::cout << "# bench_fig9: " << n << " x " << n << " block Toeplitz, m = 2 vs 4 "
            << "(simulated T3D)\n";
  util::Table tab("Figure 9: factor time vs NP for block sizes 2 and 4");
  tab.header({"NP", "m=2 (s)", "m=4 (s)", "faster"});
  const toeplitz::BlockToeplitz t2 = toeplitz::kms(n, 0.5).with_block_size(2);
  const toeplitz::BlockToeplitz t4 = toeplitz::kms(n, 0.5).with_block_size(4);
  double best_sim = 1e300;
  for (int np : {1, 2, 4, 8, 16, 32, 64}) {
    simnet::DistOptions opt;
    opt.np = np;
    const double s2 = simnet::dist_schur_factor(t2, opt).sim_seconds;
    const double s4 = simnet::dist_schur_factor(t4, opt).sim_seconds;
    best_sim = std::min({best_sim, s2, s4});
    tab.row({static_cast<long long>(np), s2, s4,
             std::string(s2 < s4 ? "m=2" : (s4 < s2 ? "m=4" : "tie"))});
  }
  tab.precision(4);
  tab.print(std::cout);
  util::PerfReport report("bench_fig9");
  report.param("n", static_cast<std::int64_t>(n));
  report.metric("sim_seconds", best_sim);
  report.add_table(tab);
  obs.finish(report);
  obs.write_default_json(report, "BENCH_fig9.json");
  std::cout << "paper: m=4 is slower for small NP, faster for large NP "
               "(synchronization amortization + cache-line effects)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("bench_fig9", run, argc, argv);
}
