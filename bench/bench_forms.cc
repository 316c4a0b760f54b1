// Reproduces the representation-cost comparison of paper section 6
// (eqs. 25-28: blocking flops; eqs. 29-32: application flops), as both the
// closed-form models and measurements of the real kernels: the wall time
// of a full factorization per representation at (m, p) = (16, 64) and
// (32, 32), written to BENCH_forms.json as forms_m<m>_<rep>_ms.
//
// Expected shape (paper): YTY cheapest to build, VY2 cheapest to apply,
// the naive accumulated-U scheme far more expensive than any blocked form.
// CI gates the measured order at one thread: VY2 and YTY within 5% of VY1
// or faster, VY1 faster than U.
//
//   bench_forms [--p=64] [--m=16] [--m2=32] [--p2=32]
#include <algorithm>
#include <cctype>
#include <iostream>
#include <iterator>
#include <string>

#include "bench_obs.h"
#include "bst.h"

using namespace bst;
using core::Representation;

namespace {

// Timed rounds per representation; each keeps its best.
constexpr int kRounds = 5;

void model_table(la::index_t p, util::PerfReport& report) {
  util::Table build("Blocking flops to form the step reflector (k = m), eqs. 25-28");
  build.header({"m", "U (eq.25)", "VY1 (eq.26)", "VY2 (eq.27)", "YTY (eq.28)"});
  for (la::index_t m : {2, 4, 8, 16, 32, 64}) {
    build.row({static_cast<long long>(m), core::blocking_flops_accumulated_u(m, m),
               core::blocking_flops_vy1(m, m), core::blocking_flops_vy2(m, m),
               core::blocking_flops_yty(m, m)});
  }
  build.print(std::cout);
  report.add_table(build);

  util::Table apply("Application flops to a 2m x mp generator (k = m), eqs. 29-32");
  apply.header({"m", "p", "U (eq.29)", "VY1 (eq.30)", "VY2 (eq.31)", "YTY (eq.32)"});
  for (la::index_t m : {2, 4, 8, 16, 32, 64}) {
    apply.row({static_cast<long long>(m), static_cast<long long>(p),
               core::application_flops_accumulated_u(m, p, m),
               core::application_flops_vy1(m, p, m), core::application_flops_vy2(m, p, m),
               core::application_flops_yty(m, p, m)});
  }
  apply.print(std::cout);
  report.add_table(apply);
}

// Wall time of a full factorization per representation, sequential
// included.  block_schur_stream with an empty sink keeps R's page faults
// out of the clock, the representations take turns in every round, and
// each keeps its best of kRounds.  Reported as forms_m<m>_<rep>_ms.
void measured_table(la::index_t m, la::index_t p, util::PerfReport& report) {
  toeplitz::BlockToeplitz t =
      toeplitz::random_spd_block(m, p, 2, /*seed=*/7).with_block_size(m);
  constexpr Representation kTimed[] = {Representation::AccumulatedU, Representation::VY1,
                                       Representation::VY2, Representation::YTY,
                                       Representation::Sequential};
  double best[std::size(kTimed)];
  std::uint64_t flops[std::size(kTimed)] = {};
  std::fill(std::begin(best), std::end(best), 1e300);
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < std::size(kTimed); ++i) {
      core::SchurOptions opt;
      opt.rep = kTimed[i];
      const double t0 = util::wall_seconds();
      flops[i] = core::block_schur_stream(t, opt, [](la::index_t, la::CView) {});
      best[i] = std::min(best[i], util::wall_seconds() - t0);
    }
  }
  util::Table tab("Measured: full factorization per representation (best of " +
                  std::to_string(kRounds) + ", interleaved)");
  tab.header({"rep", "n", "m", "flops (counted)", "time (ms)", "GFLOP/s"});
  for (std::size_t i = 0; i < std::size(kTimed); ++i) {
    std::string name = core::to_string(kTimed[i]);
    tab.row({name, static_cast<long long>(t.order()), static_cast<long long>(m),
             static_cast<long long>(flops[i]), best[i] * 1e3,
             static_cast<double>(flops[i]) / best[i] * 1e-9});
    for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    report.metric("forms_m" + std::to_string(m) + "_" + name + "_ms", best[i] * 1e3);
  }
  tab.print(std::cout);
  report.add_table(tab);
}

int run(int argc, char** argv) {
  util::enable_flush_to_zero();
  util::Cli cli(argc, argv);
  const la::index_t p = cli.get_int("p", 64);
  bench::Obs obs(cli);
  util::PerfReport report("bench_forms");
  report.param("p", static_cast<std::int64_t>(p));
  const double run_t0 = util::wall_seconds();
  std::cout << "# bench_forms: representation tradeoffs (paper section 6)\n";
  model_table(p, report);
  measured_table(cli.get_int("m", 16), p, report);
  measured_table(cli.get_int("m2", 32), cli.get_int("p2", 32), report);
  report.metric("time_s", util::wall_seconds() - run_t0);
  obs.finish(report);
  obs.write_default_json(report, "BENCH_forms.json");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("bench_forms", run, argc, argv);
}
