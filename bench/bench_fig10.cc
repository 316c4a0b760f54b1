// Reproduces paper Figure 10 (Cray Y-MP experiment, re-expressed for the
// host CPU): sustained MFLOP/s of the block Schur factorization of an SPD
// *point* Toeplitz matrix, for several working block sizes m_s, as the
// problem size grows.
//
// Expected shape: the flop count grows ~ 4 m_s n^2 (linear in m_s), but the
// BLAS3 shapes improve enough with m_s that the sustained rate grows
// superlinearly -- larger m_s pays off for large problems even though it
// does more arithmetic (paper section 9).  The wall-time table shows where
// the rate gain beats the flop increase.
#include <iostream>

#include "bench_obs.h"
#include "bst.h"

using namespace bst;

namespace {

int run(int argc, char** argv) {
  util::enable_flush_to_zero();
  util::Cli cli(argc, argv);
  const long nmax = cli.get_int("nmax", 2048);
  const int reps = cli.get_int32("reps", 1);

  // Phase-resolved profile of the sweep (the per-span overhead is one
  // relaxed atomic read-modify-write per phase, negligible at these sizes).
  // The tracer stays on even without --profile/--trace/--ledger so the
  // default --json report carries the phase breakdown.
  bench::Obs obs(cli);
  if (!obs.armed()) {
    util::Tracer::reset();
    util::Tracer::enable();
  }
  const double sweep_t0 = util::wall_seconds();

  std::cout << "# bench_fig10: block Schur MFLOP/s for point Toeplitz, varying m_s\n";
  util::Table rate("Figure 10: sustained MFLOP/s vs problem size and m_s");
  util::Table wall("Wall time (s) vs problem size and m_s");
  std::vector<std::string> hdr{"n"};
  const std::vector<la::index_t> sizes_ms{1, 2, 4, 8, 16, 32};
  for (la::index_t ms : sizes_ms) hdr.push_back("m_s=" + std::to_string(ms));
  rate.header(hdr);
  wall.header(hdr);

  for (long n = 256; n <= nmax; n *= 2) {
    toeplitz::BlockToeplitz t = toeplitz::kms(n, 0.7);
    std::vector<util::Cell> rrow{static_cast<long long>(n)};
    std::vector<util::Cell> wrow{static_cast<long long>(n)};
    for (la::index_t ms : sizes_ms) {
      core::SchurOptions opt;
      opt.block_size = ms;
      // Stream into a null sink: measure the factorization, not the store.
      double best = 1e300;
      std::uint64_t flops = 0;
      for (int r = 0; r < reps; ++r) {
        const double t0 = util::wall_seconds();
        flops = core::block_schur_stream(t, opt, [](la::index_t, la::CView) {});
        best = std::min(best, util::wall_seconds() - t0);
        // Budget the traced phases so the report's attainment section can
        // show model-ratio per (n, m_s) sweep cell (summed across reps,
        // matching the tracer's accumulation).
        obs.add_phase_models(core::schur_phase_models(opt.rep, n, ms));
      }
      rrow.emplace_back(static_cast<double>(flops) / best / 1e6);
      wrow.emplace_back(best);
    }
    rate.row(std::move(rrow));
    wall.row(std::move(wrow));
  }
  rate.precision(4);
  wall.precision(3);
  rate.print(std::cout);
  wall.print(std::cout);

  util::PerfReport report("bench_fig10");
  report.param("nmax", static_cast<std::int64_t>(nmax));
  report.param("reps", static_cast<std::int64_t>(reps));
  report.metric("time_s", util::wall_seconds() - sweep_t0);
  report.add_table(rate);
  report.add_table(wall);
  obs.finish(report);
  util::Tracer::disable();
  obs.write_default_json(report, "BENCH_fig10.json");
  std::cout << "paper: on the Y-MP the rate grows superlinearly with m_s for large n,\n"
               "so a working block size m_s > m can reduce wall time despite ~4 m_s n^2 "
               "flops\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("bench_fig10", run, argc, argv);
}
