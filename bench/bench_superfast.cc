// bench_superfast: the superfast tier's two speed claims, measured.
//
//  * Residual sweep: the cost of one residual r = b - T x through the
//    dense block matvec vs the cached block-circulant FFT embedding
//    (toeplitz/fft.h), over a size sweep up to --nmax.  The dense route is
//    O(n^2); the FFT route is O(m^2 n log n) after a one-time O(m^2 n log n)
//    setup, so the gap widens with n.  CI gates on
//    metrics.fft_speedup_n4096 >= 25 (see .github/workflows/ci.yml), a
//    floor a radix-2 complex transform with recurrence twiddles (10.9x)
//    does not reach.
//  * Solver crossover: wall time of the full Schur factorization solve vs
//    the circulant-preconditioned CG route (core/pcg.h) on a large
//    well-conditioned KMS instance, both forced through core::toeplitz_solve
//    so the timings include exactly what the policy dispatches.  CI gates
//    on metrics.pcg_speedup > 1.
//
// Emits BENCH_superfast.json (bench_obs.h conventions: --json / BST_BENCH_OUT,
// --profile/--trace/--ledger for the observability surface).
#include <cmath>
#include <iostream>

#include "bench_obs.h"
#include "bst.h"

using namespace bst;

namespace {

// Per-call seconds of `body`, repeated until the total passes a small time
// target so ms-scale and us-scale costs are measured with the same noise.
template <typename F>
double time_per_call(F&& body, double target_s = 0.05) {
  const double t0 = util::wall_seconds();
  int calls = 0;
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = util::wall_seconds() - t0;
  } while (elapsed < target_s);
  return elapsed / calls;
}

void residual_sweep(const util::Cli& cli, util::PerfReport& report) {
  const la::index_t nmax = cli.get_int("nmax", 4096);
  const la::index_t ms = cli.get_int("ms", 4);
  util::Table tab("Residual r = b - T x: dense block matvec vs FFT embedding");
  tab.header({"n", "dense_ms", "fft_ms", "speedup"});
  for (la::index_t n = 256; n <= nmax; n *= 4) {
    toeplitz::BlockToeplitz t = toeplitz::kms(n, 0.5).with_block_size(ms);
    const std::vector<double> b = toeplitz::rhs_for_ones(t);
    const std::vector<double> x(static_cast<std::size_t>(n), 1.0);
    std::vector<double> r;
    toeplitz::MatVec dense(t, toeplitz::MatVecMode::Direct);
    // Spectra are built in the ctor (outside the timed region): the gate
    // is about the steady-state residual cost of refinement loops, where
    // the one-time setup is amortized over every sweep.
    toeplitz::MatVec fft(t, toeplitz::MatVecMode::Fft);
    const double dense_s = time_per_call([&] { dense.residual(b, x, r); });
    const double fft_s = time_per_call([&] { fft.residual(b, x, r); });
    const double speedup = fft_s > 0.0 ? dense_s / fft_s : 0.0;
    tab.row({static_cast<long long>(n), dense_s * 1e3, fft_s * 1e3, speedup});
    report.metric("fft_speedup_n" + std::to_string(n), speedup);
    if (n == nmax) {
      report.metric("dense_residual_ms", dense_s * 1e3);
      report.metric("fft_residual_ms", fft_s * 1e3);
    }
  }
  tab.precision(3);
  tab.print(std::cout);
  report.add_table(tab);
}

void solver_crossover(const util::Cli& cli, util::PerfReport& report) {
  const la::index_t n = cli.get_int("nmax", 4096);
  const la::index_t ms = cli.get_int("ms", 4);
  toeplitz::BlockToeplitz t = toeplitz::kms(n, 0.5).with_block_size(ms);
  const std::vector<double> b = toeplitz::rhs_for_ones(t);

  core::SolveOptions schur_opt;
  schur_opt.policy.kind = core::SolverKind::Schur;
  const double t0 = util::wall_seconds();
  core::SolveReport schur_rep = core::toeplitz_solve(t, b, schur_opt);
  const double schur_s = util::wall_seconds() - t0;

  core::SolveOptions pcg_opt;
  pcg_opt.policy.kind = core::SolverKind::Pcg;
  const double t1 = util::wall_seconds();
  core::SolveReport pcg_rep = core::toeplitz_solve(t, b, pcg_opt);
  const double pcg_s = util::wall_seconds() - t1;

  util::Table tab("Full Schur vs circulant-preconditioned CG (kms, rho = 0.5)");
  tab.header({"solver", "time_ms", "residual", "pcg_iters"});
  tab.row({std::string(schur_rep.solver_path), schur_s * 1e3, schur_rep.final_residual,
           static_cast<long long>(schur_rep.pcg_iterations)});
  tab.row({std::string(pcg_rep.solver_path), pcg_s * 1e3, pcg_rep.final_residual,
           static_cast<long long>(pcg_rep.pcg_iterations)});
  tab.precision(3);
  tab.print(std::cout);
  report.add_table(tab);
  report.metric("schur_ms", schur_s * 1e3);
  report.metric("pcg_ms", pcg_s * 1e3);
  report.metric("pcg_speedup", pcg_s > 0.0 ? schur_s / pcg_s : 0.0);
  report.metric("pcg_iterations", pcg_rep.pcg_iterations);
  report.metric("pcg_residual", pcg_rep.final_residual);
  std::cout << "crossover: schur " << schur_s * 1e3 << " ms vs pcg " << pcg_s * 1e3
            << " ms (" << pcg_rep.pcg_iterations << " iterations)\n";
}

int run(int argc, char** argv) {
  util::enable_flush_to_zero();
  util::Cli cli(argc, argv);
  bench::Obs obs(cli);
  util::PerfReport report("bench_superfast");
  report.param("nmax", cli.get_int("nmax", 4096));
  report.param("ms", cli.get_int("ms", 4));
  const double run_t0 = util::wall_seconds();
  std::cout << "# bench_superfast: FFT residuals + PCG vs the full Schur factorization\n";
  residual_sweep(cli, report);
  solver_crossover(cli, report);
  report.metric("time_s", util::wall_seconds() - run_t0);
  obs.finish(report);
  obs.write_default_json(report, "BENCH_superfast.json");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("bench_superfast", run, argc, argv);
}
