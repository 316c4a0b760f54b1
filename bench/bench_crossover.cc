// Structured-vs-dense baseline comparison (implicit throughout the paper):
// the O(m_s n^2) block Schur factorization against the O(n^3) dense
// Cholesky and the O(n^2) Levinson solver, on SPD point Toeplitz systems.
//
// Expected shape: the structured algorithms win asymptotically; dense
// Cholesky is competitive only at small n.  Between the structured ones,
// Levinson solves a single system fastest while Schur produces the factor
// (reusable across right-hand sides) at a comparable O(n^2) cost.
#include <iostream>

#include "bench_obs.h"
#include "bst.h"

using namespace bst;

namespace {

int run(int argc, char** argv) {
  util::enable_flush_to_zero();
  util::Cli cli(argc, argv);
  const long nmax = cli.get_int("nmax", 2048);
  bench::Obs obs(cli);
  const double run_t0 = util::wall_seconds();

  std::cout << "# bench_crossover: block Schur vs classical Schur vs Levinson vs dense\n";
  util::Table tab("Time (s) to factor + solve one SPD Toeplitz system");
  tab.header({"n", "blockSchur(ms=16)", "classicSchur", "levinson", "blockLevinson(m=4)", "denseCholesky"});
  for (long n = 256; n <= nmax; n *= 2) {
    toeplitz::BlockToeplitz t = toeplitz::kms(n, 0.7);
    std::vector<double> b = toeplitz::rhs_for_ones(t);
    std::vector<double> row(static_cast<std::size_t>(n));
    for (la::index_t j = 0; j < n; ++j) row[static_cast<std::size_t>(j)] = t.entry(0, j);

    double t_bs = 0, t_cs = 0, t_lev = 0, t_blev = 0, t_dense = 0;
    {
      const double t0 = util::wall_seconds();
      core::SchurOptions opt;
      opt.block_size = 16;
      core::SchurFactor f = core::block_schur_factor(t, opt);
      std::vector<double> x = core::solve_spd(f, b);
      t_bs = util::wall_seconds() - t0;
    }
    {
      const double t0 = util::wall_seconds();
      std::vector<double> x = baseline::classic_schur_solve(row, b);
      t_cs = util::wall_seconds() - t0;
    }
    {
      const double t0 = util::wall_seconds();
      std::vector<double> x = baseline::levinson_solve(row, b);
      t_lev = util::wall_seconds() - t0;
    }
    {
      toeplitz::BlockToeplitz t4 = t.with_block_size(4);
      const double t0 = util::wall_seconds();
      std::vector<double> x = baseline::block_levinson_solve(t4, b);
      t_blev = util::wall_seconds() - t0;
    }
    if (n <= 1024) {  // dense O(n^3) + O(n^2) memory: keep it sane
      const double t0 = util::wall_seconds();
      la::Mat dense = t.dense();
      std::vector<double> x = baseline::dense_spd_solve(dense.view(), b);
      t_dense = util::wall_seconds() - t0;
    }
    tab.row({static_cast<long long>(n), t_bs, t_cs, t_lev, t_blev,
             n <= 1024 ? util::Cell(t_dense) : util::Cell(std::string("-"))});
  }
  tab.precision(4);
  tab.print(std::cout);
  util::PerfReport report("bench_crossover");
  report.param("nmax", static_cast<std::int64_t>(nmax));
  report.metric("time_s", util::wall_seconds() - run_t0);
  report.add_table(tab);
  obs.finish(report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("bench_crossover", run, argc, argv);
}
