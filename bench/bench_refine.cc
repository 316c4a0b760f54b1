// Reproduces the paper's section 8 experiment: solving symmetric Toeplitz
// systems with singular principal minors via the perturbed factorization
// plus iterative refinement.
//
//  * Table 1: the worked 6x6 example (first row eq. 50): the perturbed
//    pivot, ||dT T^-1||, and the error trajectory
//    ||x - x_1|| ~ 3.6e-5  ->  ~7.0e-10  ->  ~1.6e-14 (machine precision).
//  * Table 2: random singular-minor families: perturbation counts and
//    refinement steps ("typically two steps are sufficient").
#include <cmath>
#include <iostream>

#include "bench_obs.h"
#include "bst.h"

using namespace bst;

namespace {

double err(const std::vector<double>& x, const std::vector<double>& ref) {
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += (x[i] - ref[i]) * (x[i] - ref[i]);
  return std::sqrt(s);
}

void paper_example(util::PerfReport& report) {
  toeplitz::BlockToeplitz t = toeplitz::paper_example_6x6();
  core::IndefiniteOptions opt;
  opt.delta = 1e-5;  // cbrt(1e-16), the paper's choice
  core::LdlFactor f = core::block_schur_indefinite(t, opt);

  std::cout << "worked example: first row (1.0000 1.0000 0.5297 0.6711 0.0077 0.3834)\n";
  for (const auto& e : f.perturbations) {
    std::cout << "  perturbation at step " << e.step << ": pivot " << e.old_pivot << " -> ";
    printf("%.13f (paper: 1.0000049999875)\n", std::fabs(e.new_pivot));
  }

  // ||dT T^-1||: dT = R^T D R - T.
  const la::index_t n = 6;
  la::Mat dr(n, n);
  la::copy(f.r.view(), dr.view());
  for (la::index_t j = 0; j < n; ++j)
    for (la::index_t i = 0; i < n; ++i) dr(i, j) *= f.d[static_cast<std::size_t>(i)];
  la::Mat rec(n, n);
  la::gemm(la::Op::Trans, la::Op::None, 1.0, f.r.view(), dr.view(), 0.0, rec.view());
  la::Mat dense = t.dense();
  la::Mat dt(n, n);
  for (la::index_t j = 0; j < n; ++j)
    for (la::index_t i = 0; i < n; ++i) dt(i, j) = rec(i, j) - dense(i, j);
  // dT T^-1 row by row: T X^T = dT^T (T symmetric), solved with the
  // refined solver itself -- T has a singular principal minor, so the
  // unpivoted dense LDL^T cannot be used here.
  double gamma = 0.0;
  {
    toeplitz::MatVec op(t, toeplitz::MatVecMode::Direct);
    auto fsolve = [&](const std::vector<double>& rhs, std::vector<double>& out) {
      out = core::solve_ldl(f, rhs);
    };
    la::Mat x(n, n);
    for (la::index_t j = 0; j < n; ++j) {
      std::vector<double> col(static_cast<std::size_t>(n));
      for (la::index_t i = 0; i < n; ++i) col[static_cast<std::size_t>(i)] = dt(j, i);
      core::RefineResult rr = core::solve_refined(op, fsolve, col);
      for (la::index_t i = 0; i < n; ++i) x(j, i) = rr.x[static_cast<std::size_t>(i)];
    }
    gamma = la::frobenius(x.view());
  }
  printf("  ||dT T^-1|| = %.4e   (paper: 2.8753e-05)\n", gamma);

  const std::vector<double> xtrue(6, 1.0);
  toeplitz::MatVec op(t, toeplitz::MatVecMode::Direct);
  std::vector<double> b;
  op.apply(xtrue, b);

  util::Table tab("Error trajectory ||x - x_i|| under iterative refinement");
  tab.header({"i", "||x - x_i||", "paper"});
  std::vector<double> x = core::solve_ldl(f, b);
  tab.row({1LL, err(x, xtrue), std::string("3.6375e-05")});
  std::vector<double> r(6), dx;
  const char* paper_vals[] = {"6.9982e-10", "1.5877e-14"};
  for (int it = 0; it < 2; ++it) {
    op.residual(b, x, r);
    dx = core::solve_ldl(f, r);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += dx[i];
    tab.row({static_cast<long long>(it + 2), err(x, xtrue), std::string(paper_vals[it])});
  }
  tab.precision(5);
  tab.print(std::cout);
  report.add_table(tab);
}

void family_table(la::index_t n, int seeds, util::PerfReport& report) {
  util::Table tab("Random singular-minor Toeplitz systems (n = " + std::to_string(n) + ")");
  tab.header({"seed", "perturbations", "interchanges", "refine steps", "final rel err"});
  for (int seed = 1; seed <= seeds; ++seed) {
    toeplitz::BlockToeplitz t =
        toeplitz::singular_minor_family(n, static_cast<std::uint64_t>(seed));
    core::LdlFactor f = core::block_schur_indefinite(t);
    std::vector<double> b = toeplitz::rhs_for_ones(t);
    toeplitz::MatVec op(t, toeplitz::MatVecMode::Direct);
    core::RefineResult res = core::solve_refined(
        op,
        [&](const std::vector<double>& rhs, std::vector<double>& out) {
          out = core::solve_ldl(f, rhs);
        },
        b);
    const std::vector<double> ones(static_cast<std::size_t>(n), 1.0);
    tab.row({static_cast<long long>(seed), static_cast<long long>(f.perturbations.size()),
             static_cast<long long>(f.interchanges), static_cast<long long>(res.iterations),
             err(res.x, ones) / std::sqrt(static_cast<double>(n))});
  }
  tab.precision(3);
  tab.print(std::cout);
  report.add_table(tab);
  std::cout << "paper: \"typically two steps of iterative refinement are sufficient\"\n";
}

int run(int argc, char** argv) {
  util::enable_flush_to_zero();
  util::Cli cli(argc, argv);
  bench::Obs obs(cli);
  util::PerfReport report("bench_refine");
  report.param("n", cli.get_int("n", 64));
  report.param("n2", cli.get_int("n2", 256));
  report.param("seeds", cli.get_int("seeds", 10));
  const double run_t0 = util::wall_seconds();
  std::cout << "# bench_refine: singular-minor perturbation + iterative refinement "
               "(paper section 8)\n";
  paper_example(report);
  family_table(cli.get_int("n", 64), cli.get_int32("seeds", 10), report);
  family_table(cli.get_int("n2", 256), cli.get_int32("seeds", 10), report);
  report.metric("time_s", util::wall_seconds() - run_t0);
  obs.finish(report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("bench_refine", run, argc, argv);
}
