// Google-benchmark microbenchmarks of the dense kernel substrate: the
// shape-dependent BLAS3 rates that drive the paper's block-size tradeoff
// (section 6.5: "BLAS3 primitives applied to matrices with larger
// dimensions have sufficient performance advantage...").
//
// Besides the google-benchmark timings, main() runs a self-timed
// packed-vs-seed sweep (squares up to 1024 plus the Schur panel shapes)
// whose GF/s land as named metrics in BENCH_kernels.json --
// gemm_packed_512_gflops, gemm_seed_512_gflops, ... -- so CI can gate the
// kernel stack against the pre-packing baseline without parsing benchmark
// output.  sweep_model_ratio cross-checks the flop counters against the
// closed-form models over the whole sweep (must stay within [0.9, 1.1] at
// any thread count; the kernels charge closed forms merged at join, so any
// drift means the counter plumbing broke).  A second, uncounted sweep rates
// the memory-bound O(n^2) kernels: trsv GB/s per (uplo, op) and the Direct
// MatVec residual.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_obs.h"
#include "bst.h"
#include "la/kernel_config.h"
#include "util/flops.h"
#include "util/table.h"

using namespace bst;

namespace {

const bool kFtz = [] {
  util::enable_flush_to_zero();
  return true;
}();

la::Mat random_matrix(la::index_t r, la::index_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Mat a(r, c);
  for (la::index_t j = 0; j < c; ++j)
    for (la::index_t i = 0; i < r; ++i) a(i, j) = rng.uniform(-1, 1);
  return a;
}

// Square gemm: rate vs dimension.
void BM_GemmSquare(benchmark::State& state) {
  const la::index_t n = state.range(0);
  la::Mat a = random_matrix(n, n, 1), b = random_matrix(n, n, 2), c(n, n);
  for (auto _ : state) {
    la::gemm(la::Op::None, la::Op::None, 1.0, a.view(), b.view(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["MFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmSquare)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// The algorithm's actual shape: small square (2m x 2m quadrant pieces)
// times a short-and-wide generator strip -- the "extreme shapes" the paper
// calls out on the Y-MP.
void BM_GemmShortWide(benchmark::State& state) {
  const la::index_t m = state.range(0);
  const la::index_t width = 4096;
  la::Mat a = random_matrix(m, m, 3), b = random_matrix(m, width, 4), c(m, width);
  for (auto _ : state) {
    la::gemm(la::Op::None, la::Op::None, 1.0, a.view(), b.view(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["MFLOP/s"] = benchmark::Counter(
      2.0 * m * m * width * state.iterations() / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmShortWide)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_Gemv(benchmark::State& state) {
  const la::index_t n = state.range(0);
  la::Mat a = random_matrix(n, n, 5);
  std::vector<double> x(static_cast<std::size_t>(n), 1.0), y(static_cast<std::size_t>(n));
  for (auto _ : state) {
    la::gemv(false, 1.0, a.view(), x.data(), 0.0, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["MFLOP/s"] = benchmark::Counter(
      2.0 * n * n * state.iterations() / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemv)->Arg(64)->Arg(256)->Arg(1024);

void BM_Cholesky(benchmark::State& state) {
  const la::index_t n = state.range(0);
  toeplitz::BlockToeplitz t = toeplitz::kms(n, 0.5);
  la::Mat dense = t.dense();
  la::Mat work(n, n);
  for (auto _ : state) {
    la::copy(dense.view(), work.view());
    benchmark::DoNotOptimize(la::cholesky_lower(work.view()));
  }
  state.counters["MFLOP/s"] = benchmark::Counter(
      n * n * n / 3.0 * state.iterations() / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Cholesky)->Arg(128)->Arg(256)->Arg(512);

// One block Schur step: build + apply for the working block size, the
// kernel mix the representation choice controls.
void BM_SchurStep(benchmark::State& state) {
  const la::index_t m = state.range(0);
  const auto rep = static_cast<core::Representation>(state.range(1));
  const la::index_t p = 4096 / m;
  toeplitz::BlockToeplitz t = toeplitz::kms(4096, 0.6).with_block_size(m);
  core::Generator g0 = core::make_generator_spd(t);
  core::Generator g = g0;
  core::SchurOptions opt;
  opt.rep = rep;
  for (auto _ : state) {
    state.PauseTiming();
    g.a = g0.a;
    g.b = g0.b;
    state.ResumeTiming();
    core::schur_step(g, 1, opt);
  }
  state.counters["flops/step"] =
      core::blocking_flops(rep, m, m) + core::application_flops(rep, m, p - 2, m);
}
BENCHMARK(BM_SchurStep)
    ->Args({8, 2})   // m=8, VY2
    ->Args({8, 3})   // m=8, YTY
    ->Args({8, 0})   // m=8, U
    ->Args({32, 2})
    ->Args({32, 3})
    ->Args({32, 0});

void BM_ToeplitzMatvecDirect(benchmark::State& state) {
  const la::index_t n = state.range(0);
  toeplitz::BlockToeplitz t = toeplitz::kms(n, 0.5);
  toeplitz::MatVec op(t, toeplitz::MatVecMode::Direct);
  std::vector<double> x(static_cast<std::size_t>(n), 1.0), y;
  for (auto _ : state) {
    op.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ToeplitzMatvecDirect)->Arg(1024)->Arg(4096);

void BM_ToeplitzMatvecFft(benchmark::State& state) {
  const la::index_t n = state.range(0);
  toeplitz::BlockToeplitz t = toeplitz::kms(n, 0.5);
  toeplitz::MatVec op(t, toeplitz::MatVecMode::Fft);
  std::vector<double> x(static_cast<std::size_t>(n), 1.0), y;
  for (auto _ : state) {
    op.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ToeplitzMatvecFft)->Arg(1024)->Arg(4096);

// ----- packed-vs-seed sweep -------------------------------------------------

double seconds_of(const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  fn();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

// Best-of rate in units of `work` per ns (GF/s for flops, GB/s for bytes):
// one warmup, then repeat until ~50 ms accumulated (at least two timed
// reps) and keep the fastest.
double best_rate(double work, const std::function<void()>& fn) {
  fn();  // warmup (packing buffers, page faults)
  double best = 0.0, total = 0.0;
  for (int rep = 0; rep < 16 && (rep < 2 || total < 0.05); ++rep) {
    const double s = seconds_of(fn);
    total += s;
    if (s > 0.0) best = std::max(best, work / s * 1e-9);
  }
  return best;
}

// The sweep CI gates on: packed (public la::gemm, active KernelConfig,
// global pool) against the seed baseline (detail::gemm_seed) over squares
// and the Schur generator-panel shapes, plus syrk/trsm rates.  Returns the
// closed-form flop total the charging kernels should have counted.
double run_kernel_sweep(util::PerfReport& report) {
  util::Table table("kernel sweep: packed vs seed (GF/s)");
  table.header({"kernel", "shape", "packed", "seed", "ratio"});
  double modeled = 0.0;

  for (const la::index_t n : {64, 128, 256, 512, 1024}) {
    la::Mat a = random_matrix(n, n, 11), b = random_matrix(n, n, 12), c(n, n);
    const double flops = 2.0 * n * n * n;
    const double packed = best_rate(flops, [&] {
      la::gemm(la::Op::None, la::Op::None, 1.0, a.view(), b.view(), 0.0, c.view());
      modeled += flops;
    });
    const double seed = best_rate(flops, [&] {
      la::detail::gemm_seed(la::Op::None, la::Op::None, 1.0, a.view(), b.view(), 0.0, c.view());
    });
    report.metric("gemm_packed_" + std::to_string(n) + "_gflops", packed);
    report.metric("gemm_seed_" + std::to_string(n) + "_gflops", seed);
    table.row({std::string("gemm"), std::to_string(n) + "x" + std::to_string(n),
               packed, seed, seed > 0 ? packed / seed : 0.0});
  }

  // Schur hot shapes: the Y^T [A; B] panel product (2m x m)^T (2m x L).
  const la::index_t width = 2048;
  for (const la::index_t m : {1, 2, 4, 8, 16}) {
    la::Mat y = random_matrix(2 * m, m, 13), g = random_matrix(2 * m, width, 14);
    la::Mat c(m, width);
    const double flops = 2.0 * m * width * (2 * m);
    const double packed = best_rate(flops, [&] {
      la::gemm(la::Op::Trans, la::Op::None, 1.0, y.view(), g.view(), 0.0, c.view());
      modeled += flops;
    });
    const double seed = best_rate(flops, [&] {
      la::detail::gemm_seed(la::Op::Trans, la::Op::None, 1.0, y.view(), g.view(), 0.0, c.view());
    });
    report.metric("gemm_schur_m" + std::to_string(m) + "_gflops", packed);
    table.row({std::string("gemm^T"), std::to_string(2 * m) + "x" + std::to_string(width),
               packed, seed, seed > 0 ? packed / seed : 0.0});
  }

  {
    const la::index_t n = 512, k = 256;
    la::Mat a = random_matrix(n, k, 15), c(n, n);
    const double flops = static_cast<double>(n) * (n + 1) * k;  // as charged
    const double rate = best_rate(flops, [&] {
      la::syrk_lower(1.0, a.view(), 0.0, c.view());
      modeled += flops;
    });
    report.metric("syrk_512_gflops", rate);
    table.row({std::string("syrk"), std::string("512x512,k=256"), rate, 0.0, 0.0});
  }

  {
    const la::index_t m = 512, cols = 256;
    la::Mat t = random_matrix(m, m, 16);
    for (la::index_t j = 0; j < m; ++j) t(j, j) = 4.0 + t(j, j);
    la::Mat b = random_matrix(m, cols, 17);
    la::Mat x(m, cols);
    const double flops = static_cast<double>(cols) * m * m;  // as charged
    const double rate = best_rate(flops, [&] {
      la::copy(b.view(), x.view());
      la::trsm(la::Side::Left, la::Uplo::Lower, la::Op::None, la::Diag::NonUnit, 1.0, t.view(),
               x.view());
      modeled += flops;
    });
    report.metric("trsm_512_gflops", rate);
    table.row({std::string("trsm"), std::string("512x512,rhs=256"), rate, 0.0, 0.0});
  }

  table.precision(4);
  report.add_table(table);
  return modeled;
}

// The O(n^2) layers of a Schur solve, kept out of run_kernel_sweep so their
// charges do not enter sweep_model_ratio.  trsv at n = 2048 for each
// (uplo, op), in GB/s of the triangle read once (8 n(n+1)/2 bytes): CI
// requires each no-transpose sweep to reach half the rate of its
// transposed sweep, which a row-oriented loop at stride n does not.  Direct
// MatVec, in GF/s of its 2 n^2 flops, on the shapes of the refinement
// residuals: scalar n = 1024, and 4 x 4 and 16 x 16 blocks.
void run_memory_sweep(util::PerfReport& report) {
  util::Table table("O(n^2) layers: trsv (GB/s), Direct MatVec (GF/s)");
  table.header({"kernel", "shape", "rate"});
  {
    const la::index_t n = 2048;
    la::Mat t = random_matrix(n, n, 18);  // each solve reads one triangle
    for (la::index_t j = 0; j < n; ++j) t(j, j) = static_cast<double>(n);
    const la::Mat b = random_matrix(n, 1, 19);
    std::vector<double> x(static_cast<std::size_t>(n));
    const double bytes = 8.0 * static_cast<double>(n) * static_cast<double>(n + 1) / 2.0;
    for (const la::Uplo uplo : {la::Uplo::Upper, la::Uplo::Lower}) {
      for (const la::Op op : {la::Op::None, la::Op::Trans}) {
        const double gbps = best_rate(bytes, [&] {
          std::copy(b.data(), b.data() + n, x.begin());
          la::trsv(uplo, op, la::Diag::NonUnit, t.view(), x.data());
        });
        const std::string combo = std::string(uplo == la::Uplo::Upper ? "upper" : "lower") +
                                  (op == la::Op::None ? "_none" : "_trans");
        report.metric("trsv_" + combo + "_2048_gbps", gbps);
        table.row({"trsv " + combo, std::string("2048"), gbps});
      }
    }
  }
  for (const auto& [m, p] : {std::pair<la::index_t, la::index_t>{1, 1024}, {4, 128}, {16, 240}}) {
    const toeplitz::BlockToeplitz t = toeplitz::random_spd_block(m, p, 4, 20);
    const toeplitz::MatVec op(t, toeplitz::MatVecMode::Direct);
    const std::vector<double> x(static_cast<std::size_t>(m * p), 1.0);
    std::vector<double> y;
    const double n = static_cast<double>(m * p);
    const double gflops = best_rate(2.0 * n * n, [&] { op.apply(x, y); });
    const std::string shape = "m" + std::to_string(m) + "_p" + std::to_string(p);
    report.metric("matvec_direct_" + shape + "_gflops", gflops);
    table.row({std::string("matvec direct"), shape, gflops});
  }
  table.precision(4);
  report.add_table(table);
}

}  // namespace

namespace {

// Custom main (instead of benchmark::benchmark_main) so the shared
// observability flags work here too: google-benchmark's Initialize strips
// the flags it recognises and leaves ours in argv.
int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::Obs obs(cli);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  util::PerfReport report("bench_kernels");
  const la::KernelConfig& cfg = la::KernelConfig::active();
  report.param("threads", static_cast<std::int64_t>(util::ThreadPool::global().size()));
  report.param("kernel_mc", static_cast<std::int64_t>(cfg.mc));
  report.param("kernel_kc", static_cast<std::int64_t>(cfg.kc));
  report.param("kernel_nc", static_cast<std::int64_t>(cfg.nc));
  report.param("kernel_simd",
               static_cast<std::int64_t>(cfg.simd && la::cpu_has_avx2_fma() ? 1 : 0));
  const std::uint64_t flops0 = util::FlopCounter::now();
  const double modeled = run_kernel_sweep(report);
  const double counted = static_cast<double>(util::FlopCounter::now() - flops0);
  report.metric("sweep_model_ratio", modeled > 0 ? counted / modeled : 0.0);
  run_memory_sweep(report);
  obs.finish(report);
  obs.write_default_json(report, "BENCH_kernels.json");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("bench_kernels", run, argc, argv);
}
