// SLO benchmark for the batched solver service (docs/SERVICE.md).
//
// Four phases on one repeated-key workload (same matrix, distinct RHS):
//
//   1. no-cache baseline: synchronous solve() on a cache-disabled service,
//      i.e. every request pays a full factorization -- what a caller
//      without the service would do;
//   2. cached throughput: async submit() of every request into the warm
//      service, drain, wall-clock QPS.  The acceptance gate is
//      qps_cached / qps_nocache >= 5 (factor-once/solve-many economics);
//   3. open-loop latency: requests arrive on a fixed schedule at half the
//      measured cached QPS, latency is measured completion - *scheduled*
//      arrival (not submit), so queue buildup is charged to the requests
//      that suffered it -- no coordinated omission.  p50/p99/p999 come
//      from the log-bucketed histogram machinery (util/metrics.h, <= 25%
//      relative bucket error);
//   4. solve cost by width, on a second warm service: the median of 200
//      synchronous one-column solve() calls (lone_solve_us) against the
//      median 32-column solve_many (batch32_solve_us).  A batch is solved
//      as exactly its columns, so a lone request costs a fraction of a
//      32-column one; a service that pads batches to whole panels would
//      bring the ratio back to about 1.
//
// Output: BENCH_service.json with qps_cached / qps_nocache /
// cache_speedup / hit_rate / p50_us / p99_us / p999_us / lone_solve_us /
// batch32_solve_us metrics and the phase-2/3 service's own stats under the
// "service" section.  CI gates on cache_speedup, on the percentile keys
// being present and on lone_solve_us <= 0.5 x batch32_solve_us
// (.github/workflows/ci.yml, observability-smoke job).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_obs.h"
#include "bst.h"

using namespace bst;

namespace {

// TraceClock-based wait until `sched_ns`: coarse sleep, then spin.
void wait_until_ns(std::uint64_t sched_ns) {
  for (;;) {
    const std::uint64_t now = util::TraceClock::now_ns();
    if (now >= sched_ns) return;
    const std::uint64_t left = sched_ns - now;
    if (left > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
    } else {
      std::this_thread::yield();
    }
  }
}

// Median wall time in microseconds of `reps` calls of `fn`.
double median_us(int reps, const std::function<void()>& fn) {
  std::vector<double> us(static_cast<std::size_t>(reps));
  for (double& v : us) {
    const double t0 = util::wall_seconds();
    fn();
    v = (util::wall_seconds() - t0) * 1e6;
  }
  std::nth_element(us.begin(), us.begin() + reps / 2, us.end());
  return us[static_cast<std::size_t>(reps / 2)];
}

std::vector<double> rhs_for(la::index_t n, int r) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (la::index_t i = 0; i < n; ++i) {
    b[static_cast<std::size_t>(i)] = std::sin(0.02 * static_cast<double>(i) + 0.3 * r);
  }
  return b;
}

int run(int argc, char** argv) {
  util::enable_flush_to_zero();
  util::Cli cli(argc, argv);
  const auto n = static_cast<la::index_t>(cli.get_int("n", 512));
  const int reqs = cli.get_int32("reqs", 2000);
  const int reqs_nocache = cli.get_int32("reqs-nocache", 50);
  const double openloop_frac = cli.get_double("openloop-frac", 0.5);

  bench::Obs obs(cli);
  const double bench_t0 = util::wall_seconds();
  std::cout << "# bench_service: factor-once/solve-many SLO bench, n=" << n << "\n";

  // Live telemetry: flags layer over the BST_TELEMETRY_* / BST_SLO_* env
  // (docs/OBSERVABILITY.md).  With an output configured the exporter ticks
  // for the whole bench, so `bst_top --stream=<out>` watches it live and
  // the telemetry-smoke CI job validates the Prometheus exposition.
  util::TelemetryOptions tel = util::TelemetryOptions::from_env();
  tel.out = cli.get("telemetry-out", tel.out);
  tel.prom = cli.get("telemetry-prom", tel.prom);
  tel.interval_ms = static_cast<std::uint64_t>(
      cli.get_int("telemetry-interval-ms", static_cast<long>(tel.interval_ms)));
  tel.slo_p99_ms = cli.get_double("slo-p99-ms", tel.slo_p99_ms);
  util::TelemetryExporter exporter(tel);
  exporter.start();

  toeplitz::BlockToeplitz t = toeplitz::kms(n, 0.7);
  service::ServiceOptions opt = service::ServiceOptions::from_env();

  // Phase 1: no-cache baseline -- every solve() refactors.
  double qps_nocache = 0.0;
  {
    service::ServiceOptions no_cache = opt;
    no_cache.cache_enabled = false;
    service::Service svc(no_cache);
    const double t0 = util::wall_seconds();
    for (int r = 0; r < reqs_nocache; ++r) svc.solve(t, rhs_for(n, r));
    qps_nocache = reqs_nocache / (util::wall_seconds() - t0);
  }

  // Phases 2 + 3 share one service so the open-loop phase runs warm.
  service::Service svc(opt);
  svc.solve(t, rhs_for(n, 0));  // warm the cache: the one and only miss

  double qps_cached = 0.0;
  {
    std::vector<std::future<service::SolveResult>> futs;
    futs.reserve(static_cast<std::size_t>(reqs));
    const double t0 = util::wall_seconds();
    for (int r = 0; r < reqs; ++r) futs.push_back(svc.submit(t, rhs_for(n, r)));
    for (auto& f : futs) f.get();
    qps_cached = reqs / (util::wall_seconds() - t0);
  }
  const double cache_speedup = qps_cached / qps_nocache;

  // Phase 3: open-loop arrivals at a fraction of the measured capacity.
  const double rate_qps = openloop_frac * qps_cached;
  const auto period_ns = static_cast<std::uint64_t>(1e9 / rate_qps);
  const util::HistId lat_hist = util::Metrics::histogram("service_openloop_ns");
  {
    std::vector<std::future<service::SolveResult>> futs;
    std::vector<std::uint64_t> sched(static_cast<std::size_t>(reqs));
    futs.reserve(static_cast<std::size_t>(reqs));
    const std::uint64_t start_ns = util::TraceClock::now_ns() + period_ns;
    for (int r = 0; r < reqs; ++r) {
      const std::uint64_t at = start_ns + static_cast<std::uint64_t>(r) * period_ns;
      sched[static_cast<std::size_t>(r)] = at;
      wait_until_ns(at);
      futs.push_back(svc.submit(t, rhs_for(n, r)));
    }
    for (int r = 0; r < reqs; ++r) {
      const service::SolveResult res = futs[static_cast<std::size_t>(r)].get();
      // Latency vs the *scheduled* arrival: a stalled dispatcher charges
      // the stall to every request scheduled during it.
      util::Metrics::record(lat_hist, res.done_ns - sched[static_cast<std::size_t>(r)]);
    }
  }
  svc.drain();

  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;
  for (const util::HistogramStats& h : util::Metrics::snapshot()) {
    if (h.name == "service_openloop_ns") {
      p50_us = h.quantile(0.5) / 1e3;
      p99_us = h.quantile(0.99) / 1e3;
      p999_us = h.quantile(0.999) / 1e3;
    }
  }
  const service::ServiceStats stats = svc.stats();

  // Phase 4: solve cost by width.  Its own service keeps the phase-2/3
  // stats (and the cache fill the fault-injection jobs count on) as they
  // were.
  double lone_us = 0.0, batch32_us = 0.0;
  {
    service::Service probe(opt);
    const std::vector<double> b1 = rhs_for(n, 1);
    probe.solve(t, b1);  // warm: the probe's only miss
    lone_us = median_us(200, [&] { probe.solve(t, b1); });
    la::Mat b32(n, 32);
    for (int r = 0; r < 32; ++r) {
      const std::vector<double> br = rhs_for(n, r);
      std::copy(br.begin(), br.end(), b32.view().col(r));
    }
    batch32_us = median_us(50, [&] { probe.solve_many(t, b32.view()); });
  }

  util::Table table("Service SLO summary");
  table.header({"qps_cached", "qps_nocache", "speedup", "hit_rate", "p50_us", "p99_us",
                "p999_us", "mean_batch"});
  table.row({qps_cached, qps_nocache, cache_speedup, stats.cache.hit_rate(), p50_us, p99_us,
             p999_us, stats.mean_batch()});
  table.precision(3);
  table.print(std::cout);

  util::PerfReport report("bench_service");
  report.param("n", static_cast<std::int64_t>(n));
  report.param("reqs", static_cast<std::int64_t>(reqs));
  report.param("reqs_nocache", static_cast<std::int64_t>(reqs_nocache));
  report.param("openloop_frac", openloop_frac);
  report.param("rhs_panel", static_cast<std::int64_t>(svc.options().rhs_panel));
  report.param("max_batch", static_cast<std::int64_t>(svc.options().max_batch));
  report.metric("time_s", util::wall_seconds() - bench_t0);
  report.metric("qps_cached", qps_cached);
  report.metric("qps_nocache", qps_nocache);
  report.metric("cache_speedup", cache_speedup);
  report.metric("hit_rate", stats.cache.hit_rate());
  report.metric("openloop_qps", rate_qps);
  report.metric("p50_us", p50_us);
  report.metric("p99_us", p99_us);
  report.metric("p999_us", p999_us);
  report.metric("lone_solve_us", lone_us);
  report.metric("batch32_solve_us", batch32_us);
  exporter.stop();  // final tick lands before the report reads its stats
  if (tel.active()) {
    report.metric("telemetry_ticks", static_cast<double>(exporter.ticks()));
    report.metric("telemetry_self_s", exporter.self_seconds());
  }
  report.set_extra("service", svc.stats_json());
  report.add_table(table);
  obs.finish(report);
  obs.write_default_json(report, "BENCH_service.json");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("bench_service", run, argc, argv);
}
