// Live telemetry: a periodic exporter that turns the process-global
// Metrics accumulators into continuously observable signals.
//
// Everything observability built so far (reports, traces, the ledger) is
// post-hoc -- written once, after the run.  A long-running service::Service
// needs the opposite: current queue depth, hit rate, tail latency, and SLO
// burn-rate *while it serves*, cheap enough to leave on in production.
//
// Three layers, separable on purpose:
//
//   * TelemetrySnapshot / telemetry_capture(): one timestamped copy of every
//     counter, gauge, and histogram (util/metrics.h).  Pure data.
//   * The pure serializers telemetry_tick_json() and prometheus_exposition():
//     deterministic functions of (snapshot, derived stats) -- same inputs,
//     byte-identical output, section entries in name order.  Tested without
//     any thread or clock (tests/test_telemetry.cc).
//   * TelemetryExporter: the background thread.  Every interval_ms it
//     captures a snapshot, derives rolling-window QPS/p50/p99/burn-rate from
//     the window of recent snapshots, appends one JSONL tick to `out`, and
//     atomically rewrites `prom` (write tmp + rename) in Prometheus text
//     exposition format for pull-based scrapers.  A final tick is emitted on
//     stop(), so short runs always leave at least one observation.
//
// Rolling-window statistics come from *bucket deltas* between the oldest and
// newest snapshot in the window: the log-bucketed histograms are monotone
// accumulators, so subtracting per-bucket counts yields the distribution of
// exactly the window's samples, and quantiles/burn-rate follow from the
// existing interpolation.  Burn-rate is the SRE error-budget form: the
// fraction of window requests slower than the SLO target, divided by the
// budget (1 - 0.99) -- burn_rate > 1 means the p99 budget is being spent
// faster than it accrues.
//
// Self-overhead is measured, not assumed: every tick accumulates its own
// wall time, and both outputs carry uptime vs. telemetry-self seconds so the
// 3% observability budget (util/calibrate.h) is checkable from the stream
// alone (the telemetry-smoke CI job gates on it).
//
// Environment (TelemetryOptions::from_env, read through util/env.h; the
// accepted ranges are in docs/API.md):
//   BST_TELEMETRY_INTERVAL_MS  tick period in ms, 10 .. 86400000 (default 1000)
//   BST_TELEMETRY_OUT          JSONL tick stream path (append; unset = off)
//   BST_TELEMETRY_PROM         Prometheus exposition path (unset = off)
//   BST_SLO_P99_MS             SLO latency target for burn-rate, > 0 (default 100)
//   BST_TELEMETRY_WINDOW       rolling window length in ticks, >= 1 (default 10)
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.h"

namespace bst::util {

/// Exporter configuration (see the header comment for the env knobs).
struct TelemetryOptions {
  std::uint64_t interval_ms = 1000;  // tick period
  std::string out;                   // JSONL tick stream ("" = off)
  std::string prom;                  // Prometheus exposition file ("" = off)
  double slo_p99_ms = 100.0;         // SLO latency target for burn-rate
  std::size_t window_ticks = 10;     // rolling window length
  /// Counter whose rate is reported as QPS and histogram whose window
  /// quantiles become p50/p99 (defaults match the service layer).
  std::string qps_counter = "service_completed";
  std::string latency_hist = "service_request_ns";

  /// Applies the BST_TELEMETRY_* / BST_SLO_* variables that are set on top
  /// of `base`; a value outside its range throws std::runtime_error naming
  /// the variable (util/env.h).
  static TelemetryOptions from_env(TelemetryOptions base);
  static TelemetryOptions from_env() { return from_env(TelemetryOptions{}); }

  /// True when at least one output is configured.
  [[nodiscard]] bool active() const { return !out.empty() || !prom.empty(); }
};

/// One timestamped copy of every Metrics accumulator, each section in name
/// order (as Metrics' snapshots return them).
struct TelemetrySnapshot {
  std::uint64_t ts_ns = 0;  // TraceClock stamp at capture
  std::vector<CounterStats> counters;
  std::vector<GaugeStats> gauges;
  std::vector<HistogramStats> histograms;
};

/// Captures the current Metrics state (counters incl. the synthetic
/// `metrics_dropped`, all gauges, every non-empty histogram).
[[nodiscard]] TelemetrySnapshot telemetry_capture(std::uint64_t ts_ns);

/// Rolling-window statistics derived from the (oldest, newest) snapshot
/// pair of the exporter's window.
struct TelemetryDerived {
  double window_s = 0.0;        // wall span of the window
  std::uint64_t window_count = 0;  // latency samples inside the window
  double qps = 0.0;             // qps_counter delta / window_s
  double p50_ms = 0.0;          // window latency quantiles (0 when empty)
  double p99_ms = 0.0;
  double slo_p99_ms = 0.0;      // the target the burn-rate is against
  double bad_fraction = 0.0;    // window requests slower than the SLO
  double burn_rate = 0.0;       // bad_fraction / (1 - 0.99)
};

/// Derives window stats from the two snapshots (pure; `oldest` and `newest`
/// may be the same snapshot, yielding an all-zero window).
[[nodiscard]] TelemetryDerived telemetry_derive(const TelemetrySnapshot& oldest,
                                                const TelemetrySnapshot& newest,
                                                const TelemetryOptions& opt);

/// One compact JSONL tick line (no trailing newline).  Deterministic:
/// counters/gauges/histograms are emitted in the snapshot's (name) order.
[[nodiscard]] std::string telemetry_tick_json(std::uint64_t seq,
                                              const TelemetrySnapshot& snap,
                                              const TelemetryDerived& d,
                                              double uptime_s, double self_s);

/// The Prometheus text-exposition document for one snapshot: counters as
/// `bst_<name>_total`, gauges as `bst_<name>`, histograms as summaries with
/// quantile labels, plus the derived series (bst_qps, bst_p50_ms, bst_p99_ms,
/// bst_burn_rate, bst_uptime_seconds, bst_telemetry_self_seconds).  Metric
/// names are sanitized to [a-zA-Z0-9_:]; entries sorted by name; every
/// family gets `# HELP` + `# TYPE` lines (tools/check_telemetry.py gates
/// both).
[[nodiscard]] std::string prometheus_exposition(const TelemetrySnapshot& snap,
                                                const TelemetryDerived& d,
                                                double uptime_s, double self_s);

/// Escapes a Prometheus label *value*: backslash, double quote, and newline
/// become \\ \" \n per the text-exposition format, so third-party scrapers
/// parse labels carrying arbitrary interned names.
[[nodiscard]] std::string prom_escape_label(const std::string& value);

/// The background exporter thread.  Construction does not start it; start()
/// is a no-op when !opt.active().  stop() (or destruction) emits one final
/// tick and joins.
class TelemetryExporter {
 public:
  explicit TelemetryExporter(TelemetryOptions opt = TelemetryOptions::from_env());
  ~TelemetryExporter();
  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  void start();
  void stop();

  [[nodiscard]] bool running() const;
  /// Ticks emitted so far / exporter self-time spent producing them.
  [[nodiscard]] std::uint64_t ticks() const;
  [[nodiscard]] double self_seconds() const;

  [[nodiscard]] const TelemetryOptions& options() const noexcept { return opt_; }

 private:
  void run();
  void tick(std::uint64_t seq);

  TelemetryOptions opt_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::uint64_t ticks_ = 0;
  double self_s_ = 0.0;
  std::uint64_t start_ns_ = 0;
  std::vector<TelemetrySnapshot> window_;  // oldest first
  std::thread thread_;
};

}  // namespace bst::util
