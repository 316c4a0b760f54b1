// Metrics: named log-bucketed latency/size histograms, counters and gauges.
//
// The aggregate per-phase totals of util/trace.h answer "where did the time
// go"; the histograms here answer "what was the *distribution*" -- the shape
// over time the paper's per-step cost analysis (eqs. 25-32) is really about.
// A phase whose p99 drifts while its mean holds steady is invisible to the
// Tracer's accumulators but jumps out of a percentile summary.
//
// Design, mirroring the Tracer:
//   * Names are interned once into the one name registry (util/trace.h,
//     kMaxHistograms slots per kind); recording is a relaxed atomic
//     increment into a log-bucketed count array indexed by id (no locks,
//     no allocation on the hot path).
//   * Buckets are logarithmic with 4 linear sub-buckets per octave, so the
//     relative bucket width is at most 25% over the full uint64 range and
//     values 0..3 are exact.  Percentiles are estimated by linear
//     interpolation inside the containing bucket (error bounded by the
//     bucket width; pinned by tests/test_histogram.cc).
//   * Recording is NOT internally gated: call sites gate on
//     util::Tracer::enabled() (every existing site already has the flag in
//     hand), keeping the disabled cost identical to the rest of the layer.
//
// Alongside the explicitly named histograms, every trace phase gets an
// implicit `<phase>_ns` latency histogram fed by TraceSpan, so per-step
// reflector build/apply latency distributions come for free wherever spans
// already exist.  That histogram lives in the phase's PhaseRecord below,
// next to the phase's flops, bytes and PMU deltas; its count and sum are
// the phase's calls and wall time.  Snapshots land in the perf report's
// "histograms" section (docs/OBSERVABILITY.md).
//
// Three accumulator kinds share the name registry:
//   * histograms -- "what was the distribution" (latencies, sizes);
//   * counters   -- monotonic "how often did it happen" event counts;
//   * gauges     -- "how much right now": set/add semantics for live state
//     (queue depth, inflight requests, cache resident bytes, dispatcher
//     backlog age).  Unlike counters they go up AND down, and a snapshot
//     reports every registered gauge -- zero is a meaningful reading.
// The live-telemetry exporter (util/telemetry.h) snapshots all three on a
// timer; reports embed them as "histograms"/"counters"/"gauges" sections.
//
// No silent caps: registering past a kMax* table simply disables that one
// instrument (its id is invalid, records no-op) -- but the drop is counted
// in the synthetic `metrics_dropped` counter and announced once through a
// `metrics_registry_full` watchdog warning, so a saturated registry is
// visible in every report instead of vanishing (or aborting the run, as
// the old throwing behaviour did).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/trace.h"

namespace bst::util {

/// Stable identifier of an interned histogram name.
using HistId = int;

/// Stable identifier of an interned counter name.
using CtrId = int;

/// Stable identifier of an interned gauge name.
using GaugeId = int;

/// Log-bucket geometry: 4 sub-buckets per power of two.
inline constexpr int kHistSubBuckets = 4;
/// Total bucket count covering the full uint64 range (values 0..3 map to
/// buckets 0..3; larger values to 4*(msb-1) + sub, msb in [2, 63]).
inline constexpr int kHistBuckets = 252;

/// Bucket index containing `v` (total order preserved across buckets).
[[nodiscard]] int hist_bucket(std::uint64_t v) noexcept;
/// Inclusive lower / exclusive upper bound of bucket `b`.
[[nodiscard]] double hist_bucket_lo(int b) noexcept;
[[nodiscard]] double hist_bucket_hi(int b) noexcept;

/// Copied-out state of one histogram (only non-empty buckets are listed).
struct HistogramStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  std::vector<std::pair<double, std::uint64_t>> buckets;  // {lower bound, count}

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Interpolated quantile for q in [0, 1] (0 when empty).
  [[nodiscard]] double quantile(double q) const;
};

/// Lock-free accumulators of one histogram.  Min/max use CAS loops
/// (updates are rare once the range has been seen); bucket counts are
/// relaxed fetch-adds.
struct HistogramCells {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max{0};
  std::atomic<std::uint64_t> buckets[kHistBuckets] = {};

  void record(std::uint64_t v) noexcept;
  void reset() noexcept;
  [[nodiscard]] HistogramStats stats(std::string name) const;
};

/// Everything a span charges to its phase, kept once: TraceSpan::close
/// records the latency, flops and bytes, and Prof::on_span_close adds the
/// span's PMU deltas (in PmuCounts field order).  Tracer::snapshot reads
/// calls and seconds from `ns`'s count and sum; Metrics::snapshot lists
/// `ns` as `<phase>_ns`.
struct alignas(64) PhaseRecord {
  HistogramCells ns;
  std::atomic<std::uint64_t> flops{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> pmu_spans{0};
  std::atomic<std::uint64_t> pmu[kPmuCounters] = {};

  void charge(std::uint64_t wall_ns, std::uint64_t dflops, std::uint64_t dbytes) noexcept {
    ns.record(wall_ns);
    flops.fetch_add(dflops, std::memory_order_relaxed);
    bytes.fetch_add(dbytes, std::memory_order_relaxed);
  }
};

/// The record of phase `id`, 0 <= id < Tracer::kMaxPhases.
PhaseRecord& phase_record(PhaseId id) noexcept;

/// Orders snapshot entries by name (every snapshot returns name order).
template <typename Stats>
void sort_by_name(std::vector<Stats>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Stats& x, const Stats& y) { return x.name < y.name; });
}

/// Copied-out state of one named counter.
struct CounterStats {
  std::string name;
  std::uint64_t value = 0;
};

/// Copied-out state of one named gauge (signed: gauges go down too).
struct GaugeStats {
  std::string name;
  std::int64_t value = 0;
};

/// Process-wide histograms, counters and gauges (accumulators live for the
/// process).
class Metrics {
 public:
  /// Interns `name`, returning its id (idempotent).  Once kMaxHistograms
  /// distinct names exist further registrations return an invalid id whose
  /// records no-op, bump the `metrics_dropped` counter and fire a one-shot
  /// `metrics_registry_full` watchdog warning (no silent caps).  A name
  /// longer than kMaxNameLen throws std::length_error.
  static HistId histogram(const std::string& name);

  /// Adds one sample.  Lock-free; callers gate on Tracer::enabled().
  static void record(HistId id, std::uint64_t value) noexcept;

  /// Copies out every histogram with at least one sample -- the named ones
  /// and the per-phase `<phase>_ns` ones -- in name order.
  static std::vector<HistogramStats> snapshot();

  /// Interns a monotonic event counter (idempotent; same overflow contract
  /// as histogram()).  Histograms answer "what was the distribution";
  /// counters answer "how often did it happen" -- cache hits/misses/
  /// evictions, admissions, rejections (src/service).
  static CtrId counter(const std::string& name);

  /// Adds `delta` to the counter.  Lock-free and NOT gated on the tracer:
  /// like the thread-pool chunk counts, event counts always accumulate
  /// (one relaxed fetch-add; there is no per-event allocation to avoid).
  static void add(CtrId id, std::uint64_t delta = 1) noexcept;

  /// Current value of one counter (0 for an invalid id).
  static std::uint64_t counter_value(CtrId id) noexcept;

  /// Copies out every counter with a non-zero value, in name order,
  /// including a synthetic `metrics_dropped` entry when any registration
  /// overflowed a kMax* table.  Lands in the perf report's "counters"
  /// section (additive, schema v1).
  static std::vector<CounterStats> counters_snapshot();

  /// Interns a gauge (idempotent; same overflow contract as histogram()).
  /// Gauges carry instantaneous state -- set() for absolute readings
  /// (queue depth after a push), add() for +/- deltas (inflight requests).
  static GaugeId gauge(const std::string& name);

  /// Stores `value` / adds `delta`.  Lock-free, never gated on the tracer:
  /// gauges mirror live service state, which exists whether or not a
  /// profiled run is watching.
  static void gauge_set(GaugeId id, std::int64_t value) noexcept;
  static void gauge_add(GaugeId id, std::int64_t delta) noexcept;

  /// Current reading of one gauge (0 for an invalid id).
  static std::int64_t gauge_value(GaugeId id) noexcept;

  /// Copies out every registered gauge (zero readings included -- an empty
  /// queue is a measurement), in name order.
  static std::vector<GaugeStats> gauges_snapshot();

  /// Registrations refused because a kMax* table was full (the value the
  /// synthetic `metrics_dropped` counter reports).
  static std::uint64_t dropped();

  /// Zeroes every accumulator (the phase records included) and the drop
  /// count, and re-arms the one-shot registry-full warning (names/ids are
  /// preserved).
  static void reset();

  static constexpr int kMaxHistograms = kNameSlots;
  static constexpr int kMaxCounters = kNameSlots;
  static constexpr int kMaxGauges = kNameSlots;
};

}  // namespace bst::util
