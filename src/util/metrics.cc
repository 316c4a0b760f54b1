#include "util/metrics.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

#include "util/watchdog.h"

namespace bst::util {
namespace {

HistogramCells g_named[Metrics::kMaxHistograms];
PhaseRecord g_phases[Tracer::kMaxPhases];

// Named monotonic counters (padded: unrelated counters on one cache line
// would make every fetch-add a false-sharing miss under concurrent use).
struct alignas(64) CtrSlot {
  std::atomic<std::uint64_t> value{0};
};
CtrSlot g_counters[Metrics::kMaxCounters];

// Gauges share the counter slot layout but hold signed readings.
struct alignas(64) GaugeSlot {
  std::atomic<std::int64_t> value{0};
};
GaugeSlot g_gauges[Metrics::kMaxGauges];

// Registrations refused because a kMax* table was full, plus the one-shot
// latch for the registry-full watchdog warning.  Deliberately outside the
// slot tables: the drop count must survive exactly the condition that
// exhausted them.
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<bool> g_full_warned{false};

// Counts the refused registration and announces the saturation once per
// reset.  The warning rides the normal watchdog channel (report "warnings"
// section + flight-recorder instant), so it is gated on Tracer::enabled()
// like every other warning; the counter records unconditionally.
//
// Runs after intern_name() has released the registry mutex: Watchdog::warn
// bumps the `watchdog_warnings` counter, which re-enters Metrics::counter
// (and Tracer::phase, when the flight recorder is on).  The
// thread_local guard breaks the one remaining cycle -- warn's own counter
// registration overflowing a full table must not warn again.
int register_dropped(const char* kind, int cap) {
  g_dropped.fetch_add(1, std::memory_order_relaxed);
  static thread_local bool in_warn = false;
  if (!in_warn && !g_full_warned.exchange(true, std::memory_order_relaxed)) {
    in_warn = true;
    Watchdog::warn(std::string("metrics_registry_full:") + kind, 0,
                   static_cast<double>(g_dropped.load(std::memory_order_relaxed)),
                   static_cast<double>(cap));
    in_warn = false;
  }
  return -1;
}

}  // namespace

void HistogramCells::record(std::uint64_t v) noexcept {
  count.fetch_add(1, std::memory_order_relaxed);
  sum.fetch_add(v, std::memory_order_relaxed);
  buckets[hist_bucket(v)].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t cur = min.load(std::memory_order_relaxed);
  while (v < cur && !min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max.load(std::memory_order_relaxed);
  while (v > cur && !max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void HistogramCells::reset() noexcept {
  count.store(0, std::memory_order_relaxed);
  sum.store(0, std::memory_order_relaxed);
  min.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max.store(0, std::memory_order_relaxed);
  for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
}

HistogramStats HistogramCells::stats(std::string name) const {
  HistogramStats out;
  out.name = std::move(name);
  out.count = count.load(std::memory_order_relaxed);
  out.sum = sum.load(std::memory_order_relaxed);
  out.min = min.load(std::memory_order_relaxed);
  out.max = max.load(std::memory_order_relaxed);
  for (int b = 0; b < kHistBuckets; ++b) {
    const std::uint64_t c = buckets[b].load(std::memory_order_relaxed);
    if (c != 0) out.buckets.emplace_back(hist_bucket_lo(b), c);
  }
  out.p50 = out.quantile(0.50);
  out.p95 = out.quantile(0.95);
  out.p99 = out.quantile(0.99);
  return out;
}

PhaseRecord& phase_record(PhaseId id) noexcept { return g_phases[id]; }

int hist_bucket(std::uint64_t v) noexcept {
  if (v < kHistSubBuckets) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);  // >= 2 here
  const int sub = static_cast<int>((v >> (msb - 2)) & 3);
  return kHistSubBuckets * (msb - 1) + sub;
}

double hist_bucket_lo(int b) noexcept {
  if (b < kHistSubBuckets) return static_cast<double>(b);
  const int msb = b / kHistSubBuckets + 1;
  const int sub = b % kHistSubBuckets;
  return static_cast<double>(4 + sub) * std::exp2(static_cast<double>(msb - 2));
}

double hist_bucket_hi(int b) noexcept {
  if (b < kHistSubBuckets) return static_cast<double>(b + 1);
  const int msb = b / kHistSubBuckets + 1;
  const int sub = b % kHistSubBuckets;
  return static_cast<double>(5 + sub) * std::exp2(static_cast<double>(msb - 2));
}

double HistogramStats::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank target, then linear interpolation inside the bucket.
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto [lo, c] = buckets[i];
    const double next = cum + static_cast<double>(c);
    if (next >= target || i + 1 == buckets.size()) {
      const double hi = hist_bucket_hi(hist_bucket(static_cast<std::uint64_t>(lo)));
      const double frac = (c == 0) ? 0.0 : std::clamp((target - cum) / static_cast<double>(c), 0.0, 1.0);
      // Clamp into the recorded range so tiny histograms stay sensible.
      return std::clamp(lo + frac * (hi - lo), static_cast<double>(min), static_cast<double>(max));
    }
    cum = next;
  }
  return static_cast<double>(max);
}

HistId Metrics::histogram(const std::string& name) {
  const int id = intern_name(NameKind::kHistogram, name);
  return id >= 0 ? id : register_dropped("histogram", kMaxHistograms);
}

void Metrics::record(HistId id, std::uint64_t value) noexcept {
  if (id < 0 || id >= kMaxHistograms) return;
  g_named[id].record(value);
}

std::vector<HistogramStats> Metrics::snapshot() {
  std::vector<HistogramStats> out;
  for (HistId id = 0; id < interned_count(NameKind::kHistogram); ++id) {
    if (g_named[id].count.load(std::memory_order_relaxed) == 0) continue;
    out.push_back(g_named[id].stats(interned_name(NameKind::kHistogram, id)));
  }
  for (PhaseId id = 0; id < interned_count(NameKind::kPhase); ++id) {
    const HistogramCells& ns = g_phases[id].ns;
    if (ns.count.load(std::memory_order_relaxed) == 0) continue;
    out.push_back(ns.stats(std::string(interned_name(NameKind::kPhase, id)) + "_ns"));
  }
  sort_by_name(out);
  return out;
}

CtrId Metrics::counter(const std::string& name) {
  const int id = intern_name(NameKind::kCounter, name);
  return id >= 0 ? id : register_dropped("counter", kMaxCounters);
}

void Metrics::add(CtrId id, std::uint64_t delta) noexcept {
  if (id < 0 || id >= kMaxCounters) return;
  g_counters[id].value.fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t Metrics::counter_value(CtrId id) noexcept {
  if (id < 0 || id >= kMaxCounters) return 0;
  return g_counters[id].value.load(std::memory_order_relaxed);
}

std::vector<CounterStats> Metrics::counters_snapshot() {
  std::vector<CounterStats> out;
  for (CtrId id = 0; id < interned_count(NameKind::kCounter); ++id) {
    const std::uint64_t v = g_counters[id].value.load(std::memory_order_relaxed);
    if (v != 0) out.push_back({interned_name(NameKind::kCounter, id), v});
  }
  // Saturated registries must not disappear from reports: surface the drop
  // count as a synthetic counter that cannot itself be dropped.
  const std::uint64_t dropped = g_dropped.load(std::memory_order_relaxed);
  if (dropped != 0) out.push_back({"metrics_dropped", dropped});
  sort_by_name(out);
  return out;
}

GaugeId Metrics::gauge(const std::string& name) {
  const int id = intern_name(NameKind::kGauge, name);
  return id >= 0 ? id : register_dropped("gauge", kMaxGauges);
}

void Metrics::gauge_set(GaugeId id, std::int64_t value) noexcept {
  if (id < 0 || id >= kMaxGauges) return;
  g_gauges[id].value.store(value, std::memory_order_relaxed);
}

void Metrics::gauge_add(GaugeId id, std::int64_t delta) noexcept {
  if (id < 0 || id >= kMaxGauges) return;
  g_gauges[id].value.fetch_add(delta, std::memory_order_relaxed);
}

std::int64_t Metrics::gauge_value(GaugeId id) noexcept {
  if (id < 0 || id >= kMaxGauges) return 0;
  return g_gauges[id].value.load(std::memory_order_relaxed);
}

std::vector<GaugeStats> Metrics::gauges_snapshot() {
  std::vector<GaugeStats> out;
  for (GaugeId id = 0; id < interned_count(NameKind::kGauge); ++id) {
    // Zero is kept: an empty queue is a reading, not a non-event.
    out.push_back({interned_name(NameKind::kGauge, id),
                   g_gauges[id].value.load(std::memory_order_relaxed)});
  }
  sort_by_name(out);
  return out;
}

std::uint64_t Metrics::dropped() {
  return g_dropped.load(std::memory_order_relaxed);
}

void Metrics::reset() {
  for (auto& s : g_named) s.reset();
  for (PhaseRecord& r : g_phases) {
    r.ns.reset();
    r.flops.store(0, std::memory_order_relaxed);
    r.bytes.store(0, std::memory_order_relaxed);
    r.pmu_spans.store(0, std::memory_order_relaxed);
    for (auto& v : r.pmu) v.store(0, std::memory_order_relaxed);
  }
  for (auto& s : g_counters) s.value.store(0, std::memory_order_relaxed);
  for (auto& s : g_gauges) s.value.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_full_warned.store(false, std::memory_order_relaxed);
}

}  // namespace bst::util
