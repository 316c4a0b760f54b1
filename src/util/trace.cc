#include "util/trace.h"

#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "util/flight_recorder.h"
#include "util/metrics.h"
#include "util/prof.h"
#include "util/watchdog.h"

namespace bst::util {
namespace {

thread_local std::int64_t t_current_step = 0;

// The name registry: one fixed table per NameKind.  Both globals are
// constant-initialized (constinit), so interning works from any
// translation unit's namespace-scope initializers regardless of load order.
struct KindTable {
  char names[kNameSlots][kMaxNameLen + 1];
  std::atomic<int> count;
};

constinit KindTable g_names[4]{};
constinit std::mutex g_names_mu;

KindTable& table(NameKind kind) noexcept { return g_names[static_cast<int>(kind)]; }

std::mutex& steps_mu() {
  static std::mutex mu;
  return mu;
}

std::vector<StepDiag>& step_log() {
  static std::vector<StepDiag> log;
  return log;
}

}  // namespace

thread_local std::uint64_t ByteCounter::count_ = 0;

std::atomic<bool> Tracer::enabled_{false};

int intern_name(NameKind kind, const std::string& name) {
  if (name.size() > kMaxNameLen) {
    throw std::length_error("name '" + name + "' is longer than 47 characters");
  }
  KindTable& t = table(kind);
  std::lock_guard lock(g_names_mu);
  const int n = t.count.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    if (name == t.names[i]) return i;
  }
  if (n == kNameSlots) return -1;
  std::memcpy(t.names[n], name.c_str(), name.size() + 1);
  // The release store publishes the slot written above to lock-free readers.
  t.count.store(n + 1, std::memory_order_release);
  return n;
}

int interned_count(NameKind kind) noexcept {
  return table(kind).count.load(std::memory_order_acquire);
}

const char* interned_name(NameKind kind, int id) noexcept {
  if (id < 0 || id >= interned_count(kind)) return nullptr;
  return table(kind).names[id];
}

PhaseId Tracer::phase(const std::string& name) {
  const int id = intern_name(NameKind::kPhase, name);
  if (id < 0) throw std::length_error("Tracer: phase registry full (kMaxPhases)");
  return id;
}

std::vector<std::string> Tracer::phase_names() {
  const int n = interned_count(NameKind::kPhase);
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) names.emplace_back(table(NameKind::kPhase).names[id]);
  return names;
}

void Tracer::reset() {
  {
    std::lock_guard lock(steps_mu());
    step_log().clear();
  }
  Metrics::reset();  // the phase records live there
  Watchdog::reset();
  FlightRecorder::reset();
  Prof::reset();
}

void Tracer::set_step(std::int64_t step) noexcept { t_current_step = step; }

std::int64_t Tracer::current_step() noexcept { return t_current_step; }

void Tracer::record_step(std::int64_t step, double min_hnorm, double max_generator) {
  if (!enabled()) return;
  std::lock_guard lock(steps_mu());
  step_log().push_back({step, min_hnorm, max_generator});
}

std::vector<PhaseStats> Tracer::snapshot() {
  std::vector<PhaseStats> out;
  const int n = interned_count(NameKind::kPhase);
  for (PhaseId id = 0; id < n; ++id) {
    const PhaseRecord& r = phase_record(id);
    const std::uint64_t calls = r.ns.count.load(std::memory_order_relaxed);
    if (calls == 0) continue;
    auto pmu = [&](int i) { return r.pmu[i].load(std::memory_order_relaxed); };
    PhaseStats ps;
    ps.name = table(NameKind::kPhase).names[id];
    ps.calls = calls;
    ps.seconds = static_cast<double>(r.ns.sum.load(std::memory_order_relaxed)) * 1e-9;
    ps.flops = r.flops.load(std::memory_order_relaxed);
    ps.bytes = r.bytes.load(std::memory_order_relaxed);
    ps.pmu_spans = r.pmu_spans.load(std::memory_order_relaxed);
    ps.pmu = {pmu(0), pmu(1), pmu(2), pmu(3), pmu(4), pmu(5), pmu(6), pmu(7)};
    out.push_back(std::move(ps));
  }
  sort_by_name(out);
  return out;
}

std::vector<StepDiag> Tracer::steps() {
  std::lock_guard lock(steps_mu());
  return step_log();
}

std::uint64_t TraceClock::now_ns() noexcept {
  using clock = std::chrono::steady_clock;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now().time_since_epoch())
          .count());
}

void TraceSpan::open(PhaseId id) noexcept {
  id_ = id;
  flops0_ = FlopCounter::now();
  bytes0_ = ByteCounter::now();
  t0_ = TraceClock::now_ns();
  if (FlightRecorder::enabled()) FlightRecorder::begin(id_, t0_, flops0_, bytes0_);
  if (Prof::armed()) Prof::on_span_open(id_);
}

void TraceSpan::close() noexcept {
  // PMU delta first, so the hardware window excludes the bookkeeping below
  // (the wall-time window symmetrically excludes the open()-side PMU read).
  if (Prof::armed()) Prof::on_span_close(id_);
  const std::uint64_t t1 = TraceClock::now_ns();
  const std::uint64_t dflops = FlopCounter::now() - flops0_;
  const std::uint64_t dbytes = ByteCounter::now() - bytes0_;
  if (id_ < Tracer::kMaxPhases) phase_record(id_).charge(t1 - t0_, dflops, dbytes);
  if (FlightRecorder::enabled()) FlightRecorder::end(id_, t1, dflops, dbytes);
}

}  // namespace bst::util
