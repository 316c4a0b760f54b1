// Structured tracing: named phase counters + RAII spans.
//
// The paper's performance argument is phase-structured -- it attributes the
// cost of a Schur step to building the block reflector (eqs. 25-28) versus
// applying it (eqs. 29-32), and its distributed analysis splits time into
// compute / broadcast / shift buckets.  This layer lets the real code carry
// the same structure: a TraceSpan charges the wall time, flops and bytes of
// a region to a named phase, and the accumulated per-phase totals (plus
// optional per-step numerical diagnostics) feed the JSON perf reports of
// util/report.h.
//
// Design constraints:
//   * A disabled tracer costs one relaxed atomic load + branch per span --
//     cheap enough to leave spans permanently in the hot paths.
//   * Accumulation is thread-safe: spans may open and close on pool workers
//     or SPMD threads; totals land in per-phase relaxed atomics.
//   * Spans are *inclusive*: a span nested inside another charges its phase
//     AND remains part of the outer span's elapsed time/flops.  Phase totals
//     therefore only sum to end-to-end time across non-overlapping phases.
//   * Flops/bytes are read from the thread-local FlopCounter/ByteCounter, so
//     a span only observes work charged on its own thread.  Regions that
//     fan out to a pool must open the span inside the worker callback (see
//     core/schur.cc) rather than around the parallel_for.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/flops.h"

namespace bst::util {

/// Thread-local estimate of bytes moved by the la/ kernels (operand reads +
/// writes per call, not cache-aware), mirroring FlopCounter.  Together with
/// the flop totals this gives per-phase arithmetic intensity.
class ByteCounter {
 public:
  static void charge(std::uint64_t n) noexcept { count_ += n; }
  static std::uint64_t now() noexcept { return count_; }
  static void reset() noexcept { count_ = 0; }

 private:
  static thread_local std::uint64_t count_;
};

/// Stable identifier of an interned phase name.
using PhaseId = int;

/// The four kinds of interned name: trace phases here, histograms, counters
/// and gauges in util/metrics.h.
enum class NameKind : int { kPhase, kHistogram, kCounter, kGauge };

/// One registry holds every interned name: per kind, a fixed table of
/// kNameSlots slots of kMaxNameLen characters plus a NUL, and a count
/// published with release order after the slot is written.  Appends take
/// one mutex; readers (snapshots, the flight-recorder exporter, the
/// profiler and the crash handler) read the slots with no lock.  The
/// storage is constant-initialized, so namespace-scope initializers in any
/// translation unit may intern.  Names live for the process.
inline constexpr int kNameSlots = 64;
inline constexpr std::size_t kMaxNameLen = 47;

/// Interns `name` under `kind`, returning its id (idempotent: same name,
/// same id), or -1 when the kind's kNameSlots slots are full.  A name
/// longer than kMaxNameLen throws std::length_error.
int intern_name(NameKind kind, const std::string& name);

/// Names interned under `kind` so far; ids are 0 .. count-1.  Lock-free.
int interned_count(NameKind kind) noexcept;

/// The name of `id`, or nullptr when no such id exists.  Lock-free and
/// async-signal-safe; the pointer stays valid for the process.
const char* interned_name(NameKind kind, int id) noexcept;

/// The steady clock every observability layer shares (nanoseconds).
struct TraceClock {
  static std::uint64_t now_ns() noexcept;
};

/// One thread-and-interval's worth of scaled hardware counter readings
/// (util/prof.h).  Multiplex scaling (time_enabled / time_running) is
/// already applied; counters whose event could not be opened stay 0.
struct PmuCounts {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t stalled_cycles = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t l1d_loads = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t llc_loads = 0;
  std::uint64_t llc_misses = 0;
};

/// PmuCounts' fields, in declaration order.
inline constexpr int kPmuCounters = 8;

/// Accumulated totals of one phase (a snapshot; see Tracer::snapshot).
struct PhaseStats {
  std::string name;
  std::uint64_t calls = 0;    // completed spans
  double seconds = 0.0;       // summed wall time (inclusive)
  std::uint64_t flops = 0;    // flops charged on the span's thread
  std::uint64_t bytes = 0;    // bytes charged on the span's thread
  std::uint64_t pmu_spans = 0;  // spans that contributed a PMU delta (util/prof.h)
  PmuCounts pmu;                // summed PMU deltas of those spans
};

/// Per-step numerical diagnostics (Bojanczyk/Brent/de Hoog-style stability
/// monitoring): the smallest |hyperbolic norm| met while building the
/// step's reflectors, and the generator's max-magnitude entry afterwards
/// (growth relative to Generator::norm_g1 is left to the consumer).
struct StepDiag {
  std::int64_t step = 0;
  double min_hnorm = 0.0;
  double max_generator = 0.0;
};

/// Process-wide tracer: named phases, each with one lock-free record
/// (util/metrics.h, PhaseRecord) of everything its spans charge.
///
/// Typical call-site pattern (the static local interns the name once):
///
///   static const util::PhaseId kBuild = util::Tracer::phase("reflector_build");
///   { util::TraceSpan span(kBuild); bref.build(p, q); }
class Tracer {
 public:
  /// Tracing costs nothing (beyond this test) while disabled.
  static bool enabled() noexcept { return enabled_.load(std::memory_order_relaxed); }
  static void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  static void disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }

  /// Interns `name`, returning its id (idempotent: same name, same id).
  /// Phases live for the process; there is room for kMaxPhases distinct
  /// names, after which phase() throws std::length_error (as it does for a
  /// name longer than kMaxNameLen).
  static PhaseId phase(const std::string& name);

  /// Every interned phase name, indexed by PhaseId (read without a lock).
  static std::vector<std::string> phase_names();

  /// Zeroes every accumulator and drops recorded step diagnostics, and
  /// resets the rest of the observability layer with it -- histograms
  /// (util/metrics.h), warnings (util/watchdog.h) and flight-recorder rings
  /// (util/flight_recorder.h) -- so one call arms a clean profiled run.
  /// Registries (phase and histogram names) are preserved; ids stay valid.
  static void reset();

  /// Thread-local Schur step index attached to flight-recorder events
  /// (set by the factorization drivers at the top of each step; workers
  /// set it inside their callbacks).
  static void set_step(std::int64_t step) noexcept;
  static std::int64_t current_step() noexcept;

  /// Records a per-step diagnostic (no-op while disabled).
  static void record_step(std::int64_t step, double min_hnorm, double max_generator);

  /// Copies out every phase with at least one closed span, in name order.
  /// `calls` and `seconds` are the count and sum of the phase's `<phase>_ns`
  /// histogram: one record holds both.
  static std::vector<PhaseStats> snapshot();

  /// Copies out the recorded per-step diagnostics (ordered by record time).
  static std::vector<StepDiag> steps();

  static constexpr int kMaxPhases = kNameSlots;

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span: charges the enclosed wall time and the flops/bytes charged on
/// this thread to the given phase.  When the tracer is disabled both the
/// constructor and destructor reduce to a relaxed load + branch.  While
/// enabled, closing a span records once into the phase's record (its
/// `<phase>_ns` latency histogram plus flops and bytes) and, when the
/// flight recorder is on, emits begin/end timeline events
/// (util/flight_recorder.h).
class TraceSpan {
 public:
  explicit TraceSpan(PhaseId id) noexcept {
    if (!Tracer::enabled()) return;
    open(id);
  }
  ~TraceSpan() {
    if (id_ < 0) return;
    close();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void open(PhaseId id) noexcept;   // out of line: touches the recorder
  void close() noexcept;            // out of line: phase record + event

  PhaseId id_ = -1;  // -1: tracer was disabled at construction
  std::uint64_t t0_ = 0;
  std::uint64_t flops0_ = 0;
  std::uint64_t bytes0_ = 0;
};

}  // namespace bst::util
