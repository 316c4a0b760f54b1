// Hardware-truth profiling: per-phase PMU counters + a sampling profiler.
//
// Everything else in the observability layer is *self*-instrumented: spans
// measure wall time, the flop/byte counters are modeled operand counts, and
// the attainment section judges them against calibrated ceilings.  This
// layer asks the hardware what actually happened, two ways:
//
//   1. PMU counters per phase.  When armed, every thread lazily opens two
//      perf_event counter groups on itself (core: cycles, instructions,
//      stalled cycles, branch misses; mem: L1d and LLC loads + misses) and
//      TraceSpan boundaries snapshot them, so each phase accumulates
//      hardware deltas next to its modeled flops/bytes.  The report's
//      phases then carry measured IPC and miss rates, and `measured_bytes`
//      (LLC misses x 64-byte lines, a DRAM-traffic estimate) joins the
//      modeled byte count in the attainment section as
//      `measured_intensity` / `measured_vs_model_bytes_ratio`.
//   2. A sampling profiler.  An ITIMER_PROF timer delivers SIGPROF to
//      whichever thread is burning CPU; the handler captures a backtrace
//      into a per-thread flight-recorder-style ring together with the
//      active phase (from the span stack this layer maintains) and the
//      active `req:<id>` (set by the service dispatcher, the same ids the
//      crashbox request table carries).  Samples export as folded stacks
//      (flamegraph-ready, self-symbolized via dladdr) and as a Perfetto/
//      chrome-trace file with per-thread sample tracks and a PMU counter
//      track.
//
// Degradation contract: perf_event_open is denied in most containers and
// CI runners (perf_event_paranoid, seccomp).  That must never fail a run:
// the PMU side records its status ("unavailable: ..."), reports omit the
// hardware columns, and the software-only sampler keeps working.  Nothing
// here throws on the hot path.
//
// Cost: disarmed, the TraceSpan hooks are one relaxed load + branch (same
// contract as the Tracer).  Armed, each span boundary pays two read(2)
// calls on the perf fds (~1-2 us); sampling costs ~est_sample_cost_ns per
// sample, reported against the 3% observability budget in the "prof"
// report section.  docs/OBSERVABILITY.md ("Profiling") has the full story.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/report.h"
#include "util/trace.h"

namespace bst::util {

/// Copied-out sampler state.
struct SamplerStats {
  bool enabled = false;          // a sampling timer was started this run
  std::uint64_t interval_us = 0;
  std::uint64_t samples = 0;     // captured (including ones later overwritten)
  std::uint64_t dropped = 0;     // thread-table overflow + ring wrap-around
  std::uint64_t threads = 0;     // distinct threads that recorded samples
  std::uint64_t est_sample_cost_ns = 0;  // measured at start()
};

/// Knobs, layered flags-over-environment like the telemetry options.
struct ProfOptions {
  bool pmu = true;                 // open perf_event counter groups
  std::uint64_t sample_hz = 197;   // SIGPROF rate; 0 = sampling off
  std::string out_prefix = "prof"; // artifacts: <prefix>.folded, <prefix>.samples.json

  /// BST_PROF_PMU (switch; 0 disables the PMU side), BST_PROF_HZ (0 ..
  /// 10000; 0 = sampling off), BST_PROF_OUT, read through util/env.h: a bad
  /// value throws std::runtime_error naming the variable.  BST_PROF itself
  /// (switch; 1 arms) is the whole-profiler arm switch the bench harness
  /// and bst_solve honor; it lands in `armed_by_env`.
  static ProfOptions from_env();
  bool armed_by_env = false;
};

/// Process-wide profiler facade.  arm()/disarm() bracket a profiled run;
/// the TraceSpan hooks and the report builder do the rest.
class Prof {
 public:
  /// One relaxed load: the whole layer costs a branch while disarmed.
  static bool armed() noexcept;

  /// Arms the profiler: opens (lazily, per thread) the PMU groups when
  /// opt.pmu, starts the SIGPROF sampler when opt.sample_hz > 0, and
  /// registers the live pmu_ipc_milli / pmu_llc_miss_permille gauges.
  /// Idempotent; never throws -- failures land in pmu_status().
  static void arm(const ProfOptions& opt);

  /// Stops the sampling timer and detaches the span hooks.  Accumulated
  /// data stays readable (reports are built after disarm()).
  static void disarm();

  /// True once arm() ran, surviving disarm() until reset(): the report
  /// builder uses this to decide whether a "prof" section belongs.
  static bool was_armed() noexcept;

  /// TraceSpan hooks (called by util/trace.cc while armed): maintain the
  /// per-thread span stack the sampler attributes against and add each
  /// span's PMU counter deltas to its phase's record (util/metrics.h), which
  /// Tracer::snapshot() reads back as PhaseStats::pmu.
  static void on_span_open(PhaseId id) noexcept;
  static void on_span_close(PhaseId id) noexcept;

  /// PMU availability: resolved by the first thread that tries to open a
  /// group.  status() is "ok", "disabled", "off" (never requested) or
  /// "unavailable: <reason>".
  static bool pmu_available() noexcept;
  static std::string pmu_status();

  /// Tags the calling thread's samples with a request id (0 = none); the
  /// service dispatcher sets this to the batch it is serving, matching the
  /// ids in the crashbox active-request table.
  static void set_request(std::uint64_t id) noexcept;

  static SamplerStats sampler_stats() noexcept;

  /// Folded flamegraph stacks ("root;...;leaf count" lines), symbolized
  /// via dladdr at export time.  Empty when no samples were captured.
  static std::string folded_stacks();

  /// The report's "prof" section: pmu status + sampler stats + the top
  /// folded stacks (so a report stays self-contained without the artifact
  /// files).  Deterministic key order.
  static Json section_json();

  /// Writes <prefix>.folded and <prefix>.samples.json (Perfetto/chrome
  /// trace with sample + counter tracks) when any samples exist.  Returns
  /// the paths written (empty strings otherwise).  Call after disarm().
  struct Artifacts {
    std::string folded;
    std::string perfetto;
  };
  static Artifacts write_artifacts();

  /// Zeroes the live-gauge PMU totals, drops samples and clears
  /// was_armed() (called by Tracer::reset(), which zeroes the per-phase PMU
  /// deltas with the phase records; thread fds stay open).
  static void reset() noexcept;

  static constexpr int kMaxSpanDepth = 24;   // nested-span attribution stack
  static constexpr int kMaxStackFrames = 20; // pcs kept per sample
};

}  // namespace bst::util
