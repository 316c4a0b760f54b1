// Event flight recorder: per-thread rings of begin/end/instant records with
// a Perfetto / chrome://tracing JSON exporter.
//
// The Tracer (util/trace.h) accumulates *totals*; the flight recorder keeps
// the individual events, so a run can be opened in Perfetto's chrome-trace
// mode and read as a timeline: every reflector build/apply span per Schur
// step per thread/PE, with its flop/byte deltas, plus instant markers for
// numerical-health warnings (util/watchdog.h).
//
// Design:
//   * One fixed-capacity ring per recording thread.  The owning thread is
//     the only writer, so recording is lock-free: a plain slot write plus a
//     release store of the head index.  The registry of rings takes a mutex
//     only on a thread's *first* event.
//   * Overflow wraps: the ring keeps the most recent `capacity` events and
//     counts the drops, an End whose Begin was overwritten included.  The
//     exporter re-balances (such an End, or a Begin still open at snapshot,
//     is dropped) so the emitted chrome trace always has matched B/E pairs
//     per tid.
//   * One reader for every ring: the live snapshot and the crash-dump
//     decoder (util/postmortem.h) both yield ThreadEvents, walked by
//     walk_spans() and written by the one chrome-trace writer.
//   * Enabled alongside the Tracer (TraceSpan emits begin/end events when
//     both are on); `bst_solve --trace=out.json` and the bench_fig*
//     `--trace=` flag wire it up.  Disabled cost: one relaxed load + branch
//     on the paths that already test Tracer::enabled().
//   * Rings live for the process (a few MB per recording thread at the
//     default capacity); reset()/snapshot() expect no concurrently open
//     spans, like Tracer::reset().
//
// The trace-file format is documented in docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/trace.h"

namespace bst::util {

enum class EventKind : std::uint8_t {
  kBegin,    // span opened: a/b hold the thread's flop/byte counters
  kEnd,      // span closed: a/b hold the span's flop/byte deltas
  kInstant,  // point event (watchdog warning): a/b hold value/threshold bits
};

/// One flight-recorder record (POD; 48 bytes).
struct FlightEvent {
  std::uint64_t ts_ns = 0;   // steady-clock (or virtual) timestamp
  std::int64_t step = 0;     // Schur step index (Tracer::current_step())
  std::uint64_t a = 0;       // kind-dependent payload (see EventKind)
  std::uint64_t b = 0;
  PhaseId phase = -1;        // interned name (Tracer::phase registry)
  EventKind kind = EventKind::kBegin;
  std::int32_t peer = -1;    // message partner PE (simnet spans; -1 = none)

  bool operator==(const FlightEvent&) const = default;
};

/// One thread's ring, oldest event first: a live snapshot or a ring decoded
/// from a crash dump.
struct ThreadEvents {
  std::uint32_t tid = 0;            // dense recorder-assigned id
  std::uint64_t dropped = 0;        // wrap-lost events + unmatched_ends
  std::uint64_t unmatched_ends = 0; // Ends whose Begin was overwritten by wrap
  std::uint64_t torn = 0;           // dumped events the decoder found garbled
  std::string label;                // display name ("pe:<k>"; "" = unnamed)
  bool virtual_time = false;        // virtual_track(): ts is virtual, zero-based
  std::vector<FlightEvent> events;
};

/// The Begin/End structure of a ring, from one walk: every End pops the
/// innermost open Begin.
struct SpanWalk {
  std::vector<bool> paired;          // per event: a Begin or End that matched
  std::vector<std::size_t> open;     // Begins never closed, outermost first
  std::uint64_t unmatched_ends = 0;  // Ends with no open Begin (lost to wrap)
};
[[nodiscard]] SpanWalk walk_spans(const std::vector<FlightEvent>& events);

/// Counts `te`'s Ends whose Begin was lost into unmatched_ends and folds
/// them into dropped: an End without its Begin is a lost span, not just an
/// unmatched token.  Both the live snapshot and the crash decoder call it.
void count_unmatched_ends(ThreadEvents& te);

/// Names a phase id for the chrome-trace writer.
using PhaseNamer = std::function<std::string(PhaseId)>;

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;  // events per thread

  /// Turns recording on.  `capacity` sets the per-thread ring size (rounded
  /// up to 2); changing it clears existing rings.  Call with no concurrent
  /// recorders (same contract as Tracer::reset()).
  static void enable(std::size_t capacity = kDefaultCapacity);
  static void disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }
  static bool enabled() noexcept { return enabled_.load(std::memory_order_relaxed); }

  /// Clears every ring (tids are preserved; capacity is unchanged).
  static void reset();

  /// Records a span begin/end for the calling thread (no-ops off).
  static void begin(PhaseId phase, std::uint64_t ts_ns, std::uint64_t flops_now,
                    std::uint64_t bytes_now) noexcept;
  static void end(PhaseId phase, std::uint64_t ts_ns, std::uint64_t dflops,
                  std::uint64_t dbytes) noexcept;

  /// Records an instant marker (watchdog warnings; no-ops off).
  static void instant(PhaseId phase, std::int64_t step, double value,
                      double threshold) noexcept;

  /// Names the calling thread's track in the exported trace (chrome-trace
  /// "thread_name" metadata).  The SPMD runtime labels its PE threads
  /// "pe:<k>" so threaded runs read as per-PE timelines.
  static void label_thread(const std::string& label);

  /// Registers (or finds) a *virtual* track: a ring owned by no thread,
  /// used to replay simulated per-PE schedules (util/par_analysis.h) with
  /// virtual timestamps.  One writer at a time per track.
  static std::uint32_t virtual_track(const std::string& label);

  /// Registers (or finds) an unowned *real-time* track with its own fixed
  /// ring capacity, exempt from enable()'s capacity reassignment.  Used for
  /// the per-request "req:<id>" tracks (src/service): each request emits a
  /// handful of spans, so a tiny ring per track keeps thousands of tracks
  /// cheap.  Timestamps are steady-clock, so the exporter rebases these
  /// alongside the owned per-thread rings.  One writer at a time per track.
  static std::uint32_t track(const std::string& label, std::size_t capacity);

  /// Appends one balanced begin/end pair to a virtual or unowned track.
  /// `bytes` and `peer` land in the end event's payload.
  static void virtual_span(std::uint32_t tid, PhaseId phase, std::int64_t step,
                           std::uint64_t t0_ns, std::uint64_t t1_ns, std::uint64_t bytes,
                           std::int32_t peer);

  /// The calling thread's recorder tid (registers the ring on first use).
  /// util/stallguard captures it at heartbeat registration so the monitor
  /// can name a stalled thread's open span.
  static std::uint32_t current_tid();

  /// Name of the deepest still-open span in `tid`'s ring window, or "" when
  /// none is open (or the tid is unknown).  Takes the registry mutex; meant
  /// for the stallguard monitor, not hot paths.
  static std::string open_span_name(std::uint32_t tid);

  /// Copies out every thread's ring, oldest-first per thread.
  static std::vector<ThreadEvents> snapshot();

  /// Async-signal-safe raw dump of every ring to `fd` for the crashbox
  /// handler (util/crashbox.h): per-ring header lines followed by the raw
  /// FlightEvent bytes, oldest-first.  Walks a lock-free mirror of the
  /// registry (no mutex, no allocation) while other threads may still be
  /// recording, so individual events can be torn -- the decoder
  /// (util/postmortem.h) validates, skips and counts garbage records.
  static void unsafe_dump(int fd) noexcept;

  /// Writes the chrome-trace ("traceEvents") JSON document of `threads`,
  /// naming phases through `phase_name`.  Unmatched events are dropped so
  /// every emitted tid has balanced B/E pairs -- except that, with
  /// `open_at_crash`, a Begin still open is emitted as a "<phase> (open at
  /// crash)" instant (bst_postmortem --trace shows where a thread died).
  static void write_chrome_trace(std::ostream& os, const std::vector<ThreadEvents>& threads,
                                 const PhaseNamer& phase_name, bool open_at_crash);

  /// The live trace: snapshot() named by the phase registry, open spans
  /// dropped.  The path form throws std::runtime_error when the path cannot
  /// be opened.
  static void write_chrome_trace(std::ostream& os);
  static void write_chrome_trace(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

}  // namespace bst::util
