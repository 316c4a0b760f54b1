// Black-box crash reporting: an async-signal-safe handler that turns an
// abnormal termination into a decodable artifact.
//
// When a run dies on SIGSEGV/SIGABRT/SIGFPE/SIGBUS/SIGILL, everything the
// observability stack knows -- the live tick, the in-flight request table,
// the flight-recorder rings -- normally dies with the process.  Crashbox
// writes it out first, from inside the signal handler, using only
// async-signal-safe primitives (open/write/close, relaxed atomic loads on
// pre-registered state, and hand-rolled integer formatting -- no malloc, no
// mutexes, no stdio).  The report lands in `BST_CRASH_DIR/crash_<pid>.bstcrash`
// and `tools/bst_postmortem` decodes it back into human-readable form plus a
// Perfetto trace of the final rings.
//
// The layer is passive until installed: every hook below is a relaxed-load
// no-op when `BST_CRASH_DIR` is unset, so steady-state overhead stays inside
// the observability budget.  Everything the handler reads is lock-free:
// phase/counter/gauge names straight from the fixed slots of the name
// registry (util/trace.h), the last telemetry tick under a seqlock, active
// requests in a CAS slot table -- it never takes a mutex.
//
// Report format ("BSTCRASH v1") and usage: docs/OBSERVABILITY.md,
// "Post-mortem debugging".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace bst::util {

// Async-signal-safe write helpers: raw write(2) loops plus integer
// formatting with no allocation or stdio.  Shared by the crashbox handler
// and FlightRecorder::unsafe_dump.
namespace sigsafe {
void write_all(int fd, const void* data, std::size_t len) noexcept;
void write_str(int fd, const char* s) noexcept;
void write_u64(int fd, std::uint64_t v) noexcept;
void write_i64(int fd, std::int64_t v) noexcept;
}  // namespace sigsafe

/// Coarse lifecycle phase of an in-flight service request, as recorded in
/// the crash report's active-request table.
enum class ReqPhase : std::uint32_t {
  kQueued = 1,  // admitted, waiting for the dispatcher
  kFactor = 2,  // factorization (cache miss fill or sync factor)
  kSolve = 3,   // triangular solves / refinement
};
const char* req_phase_name(ReqPhase p) noexcept;

class Crashbox {
 public:
  static constexpr int kMaxRequests = 256;  // active-request slot table size

  /// Installs the signal handlers and arms the report path from
  /// `BST_CRASH_DIR`.  Returns false (and stays disarmed) when the variable
  /// is unset or empty.  Idempotent; safe to call from multiple subsystems.
  static bool install();

  /// Same, with an explicit directory (tests).  Re-arms the one-report
  /// latch, so a fresh install() can dump again in the same process.
  static bool install(const char* dir);

  static bool installed() noexcept;

  /// Full path the next report will be written to ("" when not installed).
  static std::string report_path();

  /// Publishes the latest telemetry tick line (util/telemetry.h calls this
  /// once per tick).  Single writer assumed; readers (the handler) tolerate
  /// a torn read and flag it in the report.
  static void set_last_tick(const char* data, std::size_t len) noexcept;

  /// Active-request table.  begin() claims a slot (-1 when disabled or the
  /// table is full -- the overflow is counted in the report, never silent);
  /// phase()/end() are no-ops on slot -1.
  static int request_begin(std::uint64_t id, ReqPhase phase) noexcept;
  static void request_phase(int slot, ReqPhase phase) noexcept;
  static void request_end(int slot) noexcept;

  /// Writes the report now.  `sig` 0 means a non-signal dump (stallguard
  /// escalation, tests); `reason` is a short free-text tag.  Returns false
  /// when not installed or a report was already written (one per process,
  /// re-armed by install()).  Async-signal-safe.
  static bool dump(int sig, const char* reason) noexcept;
};

}  // namespace bst::util
