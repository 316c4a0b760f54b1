// Decoder for crashbox reports ("BSTCRASH v1", util/crashbox.h): parses the
// artifact back into structured form and renders a human-readable summary.
// The final flight-recorder rings decode into the live recorder's own
// ThreadEvents (util/flight_recorder.h), with the same dropped accounting,
// so FlightRecorder::write_chrome_trace exports them as a chrome-trace/
// Perfetto document named by the report's phase table.  `tools/
// bst_postmortem` is the CLI over this; the library form exists so tests
// can round-trip a dump without shelling out.
//
// A report written from a signal handler can be imperfect: individual ring
// events may be torn (another thread was mid-push), and a report can be
// truncated if the process died while dumping.  The decoder is strict about
// the header (a file that is not a crash report throws) but tolerant past
// it: torn events are skipped and counted, truncation sets `truncated`.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/flight_recorder.h"

namespace bst::util {

struct CrashRequest {
  std::uint64_t id = 0;
  std::string phase;    // queued / factor / solve
  std::uint64_t age_ns = 0;
};

struct CrashReport {
  int signal = 0;                // 0 = non-signal dump (stall escalation, tests)
  std::string signal_name;
  std::string reason;
  std::uint64_t ts_ns = 0;
  std::vector<std::pair<std::string, std::string>> provenance;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<CrashRequest> requests;
  std::uint64_t request_overflow = 0;
  std::vector<std::pair<int, std::string>> phase_names;
  std::string last_tick;         // raw JSON tick line ("" = none captured)
  bool tick_torn = false;
  std::size_t event_size = 0;    // sizeof(FlightEvent) in the writing process
  std::vector<ThreadEvents> rings;  // valid events only; torn ones counted
  std::uint64_t rings_skipped = 0;
  bool truncated = false;        // file ended before the `end` marker

  /// Phase-id -> name using the report's own table (not this process's).
  std::string phase_name(int id) const;
};

/// Parses a crash report.  Throws std::runtime_error when the file cannot
/// be read or is not a BSTCRASH v1 artifact.
CrashReport read_crash_report(const std::string& path);

/// Human-readable multi-line rendering (what `bst_postmortem` prints).
std::string crash_summary(const CrashReport& report);

}  // namespace bst::util
