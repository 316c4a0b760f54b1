// Tests for the post-mortem layer: async-signal-safe writers, the crashbox
// request table and dump/decode round trip (util/crashbox.h +
// util/postmortem.h), the flight recorder's unmatched-end accounting, and
// BST_FAULT injection (util/fault.h) including forked signal-death smoke
// tests that assert the crash report decodes.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/crashbox.h"
#include "util/fault.h"
#include "util/flight_recorder.h"
#include "util/metrics.h"
#include "util/postmortem.h"
#include "util/trace.h"

namespace bst::util {
namespace {

// Fresh per-test report directory under the build tree.
std::string make_crash_dir(const char* tag) {
  std::string dir = "crashbox_test_" + std::string(tag);
  ::mkdir(dir.c_str(), 0777);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Restores a disarmed fault no matter how the test exits.
struct FaultDisarm {
  ~FaultDisarm() {
    ::unsetenv("BST_FAULT");
    ::unsetenv("BST_FAULT_SLOW_MS");
    ::unsetenv("BST_FAULT_HANG_MS");
    Fault::reload();
  }
};

TEST(Sigsafe, WritersFormatIntegersWithoutStdio) {
  char tmpl[] = "sigsafe_XXXXXX";
  const int fd = ::mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  sigsafe::write_str(fd, "u ");
  sigsafe::write_u64(fd, 0);
  sigsafe::write_str(fd, " ");
  sigsafe::write_u64(fd, 18446744073709551615ull);
  sigsafe::write_str(fd, "\ni ");
  sigsafe::write_i64(fd, -42);
  sigsafe::write_str(fd, " ");
  sigsafe::write_i64(fd, INT64_MIN);
  sigsafe::write_str(fd, "\n");
  ::close(fd);
  EXPECT_EQ(read_file(tmpl), "u 0 18446744073709551615\ni -42 -9223372036854775808\n");
  ::unlink(tmpl);
}

TEST(Crashbox, PhaseNamesAreStable) {
  EXPECT_STREQ(req_phase_name(ReqPhase::kQueued), "queued");
  EXPECT_STREQ(req_phase_name(ReqPhase::kFactor), "factor");
  EXPECT_STREQ(req_phase_name(ReqPhase::kSolve), "solve");
}

TEST(Crashbox, RequestTableLifecycle) {
  const std::string dir = make_crash_dir("reqs");
  ASSERT_TRUE(Crashbox::install(dir.c_str()));
  const int slot = Crashbox::request_begin(1001, ReqPhase::kQueued);
  ASSERT_GE(slot, 0);
  Crashbox::request_phase(slot, ReqPhase::kSolve);
  Crashbox::request_end(slot);
  // id 0 marks a free slot, so a zero-id request is refused, not recorded.
  EXPECT_EQ(Crashbox::request_begin(0, ReqPhase::kQueued), -1);
  // no-ops on the -1 sentinel
  Crashbox::request_phase(-1, ReqPhase::kSolve);
  Crashbox::request_end(-1);
}

TEST(Crashbox, DumpDecodeRoundTrip) {
  Tracer::reset();
  const CtrId ctr = Metrics::counter("crashbox_test_counter");
  const GaugeId gauge = Metrics::gauge("crashbox_test_gauge");
  Metrics::add(ctr, 7);
  Metrics::gauge_set(gauge, -3);

  const std::string dir = make_crash_dir("roundtrip");
  ASSERT_TRUE(Crashbox::install(dir.c_str()));
  const std::string path = Crashbox::report_path();
  ASSERT_FALSE(path.empty());

  const char tick[] = R"({"seq":9,"qps":12.5})";
  Crashbox::set_last_tick(tick, sizeof tick - 1);
  const int slot = Crashbox::request_begin(42, ReqPhase::kFactor);
  ASSERT_GE(slot, 0);
  Crashbox::request_phase(slot, ReqPhase::kSolve);

  // One closed span and one still-open span on this thread's ring.
  Tracer::enable();
  FlightRecorder::enable(64);
  const PhaseId closed = Tracer::phase("crashbox_test_span");
  const PhaseId open = Tracer::phase("crashbox_test_open");
  { TraceSpan span(closed); }
  FlightRecorder::begin(open, TraceClock::now_ns(), 0, 0);

  EXPECT_TRUE(Crashbox::dump(0, "unit-test"));
  EXPECT_FALSE(Crashbox::dump(0, "second"));  // one report per install

  FlightRecorder::end(open, TraceClock::now_ns(), 0, 0);
  FlightRecorder::disable();
  Tracer::disable();

  const CrashReport rep = read_crash_report(path);
  EXPECT_EQ(rep.signal, 0);
  EXPECT_EQ(rep.reason, "unit-test");
  EXPECT_FALSE(rep.truncated);
  EXPECT_GT(rep.ts_ns, 0u);
  EXPECT_EQ(rep.event_size, sizeof(FlightEvent));
  EXPECT_EQ(rep.last_tick, tick);
  EXPECT_FALSE(rep.tick_torn);

  bool saw_pid = false;
  for (const auto& [key, value] : rep.provenance) {
    if (key == "pid") {
      saw_pid = true;
      EXPECT_EQ(value, std::to_string(::getpid()));
    }
  }
  EXPECT_TRUE(saw_pid);

  bool saw_ctr = false, saw_gauge = false;
  for (const auto& [name, value] : rep.counters) {
    if (name == "crashbox_test_counter") {
      saw_ctr = true;
      EXPECT_EQ(value, 7u);
    }
  }
  for (const auto& [name, value] : rep.gauges) {
    if (name == "crashbox_test_gauge") {
      saw_gauge = true;
      EXPECT_EQ(value, -3);
    }
  }
  EXPECT_TRUE(saw_ctr);
  EXPECT_TRUE(saw_gauge);

  bool saw_req = false;
  for (const CrashRequest& r : rep.requests) {
    if (r.id == 42) {
      saw_req = true;
      EXPECT_EQ(r.phase, "solve");
    }
  }
  EXPECT_TRUE(saw_req);

  // The registry's phase names were dumped and the ring carries the span.
  EXPECT_EQ(rep.phase_name(closed), "crashbox_test_span");
  bool saw_span = false;
  for (const ThreadEvents& ring : rep.rings) {
    for (const FlightEvent& e : ring.events) {
      if (e.phase == closed) saw_span = true;
    }
  }
  EXPECT_TRUE(saw_span);

  // Summary and trace export render from the decoded report alone.
  const std::string summary = crash_summary(rep);
  EXPECT_NE(summary.find("req 42"), std::string::npos);
  EXPECT_NE(summary.find("crashbox_test_counter"), std::string::npos);
  EXPECT_NE(summary.find(R"({"seq":9)"), std::string::npos);
  EXPECT_NE(summary.find("open span: crashbox_test_open"), std::string::npos);
  std::ostringstream trace;
  FlightRecorder::write_chrome_trace(
      trace, rep.rings, [&rep](PhaseId id) { return rep.phase_name(id); }, true);
  EXPECT_NE(trace.str().find("traceEvents"), std::string::npos);
  EXPECT_NE(trace.str().find("crashbox_test_span"), std::string::npos);
  // The span still open at the dump shows as a thread-scoped instant.
  const std::string open_instant =
      R"x({"name": "crashbox_test_open (open at crash)", "ph": "i", "s": "t")x";
  EXPECT_NE(trace.str().find(open_instant), std::string::npos) << trace.str();

  Crashbox::request_end(slot);
  Tracer::reset();
}

TEST(Postmortem, UnreadableReportThrows) {
  EXPECT_THROW(read_crash_report("definitely_missing.bstcrash"), std::runtime_error);
}

TEST(Postmortem, NonCrashFileThrows) {
  char tmpl[] = "notacrash_XXXXXX";
  const int fd = ::mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  const char junk[] = "this is not a crash report\n";
  ASSERT_EQ(::write(fd, junk, sizeof junk - 1), static_cast<ssize_t>(sizeof junk - 1));
  ::close(fd);
  EXPECT_THROW(read_crash_report(tmpl), std::runtime_error);
  ::unlink(tmpl);
}

// An End whose Begin was overwritten by ring wrap is counted (not silently
// dropped): cap-4 ring sees B1 b2 e2 b3 e3 E1; the window keeps the last
// four events [e2 b3 e3 E1], in which e2 and E1 open at depth 0.  The live
// snapshot and the crash decoder must agree on all of it.
TEST(FlightRecorderWrap, SnapshotCountsUnmatchedEnds) {
  Tracer::reset();
  Tracer::enable();
  FlightRecorder::enable(4);
  const PhaseId p1 = Tracer::phase("crashbox_wrap_outer");
  const PhaseId p2 = Tracer::phase("crashbox_wrap_inner");
  FlightRecorder::begin(p1, 10, 0, 0);
  FlightRecorder::begin(p2, 11, 0, 0);
  FlightRecorder::end(p2, 12, 0, 0);
  FlightRecorder::begin(p2, 13, 0, 0);
  FlightRecorder::end(p2, 14, 0, 0);
  FlightRecorder::end(p1, 15, 0, 0);
  const std::vector<ThreadEvents> threads = FlightRecorder::snapshot();
  ASSERT_EQ(threads.size(), 1u);
  const ThreadEvents& te = threads[0];
  ASSERT_EQ(te.events.size(), 4u);
  EXPECT_EQ(te.unmatched_ends, 2u);
  EXPECT_EQ(te.dropped, 4u);  // 2 wrap-lost + 2 unmatched ends

  // The crash decoder reads the same ring the same way: dump it, decode it,
  // and expect the snapshot event for event, with the same accounting.
  const std::string dir = make_crash_dir("wrap");
  ASSERT_TRUE(Crashbox::install(dir.c_str()));
  ASSERT_TRUE(Crashbox::dump(0, "wrap-test"));
  const CrashReport rep = read_crash_report(Crashbox::report_path());
  ASSERT_EQ(rep.rings.size(), 1u);
  const ThreadEvents& dec = rep.rings[0];
  EXPECT_EQ(dec.tid, te.tid);
  EXPECT_EQ(dec.events, te.events);
  EXPECT_EQ(dec.torn, 0u);
  EXPECT_EQ(dec.unmatched_ends, 2u);
  EXPECT_EQ(dec.dropped, 4u);

  // No span is open, so the crash trace is the live trace, byte for byte.
  std::ostringstream live, crash;
  FlightRecorder::write_chrome_trace(live);
  FlightRecorder::write_chrome_trace(
      crash, rep.rings, [&rep](PhaseId id) { return rep.phase_name(id); }, true);
  EXPECT_EQ(crash.str(), live.str());

  FlightRecorder::disable();
  Tracer::disable();
  Tracer::reset();
}

TEST(Fault, DisarmedByDefaultAndSlowFiresEveryHit) {
  FaultDisarm disarm;
  ::unsetenv("BST_FAULT");
  Fault::reload();
  EXPECT_FALSE(Fault::armed());
  EXPECT_STREQ(Fault::describe(), "");
  Fault::fire("admission");  // no-op

  ::setenv("BST_FAULT", "admission:slow:2", 1);
  ::setenv("BST_FAULT_SLOW_MS", "20", 1);
  Fault::reload();
  EXPECT_TRUE(Fault::armed());
  EXPECT_STREQ(Fault::describe(), "admission:slow:2");
  Fault::fire("dispatch");  // other sites stay untouched

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  Fault::fire("admission");  // hit 1 < count: no delay
  const auto t1 = clock::now();
  Fault::fire("admission");  // hit 2 == count: sleeps
  Fault::fire("admission");  // slow keeps firing past count
  const auto t2 = clock::now();
  EXPECT_LT(t1 - t0, std::chrono::milliseconds(15));
  EXPECT_GE(t2 - t1, std::chrono::milliseconds(30));
}

// A malformed spec is an error naming BST_FAULT, never a silently disarmed
// (or wrongly armed) fault: no ':', an unknown site or kind, a count that is
// not a whole number >= 1.
TEST(Fault, MalformedSpecsThrowAndStayDisarmed) {
  FaultDisarm disarm;
  for (const char* spec : {"schur_step", "schur-step:crash", "smoke:crash", "schur_step:boom",
                           "schur_step:slow:3x", "schur_step:slow:0", "schur_step:slow:",
                           "schur_step:slow:-1", "refine:hang:1.5"}) {
    ::setenv("BST_FAULT", "admission:slow:2", 1);
    Fault::reload();
    ASSERT_TRUE(Fault::armed());
    ::setenv("BST_FAULT", spec, 1);
    try {
      Fault::reload();
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("BST_FAULT:", 0), 0u) << e.what();
    }
    EXPECT_FALSE(Fault::armed()) << spec;
    EXPECT_STREQ(Fault::describe(), "") << spec;
  }
  for (const char* spec : {"pcg:slow", "cache_fill:hang:3", "dispatch:fp-trap:12"}) {
    ::setenv("BST_FAULT", spec, 1);
    EXPECT_NO_THROW(Fault::reload()) << spec;
    EXPECT_TRUE(Fault::armed()) << spec;
  }
}

// Forked smoke tests: the child arms a fault, fires it, and dies on the
// expected signal; the parent asserts the crash report it left decodes to
// the victim request.  A manual fork keeps the report path predictable
// (crash_<childpid>.bstcrash) without death-test re-execution.
std::string child_report(const std::string& dir, const char* fault_spec, int expect_sig) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::setenv("BST_FAULT", fault_spec, 1);
    Fault::reload();
    Crashbox::install(dir.c_str());
    Crashbox::request_begin(77, ReqPhase::kFactor);
    Fault::fire("schur_step");
    ::_exit(9);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFSIGNALED(status));
  if (WIFSIGNALED(status)) {
    EXPECT_EQ(WTERMSIG(status), expect_sig);
  }
  return dir + "/crash_" + std::to_string(pid) + ".bstcrash";
}

TEST(FaultSmoke, InjectedSegfaultLeavesDecodableReport) {
  const std::string dir = make_crash_dir("segv");
  const std::string path = child_report(dir, "schur_step:crash", SIGSEGV);
  const CrashReport rep = read_crash_report(path);
  EXPECT_EQ(rep.signal, SIGSEGV);
  EXPECT_EQ(rep.signal_name, "SIGSEGV");
  bool saw_victim = false;
  for (const CrashRequest& r : rep.requests) {
    if (r.id == 77 && r.phase == "factor") saw_victim = true;
  }
  EXPECT_TRUE(saw_victim);
  EXPECT_NE(crash_summary(rep).find("SIGSEGV"), std::string::npos);
}

TEST(FaultSmoke, InjectedFpTrapLeavesDecodableReport) {
  const std::string dir = make_crash_dir("fpe");
  const std::string path = child_report(dir, "schur_step:fp-trap", SIGFPE);
  const CrashReport rep = read_crash_report(path);
  EXPECT_EQ(rep.signal, SIGFPE);
  EXPECT_EQ(rep.signal_name, "SIGFPE");
}

}  // namespace
}  // namespace bst::util
