// Tests for util/prof: arm/disarm lifecycle, the degradation contract
// (PMU denied or disabled must never fail anything), the report section
// shape, folded-stack formatting, and request tagging.
//
// These tests run in containers and CI runners where perf_event_open is
// typically denied, so they assert *consistency* -- status and data agree
// -- rather than demanding live hardware counters.  Sampling tests spin
// real CPU under a high-rate timer but still accept zero samples (a loaded
// CI box may never deliver SIGPROF to this thread in time); every assertion
// on sample content is conditional on samples existing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/prof.h"
#include "util/report.h"
#include "util/trace.h"

namespace bst::util {
namespace {

// Burns CPU long enough for a few 997 Hz ticks to land.
double spin_ms(int ms) {
  volatile double sink = 1.0;
  const std::uint64_t t0 = TraceClock::now_ns();
  while (TraceClock::now_ns() - t0 < static_cast<std::uint64_t>(ms) * 1000000ull) {
    for (int i = 1; i < 2000; ++i) sink = sink + 1.0 / static_cast<double>(i);
  }
  return sink;
}

const Json* find_key(const Json& obj, const char* key) { return obj.find(key); }

TEST(Prof, DisarmedByDefaultAndCostsNothing) {
  Tracer::reset();
  EXPECT_FALSE(Prof::armed());
  EXPECT_FALSE(Prof::was_armed());
  EXPECT_EQ(Prof::pmu_status(), "off");
  EXPECT_FALSE(Prof::pmu_available());
  // The hooks are safe to call disarmed (trace.cc guards, but belt+braces).
  Prof::on_span_open(0);
  Prof::on_span_close(0);
}

TEST(Prof, ArmDisarmLifecycle) {
  Tracer::reset();
  ProfOptions opt;
  opt.pmu = false;      // deterministic everywhere: never touch perf
  opt.sample_hz = 0;    // and no timer
  Prof::arm(opt);
  EXPECT_TRUE(Prof::armed());
  EXPECT_TRUE(Prof::was_armed());
  EXPECT_EQ(Prof::pmu_status(), "disabled");
  Prof::disarm();
  EXPECT_FALSE(Prof::armed());
  EXPECT_TRUE(Prof::was_armed());  // survives disarm for the report builder
  Tracer::reset();
  EXPECT_FALSE(Prof::was_armed());  // reset clears it
}

TEST(Prof, ArmIsIdempotent) {
  Tracer::reset();
  ProfOptions opt;
  opt.pmu = false;
  opt.sample_hz = 0;
  Prof::arm(opt);
  Prof::arm(opt);
  EXPECT_TRUE(Prof::armed());
  Prof::disarm();
  Prof::disarm();
  EXPECT_FALSE(Prof::armed());
  Tracer::reset();
}

// Status and data must agree whatever the kernel allowed: either the PMU
// opened ("ok", the phases' records carry counts) or it did not
// ("unavailable: ...", no phase carries a PMU span).  This is the contract
// check_prof.py gates on in CI, in both directions.
TEST(Prof, PmuStatusMatchesData) {
  Tracer::reset();
  Tracer::enable();
  ProfOptions opt;
  opt.sample_hz = 0;  // PMU side only
  Prof::arm(opt);
  {
    TraceSpan span(Tracer::phase("prof_test_phase"));
    spin_ms(5);
  }
  Prof::disarm();
  const std::string status = Prof::pmu_status();
  const std::vector<PhaseStats> snap = Tracer::snapshot();
  if (Prof::pmu_available()) {
    EXPECT_EQ(status, "ok");
    bool counted = false;
    for (const PhaseStats& p : snap) counted = counted || p.pmu.cycles > 0;
    EXPECT_TRUE(counted) << "PMU ok but no phase accumulated cycles";
  } else {
    EXPECT_TRUE(status.rfind("unavailable", 0) == 0) << status;
    for (const PhaseStats& p : snap) {
      EXPECT_EQ(p.pmu_spans, 0u);
      EXPECT_EQ(p.pmu.cycles, 0u);
    }
  }
  Tracer::disable();
  Tracer::reset();
}

TEST(Prof, SectionJsonShape) {
  Tracer::reset();
  ProfOptions opt;
  opt.pmu = false;
  opt.sample_hz = 0;
  Prof::arm(opt);
  Prof::disarm();
  const Json section = Prof::section_json();
  const Json* pmu = find_key(section, "pmu");
  ASSERT_NE(pmu, nullptr);
  ASSERT_NE(find_key(*pmu, "status"), nullptr);
  EXPECT_EQ(find_key(*pmu, "status")->as_string(), "disabled");
  ASSERT_NE(find_key(*pmu, "available"), nullptr);
  EXPECT_FALSE(find_key(*pmu, "available")->as_bool());
  const Json* sampler = find_key(section, "sampler");
  ASSERT_NE(sampler, nullptr);
  ASSERT_NE(find_key(*sampler, "enabled"), nullptr);
  EXPECT_FALSE(find_key(*sampler, "enabled")->as_bool());
  ASSERT_NE(find_key(*sampler, "samples"), nullptr);
  ASSERT_NE(find_key(*sampler, "top_stacks"), nullptr);
  Tracer::reset();
}

// End-to-end software sampling under a real timer.  All content assertions
// are conditional on samples actually landing.
TEST(Prof, SamplerCapturesAndFoldsStacks) {
  Tracer::reset();
  Tracer::enable();
  ProfOptions opt;
  opt.pmu = false;
  opt.sample_hz = 997;
  Prof::arm(opt);
  Prof::set_request(42);
  {
    TraceSpan span(Tracer::phase("prof_sampled_phase"));
    spin_ms(60);
  }
  Prof::set_request(0);
  Prof::disarm();
  const SamplerStats st = Prof::sampler_stats();
  EXPECT_TRUE(st.enabled);
  EXPECT_EQ(st.interval_us, 1000000u / 997u);
  if (st.samples > 0) {
    const std::string folded = Prof::folded_stacks();
    ASSERT_FALSE(folded.empty());
    std::istringstream lines(folded);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      // "stack count": a space-separated trailing positive integer...
      const std::size_t sp = line.rfind(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      EXPECT_GT(std::stoull(line.substr(sp + 1)), 0u) << line;
      // ...and the stack roots at the phase attribution frame.
      EXPECT_EQ(line.rfind("phase:", 0), 0u) << line;
    }
    EXPECT_GE(st.threads, 1u);
  }
  Tracer::disable();
  Tracer::reset();
  EXPECT_EQ(Prof::sampler_stats().samples, 0u);  // reset dropped the pool
}

// A second arm() after reset() starts clean (fresh stats, fresh section):
// the service path re-arms across runs in one process.
TEST(Prof, RearmAfterResetStartsClean) {
  Tracer::reset();
  ProfOptions opt;
  opt.pmu = false;
  opt.sample_hz = 0;
  Prof::arm(opt);
  Prof::disarm();
  Tracer::reset();
  EXPECT_FALSE(Prof::was_armed());
  Prof::arm(opt);
  EXPECT_TRUE(Prof::armed());
  EXPECT_EQ(Prof::sampler_stats().samples, 0u);
  Prof::disarm();
  Tracer::reset();
}

// write_artifacts with zero samples must write nothing and return empty
// paths -- not emit empty files.
TEST(Prof, NoArtifactsWithoutSamples) {
  Tracer::reset();
  ProfOptions opt;
  opt.pmu = false;
  opt.sample_hz = 0;
  opt.out_prefix = "test_prof_should_not_exist";
  Prof::arm(opt);
  Prof::disarm();
  const Prof::Artifacts art = Prof::write_artifacts();
  EXPECT_TRUE(art.folded.empty());
  EXPECT_TRUE(art.perfetto.empty());
  Tracer::reset();
}

// The span-stack bookkeeping must stay balanced past the depth cap: deep
// recursion may overflow kMaxSpanDepth, and the matching closes must not
// corrupt the stack (would misattribute every later sample).
TEST(Prof, SpanStackSurvivesOverflow) {
  Tracer::reset();
  Tracer::enable();
  ProfOptions opt;
  opt.pmu = false;
  opt.sample_hz = 0;
  Prof::arm(opt);
  constexpr int kDeep = Prof::kMaxSpanDepth + 8;
  std::vector<TraceSpan*> spans;
  spans.reserve(kDeep);
  for (int i = 0; i < kDeep; ++i) spans.push_back(new TraceSpan(Tracer::phase("deep_phase")));
  for (int i = kDeep - 1; i >= 0; --i) delete spans[static_cast<std::size_t>(i)];
  // Re-open one span: attribution still works after the overflow unwound.
  {
    TraceSpan span(Tracer::phase("after_overflow"));
  }
  Prof::disarm();
  Tracer::disable();
  Tracer::reset();
}

TEST(ProfOptions, FromEnvTakesOnlyDeclaredValues) {
  setenv("BST_PROF", "1", 1);
  setenv("BST_PROF_PMU", "0", 1);
  setenv("BST_PROF_HZ", "10000", 1);
  setenv("BST_PROF_OUT", "p", 1);
  const ProfOptions o = ProfOptions::from_env();
  EXPECT_TRUE(o.armed_by_env);
  EXPECT_FALSE(o.pmu);
  EXPECT_EQ(o.sample_hz, 10000u);
  EXPECT_EQ(o.out_prefix, "p");
  // Switches take only 0 or 1, and the rate is capped at 10000 Hz.
  for (const auto& [var, bad] : {std::pair{"BST_PROF", "false"}, std::pair{"BST_PROF_PMU", "no"},
                                 std::pair{"BST_PROF_HZ", "20000"}}) {
    const std::string old = std::getenv(var);
    setenv(var, bad, 1);
    try {
      (void)ProfOptions::from_env();
      ADD_FAILURE() << var << "=" << bad << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos) << e.what();
    }
    setenv(var, old.c_str(), 1);
  }
  for (const char* v : {"BST_PROF", "BST_PROF_PMU", "BST_PROF_HZ", "BST_PROF_OUT"}) unsetenv(v);
  const ProfOptions d = ProfOptions::from_env();
  EXPECT_FALSE(d.armed_by_env);
  EXPECT_TRUE(d.pmu);
  EXPECT_EQ(d.sample_hz, ProfOptions{}.sample_hz);
}

}  // namespace
}  // namespace bst::util
