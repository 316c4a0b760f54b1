// Tests for the structured tracer (util/trace.h) and the JSON perf-report
// writer (util/report.h): phase interning, the name registry under
// concurrent interning, disabled-tracer no-ops, nested (inclusive) span
// accounting, exact multi-thread accumulation, per-step diagnostics, JSON
// round-tripping and the report schema.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/crashbox.h"
#include "util/flops.h"
#include "util/metrics.h"
#include "util/postmortem.h"
#include "util/report.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace bst::util {
namespace {

// Every test starts from a clean, enabled tracer and leaves it disabled
// (the tracer is process-global; other test binaries rely on the default).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::reset();
    Tracer::enable();
  }
  void TearDown() override {
    Tracer::disable();
    Tracer::reset();
  }
};

std::uint64_t phase_flops(const std::vector<PhaseStats>& phases, const std::string& name) {
  for (const PhaseStats& p : phases) {
    if (p.name == name) return p.flops;
  }
  return 0;
}

const PhaseStats* find_phase(const std::vector<PhaseStats>& phases, const std::string& name) {
  for (const PhaseStats& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

TEST_F(TraceTest, PhaseInterningIsIdempotent) {
  const PhaseId a = Tracer::phase("trace_test_intern");
  const PhaseId b = Tracer::phase("trace_test_intern");
  const PhaseId c = Tracer::phase("trace_test_intern_other");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GE(a, 0);
  EXPECT_LT(a, Tracer::kMaxPhases);

  // Every kind's slot holds 47 characters; a longer name is refused.
  const std::string n47 = "trace_test_47" + std::string(34, 'x');
  const std::string n48 = n47 + "x";
  ASSERT_EQ(n47.size(), 47u);
  const PhaseId id47 = Tracer::phase(n47);
  EXPECT_EQ(Tracer::phase_names()[static_cast<std::size_t>(id47)], n47);
  EXPECT_GE(Metrics::histogram(n47), 0);
  EXPECT_GE(Metrics::counter(n47), 0);
  EXPECT_GE(Metrics::gauge(n47), 0);
  EXPECT_THROW(Tracer::phase(n48), std::length_error);
  EXPECT_THROW(Metrics::histogram(n48), std::length_error);
  EXPECT_THROW(Metrics::counter(n48), std::length_error);
  EXPECT_THROW(Metrics::gauge(n48), std::length_error);
}

// Writers intern distinct names of all four kinds while a reader snapshots
// and resolves ids and a crash dump is taken mid-run: every id must name
// its own, untorn string, in the live registry and in the decoded dump.
TEST(NameRegistry, ConcurrentInterningResolvesUntornNames) {
  constexpr int kWriters = 4;
  constexpr int kPerKind = 6;
  constexpr NameKind kKinds[] = {NameKind::kPhase, NameKind::kHistogram, NameKind::kCounter,
                                 NameKind::kGauge};
  // Full-width names: a torn read shows as a wrong length or a stranger.
  auto name_of = [](int kind, int writer, int i) {
    std::string n = "reg_" + std::to_string(kind) + "_" + std::to_string(writer) + "_" +
                    std::to_string(i) + "_";
    return n + std::string(kMaxNameLen - n.size(), static_cast<char>('a' + i));
  };
  std::set<std::string> ours;
  for (int k = 0; k < 4; ++k) {
    for (int w = 0; w < kWriters; ++w) {
      for (int i = 0; i < kPerKind; ++i) ours.insert(name_of(k, w, i));
    }
  }
  int before[4];
  for (int k = 0; k < 4; ++k) before[k] = interned_count(kKinds[k]);

  ::mkdir("trace_test_registry", 0777);
  ASSERT_TRUE(Crashbox::install("trace_test_registry"));
  const std::string report = Crashbox::report_path();

  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)Tracer::snapshot();
      (void)Metrics::snapshot();
      (void)Metrics::counters_snapshot();
      (void)Metrics::gauges_snapshot();
      (void)Tracer::phase_names();
      for (int k = 0; k < 4; ++k) {
        const int n = interned_count(kKinds[k]);
        for (int id = before[k]; id < n; ++id) {
          const char* name = interned_name(kKinds[k], id);
          if (name == nullptr || !ours.contains(name)) bad.fetch_add(1);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  std::vector<std::vector<int>> ids(kWriters, std::vector<int>(4 * kPerKind, -1));
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerKind; ++i) {
        ids[w][4 * i + 0] = Tracer::phase(name_of(0, w, i));
        ids[w][4 * i + 1] = Metrics::histogram(name_of(1, w, i));
        ids[w][4 * i + 2] = Metrics::counter(name_of(2, w, i));
        ids[w][4 * i + 3] = Metrics::gauge(name_of(3, w, i));
        if (w == 0 && i == kPerKind / 2) {
          EXPECT_TRUE(Crashbox::dump(0, "registry-test"));
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad.load(), 0);

  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerKind; ++i) {
      for (int k = 0; k < 4; ++k) {
        const int id = ids[w][4 * i + k];
        ASSERT_GE(id, 0);
        EXPECT_STREQ(interned_name(kKinds[k], id), name_of(k, w, i).c_str());
        EXPECT_EQ(intern_name(kKinds[k], name_of(k, w, i)), id);  // idempotent
      }
    }
  }

  // The mid-run dump lists a prefix of each table, every id with its name.
  const CrashReport rep = read_crash_report(report);
  for (const auto& [id, name] : rep.phase_names) {
    EXPECT_STREQ(interned_name(NameKind::kPhase, id), name.c_str()) << id;
  }
  for (std::size_t id = 0; id < rep.counters.size(); ++id) {
    EXPECT_STREQ(interned_name(NameKind::kCounter, static_cast<int>(id)),
                 rep.counters[id].first.c_str());
  }
  for (std::size_t id = 0; id < rep.gauges.size(); ++id) {
    EXPECT_STREQ(interned_name(NameKind::kGauge, static_cast<int>(id)),
                 rep.gauges[id].first.c_str());
  }
  EXPECT_GE(rep.phase_names.size(), static_cast<std::size_t>(before[0]));
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  Tracer::disable();
  const PhaseId id = Tracer::phase("trace_test_disabled");
  {
    TraceSpan span(id);
    FlopCounter::charge(123);
    ByteCounter::charge(456);
  }
  Tracer::record_step(0, 1.0, 2.0);
  Tracer::enable();
  EXPECT_EQ(find_phase(Tracer::snapshot(), "trace_test_disabled"), nullptr);
  EXPECT_TRUE(Tracer::steps().empty());
}

TEST_F(TraceTest, SpanChargesFlopsBytesAndWallTime) {
  const PhaseId id = Tracer::phase("trace_test_basic");
  {
    TraceSpan span(id);
    FlopCounter::charge(1000);
    ByteCounter::charge(8000);
  }
  const std::vector<PhaseStats> phases = Tracer::snapshot();
  const PhaseStats* p = find_phase(phases, "trace_test_basic");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->calls, 1u);
  EXPECT_EQ(p->flops, 1000u);
  EXPECT_EQ(p->bytes, 8000u);
  EXPECT_GE(p->seconds, 0.0);
}

TEST_F(TraceTest, NestedSpansAreInclusive) {
  const PhaseId outer = Tracer::phase("trace_test_outer");
  const PhaseId inner = Tracer::phase("trace_test_inner");
  {
    TraceSpan so(outer);
    FlopCounter::charge(10);
    {
      TraceSpan si(inner);
      FlopCounter::charge(100);
    }
    FlopCounter::charge(1);
  }
  const auto phases = Tracer::snapshot();
  // The inner span's work double-charges the outer phase by design.
  EXPECT_EQ(phase_flops(phases, "trace_test_outer"), 111u);
  EXPECT_EQ(phase_flops(phases, "trace_test_inner"), 100u);
}

TEST_F(TraceTest, ResetClearsTotalsButKeepsIds) {
  const PhaseId id = Tracer::phase("trace_test_reset");
  {
    TraceSpan span(id);
    FlopCounter::charge(5);
  }
  Tracer::reset();
  EXPECT_EQ(find_phase(Tracer::snapshot(), "trace_test_reset"), nullptr);
  EXPECT_EQ(Tracer::phase("trace_test_reset"), id);
  {
    TraceSpan span(id);
    FlopCounter::charge(7);
  }
  EXPECT_EQ(phase_flops(Tracer::snapshot(), "trace_test_reset"), 7u);
}

TEST_F(TraceTest, MultiThreadAccumulationIsExact) {
  // Spans open *inside* the worker callback (the counters are thread-local),
  // so the per-phase totals must sum every thread's share exactly.
  const PhaseId id = Tracer::phase("trace_test_mt");
  ThreadPool pool(4);
  constexpr std::size_t kIters = 1000;
  pool.parallel_for(0, kIters, [&](std::size_t) {
    TraceSpan span(id);
    FlopCounter::charge(7);
    ByteCounter::charge(11);
  });
  const std::vector<PhaseStats> phases = Tracer::snapshot();
  const PhaseStats* p = find_phase(phases, "trace_test_mt");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->calls, kIters);
  EXPECT_EQ(p->flops, 7u * kIters);
  EXPECT_EQ(p->bytes, 11u * kIters);
  // calls and seconds are the phase's latency histogram, read back exactly.
  const std::vector<HistogramStats> hists = Metrics::snapshot();
  const auto h = std::find_if(hists.begin(), hists.end(), [](const HistogramStats& x) {
    return x.name == "trace_test_mt_ns";
  });
  ASSERT_NE(h, hists.end());
  EXPECT_EQ(p->calls, h->count);
  EXPECT_EQ(p->seconds, static_cast<double>(h->sum) * 1e-9);
}

TEST_F(TraceTest, WorkerStatsCountChunks) {
  ThreadPool pool(3);
  pool.reset_worker_stats();
  std::atomic<int> ran{0};
  pool.parallel_for(0, 64, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
  const std::vector<WorkerStats> stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), pool.size());
  std::uint64_t chunks = 0;
  for (const WorkerStats& w : stats) {
    chunks += w.chunks;
    EXPECT_GE(w.busy_seconds, 0.0);
    EXPECT_GE(w.idle_seconds, 0.0);
  }
  EXPECT_GE(chunks, 1u);
  EXPECT_LE(chunks, 64u);
}

TEST_F(TraceTest, RecordsStepDiagnosticsInOrder) {
  Tracer::record_step(1, 0.5, 2.0);
  Tracer::record_step(2, 0.25, 4.0);
  const std::vector<StepDiag> steps = Tracer::steps();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].step, 1);
  EXPECT_DOUBLE_EQ(steps[0].min_hnorm, 0.5);
  EXPECT_DOUBLE_EQ(steps[1].max_generator, 4.0);
}

// ---------------------------------------------------------------------------
// JSON value + parser round-trips.

TEST(JsonTest, RoundTripsScalarsAndContainers) {
  Json doc = Json::object();
  doc.set("int", Json::number(std::int64_t{-42}));
  doc.set("big", Json::number(std::uint64_t{123456789012345ull}));
  doc.set("pi", Json::number(3.25));
  doc.set("flag", Json::boolean(true));
  doc.set("none", Json::null());
  Json arr = Json::array();
  arr.push(Json::number(1.0));
  arr.push(Json::string("two"));
  doc.set("list", arr);

  const Json back = parse_json(doc.dump());
  ASSERT_EQ(back.kind(), Json::Kind::Object);
  EXPECT_DOUBLE_EQ(back.find("int")->as_number(), -42.0);
  EXPECT_DOUBLE_EQ(back.find("big")->as_number(), 123456789012345.0);
  EXPECT_DOUBLE_EQ(back.find("pi")->as_number(), 3.25);
  EXPECT_TRUE(back.find("flag")->as_bool());
  EXPECT_EQ(back.find("none")->kind(), Json::Kind::Null);
  ASSERT_EQ(back.find("list")->items().size(), 2u);
  EXPECT_EQ(back.find("list")->items()[1].as_string(), "two");
}

TEST(JsonTest, EscapesControlCharactersAndQuotes) {
  Json doc = Json::object();
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  doc.set("s", Json::string(nasty));
  const std::string text = doc.dump();
  EXPECT_EQ(text.find('\n'), text.find("\n  \"s\""));  // only layout newlines
  const Json back = parse_json(text);
  EXPECT_EQ(back.find("s")->as_string(), nasty);
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  Json doc = Json::array();
  doc.push(Json::number(std::nan("")));
  doc.push(Json::number(std::numeric_limits<double>::infinity()));
  const Json back = parse_json(doc.dump());
  ASSERT_EQ(back.items().size(), 2u);
  EXPECT_EQ(back.items()[0].kind(), Json::Kind::Null);
  EXPECT_EQ(back.items()[1].kind(), Json::Kind::Null);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("tru"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\":1} junk"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// PerfReport schema.

TEST_F(TraceTest, PerfReportCarriesSchemaAndSections) {
  const PhaseId id = Tracer::phase("trace_test_report");
  {
    TraceSpan span(id);
    FlopCounter::charge(64);
  }
  Tracer::record_step(3, 1e-3, 2.5);

  PerfReport report("test_tool");
  report.param("n", std::int64_t{256});
  report.param("rep", "vy2");
  report.metric("time_s", 0.125);
  report.add_thread(1.0, 0.5, 10);
  report.add_pe_comm(1024.0, 2048.0, 16.0);
  Table tab("t");
  tab.header({"a", "b"});
  tab.row({1LL, 2.0});
  report.add_table(tab);

  std::ostringstream os;
  report.write(os);
  const Json doc = parse_json(os.str());

  ASSERT_EQ(doc.kind(), Json::Kind::Object);
  EXPECT_DOUBLE_EQ(doc.find("schema_version")->as_number(), kReportSchemaVersion);
  EXPECT_EQ(doc.find("tool")->as_string(), "test_tool");
  EXPECT_DOUBLE_EQ(doc.find("params")->find("n")->as_number(), 256.0);
  EXPECT_EQ(doc.find("params")->find("rep")->as_string(), "vy2");
  EXPECT_DOUBLE_EQ(doc.find("metrics")->find("time_s")->as_number(), 0.125);
  ASSERT_NE(doc.find("machine"), nullptr);
  EXPECT_GE(doc.find("machine")->find("hardware_concurrency")->as_number(), 1.0);
  ASSERT_NE(doc.find("build"), nullptr);

  const Json* phases = doc.find("phases");
  ASSERT_NE(phases, nullptr);
  const Json* ph = phases->find("trace_test_report");
  ASSERT_NE(ph, nullptr);
  EXPECT_DOUBLE_EQ(ph->find("flops")->as_number(), 64.0);
  EXPECT_DOUBLE_EQ(ph->find("calls")->as_number(), 1.0);

  const Json* steps = doc.find("steps");
  ASSERT_NE(steps, nullptr);
  ASSERT_EQ(steps->items().size(), 1u);
  EXPECT_DOUBLE_EQ(steps->items()[0].find("step")->as_number(), 3.0);

  ASSERT_EQ(doc.find("threads")->items().size(), 1u);
  EXPECT_DOUBLE_EQ(doc.find("threads")->items()[0].find("busy_seconds")->as_number(), 1.0);
  ASSERT_EQ(doc.find("comm")->items().size(), 1u);
  EXPECT_DOUBLE_EQ(doc.find("comm")->items()[0].find("bytes_recv")->as_number(), 2048.0);

  ASSERT_EQ(doc.find("tables")->items().size(), 1u);
  const Json& table = doc.find("tables")->items()[0];
  EXPECT_EQ(table.find("title")->as_string(), "t");
  ASSERT_EQ(table.find("rows")->items().size(), 1u);
  EXPECT_DOUBLE_EQ(table.find("rows")->items()[0].items()[1].as_number(), 2.0);
}

TEST_F(TraceTest, PerfReportOmitsEmptySections) {
  Tracer::disable();  // no phases recorded
  PerfReport report("empty_tool");
  std::ostringstream os;
  report.write(os);
  const Json doc = parse_json(os.str());
  EXPECT_EQ(doc.find("phases"), nullptr);
  EXPECT_EQ(doc.find("steps"), nullptr);
  EXPECT_EQ(doc.find("threads"), nullptr);
  EXPECT_EQ(doc.find("comm"), nullptr);
  EXPECT_EQ(doc.find("tables"), nullptr);
  EXPECT_NE(doc.find("schema_version"), nullptr);
}

}  // namespace
}  // namespace bst::util
