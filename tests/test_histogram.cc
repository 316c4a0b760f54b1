// Tests for the metrics registry (util/metrics.h): log-bucket geometry,
// exact count/sum/min/max accounting, percentile estimation against exact
// quantiles, registry interning/reset, and the perf report's "histograms" /
// "warnings" sections (util/report.h + util/watchdog.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/report.h"
#include "util/trace.h"
#include "util/watchdog.h"

namespace bst::util {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::reset();  // cascades to Metrics/Watchdog
    Tracer::enable();
  }
  void TearDown() override {
    Tracer::disable();
    Tracer::reset();
  }
};

const HistogramStats* find_hist(const std::vector<HistogramStats>& hists,
                                const std::string& name) {
  for (const HistogramStats& h : hists) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Bucket geometry.

TEST(HistBucketTest, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < 4; ++v) {
    const int b = hist_bucket(v);
    EXPECT_EQ(b, static_cast<int>(v));
    EXPECT_DOUBLE_EQ(hist_bucket_lo(b), static_cast<double>(v));
    EXPECT_DOUBLE_EQ(hist_bucket_hi(b), static_cast<double>(v + 1));
  }
}

TEST(HistBucketTest, EveryValueIsInsideItsBucket) {
  // Strict lo <= v < hi containment, probed where double holds v exactly.
  std::vector<std::uint64_t> probes{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 100, 1000, 4095, 4096};
  for (int shift = 12; shift < 53; shift += 5) {
    probes.push_back(std::uint64_t{1} << shift);
    probes.push_back((std::uint64_t{1} << shift) + 3);
    probes.push_back((std::uint64_t{1} << shift) - 1);
  }
  for (const std::uint64_t v : probes) {
    const int b = hist_bucket(v);
    ASSERT_GE(b, 0) << v;
    ASSERT_LT(b, kHistBuckets) << v;
    EXPECT_LE(hist_bucket_lo(b), static_cast<double>(v)) << v;
    EXPECT_GT(hist_bucket_hi(b), static_cast<double>(v)) << v;
  }
  // Past double's exact range, pin the bucket index instead of the bounds.
  EXPECT_EQ(hist_bucket(~std::uint64_t{0}), kHistBuckets - 1);
  EXPECT_EQ(hist_bucket(std::uint64_t{1} << 63), kHistSubBuckets * 62);
}

TEST(HistBucketTest, BucketsAreMonotone) {
  // Bucket index never decreases as the value grows, and the relative bucket
  // width stays at most 25% past the exact range.
  int prev = -1;
  for (std::uint64_t v = 0; v < 100000; v += 13) {
    const int b = hist_bucket(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
  for (int b = kHistSubBuckets; b < kHistBuckets - 1; ++b) {
    const double lo = hist_bucket_lo(b), hi = hist_bucket_hi(b);
    EXPECT_DOUBLE_EQ(hist_bucket_lo(b + 1), hi);
    EXPECT_LE((hi - lo) / lo, 0.25 + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Recording + snapshots.

TEST_F(MetricsTest, CountsSumMinMaxAreExact) {
  const HistId id = Metrics::histogram("metrics_test_exact");
  const std::vector<std::uint64_t> values{3, 17, 17, 250, 9001, 0};
  std::uint64_t sum = 0;
  for (const std::uint64_t v : values) {
    Metrics::record(id, v);
    sum += v;
  }
  const std::vector<HistogramStats> hists = Metrics::snapshot();
  const auto* h = find_hist(hists, "metrics_test_exact");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, values.size());
  EXPECT_EQ(h->sum, sum);
  EXPECT_EQ(h->min, 0u);
  EXPECT_EQ(h->max, 9001u);
  EXPECT_DOUBLE_EQ(h->mean(), static_cast<double>(sum) / static_cast<double>(values.size()));
  std::uint64_t bucketed = 0;
  for (const auto& [lo, c] : h->buckets) {
    (void)lo;
    bucketed += c;
  }
  EXPECT_EQ(bucketed, values.size());
}

TEST_F(MetricsTest, PercentilesTrackExactQuantilesWithinBucketWidth) {
  const HistId id = Metrics::histogram("metrics_test_quantile");
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 1; v <= 1000; ++v) values.push_back(v * 7 + 13);
  for (const std::uint64_t v : values) Metrics::record(id, v);
  std::sort(values.begin(), values.end());

  const std::vector<HistogramStats> hists = Metrics::snapshot();
  const auto* h = find_hist(hists, "metrics_test_quantile");
  ASSERT_NE(h, nullptr);
  for (const double q : {0.50, 0.95, 0.99}) {
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size())) - 1;
    const double exact = static_cast<double>(values[rank]);
    const double est = h->quantile(q);
    // The estimate must land within the 25% relative bucket width.
    EXPECT_NEAR(est, exact, 0.25 * exact + 1.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h->p50, h->quantile(0.50));
  EXPECT_DOUBLE_EQ(h->p95, h->quantile(0.95));
  EXPECT_DOUBLE_EQ(h->p99, h->quantile(0.99));
  // Quantiles are clamped into the recorded range and ordered.
  EXPECT_GE(h->p50, static_cast<double>(h->min));
  EXPECT_LE(h->p99, static_cast<double>(h->max));
  EXPECT_LE(h->p50, h->p95);
  EXPECT_LE(h->p95, h->p99);
}

TEST_F(MetricsTest, SingleSampleQuantilesClampToTheValue) {
  const HistId id = Metrics::histogram("metrics_test_single");
  Metrics::record(id, 1000);
  const std::vector<HistogramStats> hists = Metrics::snapshot();
  const auto* h = find_hist(hists, "metrics_test_single");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->p50, 1000.0);
  EXPECT_DOUBLE_EQ(h->p99, 1000.0);
}

TEST_F(MetricsTest, InterningIsIdempotentAndResetPreservesIds) {
  const HistId a = Metrics::histogram("metrics_test_intern");
  const HistId b = Metrics::histogram("metrics_test_intern");
  EXPECT_EQ(a, b);
  Metrics::record(a, 5);
  Tracer::reset();  // cascades into Metrics::reset()
  const std::vector<HistogramStats> cleared = Metrics::snapshot();
  EXPECT_EQ(find_hist(cleared, "metrics_test_intern"), nullptr);
  EXPECT_EQ(Metrics::histogram("metrics_test_intern"), a);
  Metrics::record(a, 9);
  const std::vector<HistogramStats> hists = Metrics::snapshot();
  const auto* h = find_hist(hists, "metrics_test_intern");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);

  // Every kind's slot holds 47 characters; a longer name is refused.
  const std::string n47 = "metrics_test_47" + std::string(32, 'y');
  const std::string n48 = n47 + "y";
  ASSERT_EQ(n47.size(), 47u);
  EXPECT_STREQ(interned_name(NameKind::kHistogram, Metrics::histogram(n47)), n47.c_str());
  EXPECT_STREQ(interned_name(NameKind::kCounter, Metrics::counter(n47)), n47.c_str());
  EXPECT_STREQ(interned_name(NameKind::kGauge, Metrics::gauge(n47)), n47.c_str());
  EXPECT_STREQ(interned_name(NameKind::kPhase, Tracer::phase(n47)), n47.c_str());
  EXPECT_THROW(Metrics::histogram(n48), std::length_error);
  EXPECT_THROW(Metrics::counter(n48), std::length_error);
  EXPECT_THROW(Metrics::gauge(n48), std::length_error);
  EXPECT_THROW(Tracer::phase(n48), std::length_error);
}

TEST_F(MetricsTest, TraceSpansFeedThePhaseLatencyHistogram) {
  const PhaseId id = Tracer::phase("metrics_test_span");
  for (int i = 0; i < 5; ++i) TraceSpan span(id);
  const std::vector<HistogramStats> hists = Metrics::snapshot();
  const auto* h = find_hist(hists, "metrics_test_span_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 5u);
}

TEST_F(MetricsTest, DisabledTracerFeedsNothing) {
  Tracer::disable();
  const PhaseId id = Tracer::phase("metrics_test_disabled");
  { TraceSpan span(id); }
  Tracer::enable();
  const std::vector<HistogramStats> hists = Metrics::snapshot();
  EXPECT_EQ(find_hist(hists, "metrics_test_disabled_ns"), nullptr);
}

// ---------------------------------------------------------------------------
// Watchdog warnings.

TEST_F(MetricsTest, WatchdogChecksFireOnThresholds) {
  Watchdog::check_step(3, 1e-12, 1.0, 1.0);           // near-singular minor
  Watchdog::check_step(4, 1.0, 1e9, 1.0);             // generator growth
  Watchdog::check_step(5, 1.0, 1.0, 1.0);             // healthy: nothing
  Watchdog::check_reflection(6, 1.0 - 1e-9);          // near-unit rotation
  Watchdog::check_refine(2, true, 0.9);               // stall
  Watchdog::check_refine(10, false, 0.0);             // no convergence
  const std::vector<Warning> w = Watchdog::snapshot();
  ASSERT_EQ(w.size(), 5u);
  EXPECT_EQ(w[0].code, "near_singular_minor");
  EXPECT_EQ(w[0].step, 3);
  EXPECT_EQ(w[1].code, "generator_growth");
  EXPECT_EQ(w[2].code, "hyperbolic_rotation_near_1");
  EXPECT_EQ(w[3].code, "refine_stall");
  EXPECT_EQ(w[4].code, "refine_no_convergence");
  EXPECT_EQ(Watchdog::total(), 5u);
}

TEST_F(MetricsTest, WatchdogIsSilentWhileDisabledAndCapsTheLog) {
  Tracer::disable();
  Watchdog::warn("metrics_test_off", 0, 1.0, 2.0);
  Tracer::enable();
  EXPECT_TRUE(Watchdog::snapshot().empty());

  const std::size_t saved = Watchdog::limits().max_warnings;
  Watchdog::limits().max_warnings = 3;
  for (int i = 0; i < 10; ++i) Watchdog::warn("metrics_test_cap", i, 0.0, 0.0);
  EXPECT_EQ(Watchdog::snapshot().size(), 3u);
  EXPECT_EQ(Watchdog::total(), 10u);
  Watchdog::limits().max_warnings = saved;
}

// ---------------------------------------------------------------------------
// Report sections round-trip.

TEST_F(MetricsTest, ReportCarriesHistogramsAndWarnings) {
  const HistId id = Metrics::histogram("metrics_test_report");
  for (std::uint64_t v = 1; v <= 100; ++v) Metrics::record(id, v);
  Watchdog::warn("near_singular_minor", 7, 1e-12, 1e-10);

  PerfReport report("metrics_test");
  std::ostringstream os;
  report.write(os);
  const Json doc = parse_json(os.str());

  const Json* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const Json* h = hists->find("metrics_test_report");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->as_number(), 100.0);
  EXPECT_DOUBLE_EQ(h->find("min")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h->find("max")->as_number(), 100.0);
  EXPECT_GT(h->find("p50")->as_number(), 0.0);
  EXPECT_GE(h->find("p99")->as_number(), h->find("p50")->as_number());
  const Json* buckets = h->find("buckets");
  ASSERT_NE(buckets, nullptr);
  double bucketed = 0.0;
  for (const Json& pair : buckets->items()) {
    ASSERT_EQ(pair.items().size(), 2u);
    bucketed += pair.items()[1].as_number();
  }
  EXPECT_DOUBLE_EQ(bucketed, 100.0);

  const Json* warnings = doc.find("warnings");
  ASSERT_NE(warnings, nullptr);
  ASSERT_EQ(warnings->items().size(), 1u);
  EXPECT_EQ(warnings->items()[0].find("code")->as_string(), "near_singular_minor");
  EXPECT_DOUBLE_EQ(warnings->items()[0].find("step")->as_number(), 7.0);
  EXPECT_EQ(doc.find("warnings_dropped"), nullptr);  // nothing dropped
}

TEST_F(MetricsTest, ReportOmitsEmptyHistogramAndWarningSections) {
  PerfReport report("metrics_test_empty");
  std::ostringstream os;
  report.write(os);
  const Json doc = parse_json(os.str());
  EXPECT_EQ(doc.find("histograms"), nullptr);
  EXPECT_EQ(doc.find("warnings"), nullptr);
}

TEST_F(MetricsTest, ReportRecordsDroppedWarningCount) {
  const std::size_t saved = Watchdog::limits().max_warnings;
  Watchdog::limits().max_warnings = 2;
  for (int i = 0; i < 5; ++i) Watchdog::warn("metrics_test_drop", i, 0.0, 0.0);
  PerfReport report("metrics_test_drop");
  std::ostringstream os;
  report.write(os);
  Watchdog::limits().max_warnings = saved;
  const Json doc = parse_json(os.str());
  ASSERT_NE(doc.find("warnings"), nullptr);
  EXPECT_EQ(doc.find("warnings")->items().size(), 2u);
  ASSERT_NE(doc.find("warnings_dropped"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("warnings_dropped")->as_number(), 3.0);
}

}  // namespace
}  // namespace bst::util
