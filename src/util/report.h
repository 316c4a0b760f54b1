// JSON perf reports with a stable schema.
//
// Every instrumented binary (tools/bst_solve --profile, the bench_fig*
// harnesses) emits the same machine-readable document so perf trajectories
// can be diffed across commits:
//
//   {
//     "schema_version": 1,
//     "tool":    "<binary name>",
//     "params":  { ... run parameters (n, m, rep, np, ...) },
//     "config":  { "<BST_* name>": "<value>", ... },  (set variables; {} = none)
//     "machine": { "hardware_concurrency": N, "pointer_bits": 64,
//                  "cpu_model": "...", "fingerprint": "<fnv1a>" },
//     "build":   { "compiler": "...", "build_type": "...", "flags": "...",
//                  "cxx": 202002 },
//     "phases":  { "<phase>": {"calls","seconds","flops","bytes"}, ... },
//     "steps":   [ {"step","min_hnorm","max_generator"}, ... ],
//     "histograms": { "<name>": {"count","min","max","mean",
//                                "p50","p95","p99", "buckets": [[lo,c],...]} },
//     "warnings": [ {"code","step","value","threshold"}, ... ],
//     "counters": { "<name>": value, ... },   (+ synthetic "metrics_dropped")
//     "gauges":   { "<name>": value, ... },   (nonzero readings at write time)
//     "threads": [ {"busy_seconds","idle_seconds","chunks"}, ... ],
//     "comm":    [ {"bytes_sent","bytes_recv","messages"}, ... ],
//     "pe_timeline":   { "makespan", "imbalance", "per_pe": [...] },
//     "comm_matrix":   { "bytes": [[...], ...] },
//     "critical_path": { "seconds","slack","by_kind", "segments": [...] },
//     "attainment":    { "calibration": {...}, "phases": { "<phase>":
//                        {"gflops","intensity","ceiling_gflops","attainment",
//                         "model_ratio",...} }, "obs_overhead_frac", ... },
//     "metrics": { ... scalar results (time_s, residual, ...) },
//     "tables":  [ {"title","columns",  "rows": [[...], ...]}, ... ]
//   }
//
// "phases"/"steps" come from util::Tracer; "histograms" from util::Metrics
// (log-bucketed latency/size distributions); "warnings" from the
// numerical-health watchdog (util/watchdog.h); "threads" from the
// ThreadPool worker stats; "comm" from the simulated Machine's per-PE
// counters; "config" from util/env.h.  Empty sections are omitted, except
// "config", whose {} records that every setting was at its default.  docs/OBSERVABILITY.md documents
// the schema and its compatibility rules (additive changes only -- which is
// why "histograms"/"warnings" did not bump schema_version; removals do).
//
// The Json value + parser here are deliberately minimal (objects, arrays,
// strings, numbers, bools, null; UTF-8 passed through) -- enough to write
// reports and to round-trip them in tests without an external dependency.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/par_analysis.h"
#include "util/table.h"

namespace bst::util {

/// Bumped when a field is removed or its meaning changes; adding fields is
/// a compatible change and does not bump it.
inline constexpr int kReportSchemaVersion = 1;

/// Minimal JSON document tree.
class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(double v);
  static Json number(std::uint64_t v);
  static Json number(std::int64_t v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] const std::vector<Json>& items() const { return arr_; }
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const { return obj_; }

  /// Array append / object set (set replaces an existing key).
  void push(Json v);
  void set(const std::string& key, Json v);

  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;

  /// Serializes with 2-space indentation and full string escaping.
  void write(std::ostream& os, int indent = 0) const;
  [[nodiscard]] std::string dump() const;

  /// Serializes without any whitespace (one line; the ledger entry format).
  void write_compact(std::ostream& os) const;
  [[nodiscard]] std::string dump_compact() const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Parses a JSON document (throws std::runtime_error on malformed input).
Json parse_json(const std::string& text);

/// Assembles the standard report document.  The tracer sections are pulled
/// from util::Tracer at write time; callers add run parameters, scalar
/// metrics and result tables.
class PerfReport {
 public:
  explicit PerfReport(std::string tool);

  /// Run parameters (the "params" section).
  void param(const std::string& key, const std::string& value);
  void param(const std::string& key, std::int64_t value);
  void param(const std::string& key, double value);

  /// Scalar results (the "metrics" section).
  void metric(const std::string& key, double value);

  /// Attaches a result table (columns + typed rows).
  void add_table(const Table& table);

  /// Attaches one per-worker {busy_seconds, idle_seconds, chunks} entry.
  void add_thread(double busy_seconds, double idle_seconds, std::uint64_t chunks);

  /// Attaches one per-PE {bytes_sent, bytes_recv, messages} entry.
  void add_pe_comm(double bytes_sent, double bytes_recv, double messages);

  /// Attaches the parallel-schedule sections derived by analyze_schedule():
  /// "pe_timeline" (per-PE busy/comm/idle breakdown + imbalance index),
  /// "comm_matrix" (PE x PE payload bytes) and "critical_path" (the
  /// phase-attributed longest chain; see docs/OBSERVABILITY.md).
  void add_par_analysis(const ParAnalysis& a);

  /// Attaches the model-attainment section (util::attainment_section());
  /// emitted verbatim as "attainment" (additive, schema stays v1).
  void set_attainment(Json attainment);

  /// Attaches an arbitrary additive top-level section (e.g. "service" from
  /// service::Service::stats_json()).  Replaces an earlier section of the
  /// same key; the key must not collide with a built-in section name.
  void set_extra(const std::string& key, Json value);

  /// Builds the document: schema header, machine/build info, the Tracer's
  /// phases and step diagnostics (when `include_tracer`), and everything
  /// attached above.
  [[nodiscard]] Json build(bool include_tracer = true) const;

  /// build() + serialize.  write_file throws std::runtime_error when the
  /// path cannot be opened.
  void write(std::ostream& os, bool include_tracer = true) const;
  void write_file(const std::string& path, bool include_tracer = true) const;

 private:
  std::string tool_;
  Json params_ = Json::object();
  Json metrics_ = Json::object();
  Json tables_ = Json::array();
  Json threads_ = Json::array();
  Json comm_ = Json::array();
  Json pe_timeline_ = Json::null();
  Json comm_matrix_ = Json::null();
  Json critical_path_ = Json::null();
  Json attainment_ = Json::null();
  Json extra_ = Json::object();
};

}  // namespace bst::util
