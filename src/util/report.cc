#include "util/report.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/calibrate.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/prof.h"
#include "util/trace.h"
#include "util/watchdog.h"

namespace bst::util {

// ----- Json value ----------------------------------------------------------

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::Number;
  j.num_ = v;
  return j;
}

Json Json::number(std::uint64_t v) { return number(static_cast<double>(v)); }
Json Json::number(std::int64_t v) { return number(static_cast<double>(v)); }

Json Json::string(std::string s) {
  Json j;
  j.kind_ = Kind::String;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

void Json::push(Json v) { arr_.push_back(std::move(v)); }

void Json::set(const std::string& key, Json v) {
  for (auto& [k, val] : obj_) {
    if (k == key) {
      val = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan: encode as null (documented in OBSERVABILITY.md).
    os << "null";
    return;
  }
  // Integral values print without an exponent or trailing ".0" so counters
  // stay exact and diffable.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    os << buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void indent_to(std::ostream& os, int n) {
  for (int i = 0; i < n; ++i) os << ' ';
}

}  // namespace

void Json::write(std::ostream& os, int indent) const {
  switch (kind_) {
    case Kind::Null: os << "null"; return;
    case Kind::Bool: os << (bool_ ? "true" : "false"); return;
    case Kind::Number: write_number(os, num_); return;
    case Kind::String: write_escaped(os, str_); return;
    case Kind::Array: {
      if (arr_.empty()) {
        os << "[]";
        return;
      }
      os << "[\n";
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        indent_to(os, indent + 2);
        arr_[i].write(os, indent + 2);
        if (i + 1 < arr_.size()) os << ',';
        os << '\n';
      }
      indent_to(os, indent);
      os << ']';
      return;
    }
    case Kind::Object: {
      if (obj_.empty()) {
        os << "{}";
        return;
      }
      os << "{\n";
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        indent_to(os, indent + 2);
        write_escaped(os, obj_[i].first);
        os << ": ";
        obj_[i].second.write(os, indent + 2);
        if (i + 1 < obj_.size()) os << ',';
        os << '\n';
      }
      indent_to(os, indent);
      os << '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

void Json::write_compact(std::ostream& os) const {
  switch (kind_) {
    case Kind::Null: os << "null"; return;
    case Kind::Bool: os << (bool_ ? "true" : "false"); return;
    case Kind::Number: write_number(os, num_); return;
    case Kind::String: write_escaped(os, str_); return;
    case Kind::Array: {
      os << '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) os << ',';
        arr_[i].write_compact(os);
      }
      os << ']';
      return;
    }
    case Kind::Object: {
      os << '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) os << ',';
        write_escaped(os, obj_[i].first);
        os << ':';
        obj_[i].second.write_compact(os);
      }
      os << '}';
      return;
    }
  }
}

std::string Json::dump_compact() const {
  std::ostringstream os;
  write_compact(os);
  return os.str();
}

// ----- parser --------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("parse_json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return Json::string(string_body());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Json::boolean(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Json::boolean(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Json::null();
    }
    return number();
  }

  Json object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = string_body();
      skip_ws();
      expect(':');
      obj.set(key, value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string string_body() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The writer only emits \u for control characters; decode the
          // BMP code point as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    try {
      return Json::number(std::stod(s_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      fail("bad number");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Json parse_json(const std::string& text) { return Parser(text).parse(); }

// ----- PerfReport ----------------------------------------------------------

PerfReport::PerfReport(std::string tool) : tool_(std::move(tool)) {}

void PerfReport::param(const std::string& key, const std::string& value) {
  params_.set(key, Json::string(value));
}

void PerfReport::param(const std::string& key, std::int64_t value) {
  params_.set(key, Json::number(value));
}

void PerfReport::param(const std::string& key, double value) {
  params_.set(key, Json::number(value));
}

void PerfReport::metric(const std::string& key, double value) {
  metrics_.set(key, Json::number(value));
}

void PerfReport::add_table(const Table& table) {
  Json t = Json::object();
  t.set("title", Json::string(table.title()));
  Json cols = Json::array();
  for (const std::string& h : table.header_labels()) cols.push(Json::string(h));
  t.set("columns", std::move(cols));
  Json rows = Json::array();
  for (const auto& r : table.data()) {
    Json row = Json::array();
    for (const Cell& c : r) {
      if (std::holds_alternative<std::string>(c)) {
        row.push(Json::string(std::get<std::string>(c)));
      } else if (std::holds_alternative<long long>(c)) {
        row.push(Json::number(static_cast<std::int64_t>(std::get<long long>(c))));
      } else {
        row.push(Json::number(std::get<double>(c)));
      }
    }
    rows.push(std::move(row));
  }
  t.set("rows", std::move(rows));
  tables_.push(std::move(t));
}

void PerfReport::add_thread(double busy_seconds, double idle_seconds, std::uint64_t chunks) {
  Json t = Json::object();
  t.set("busy_seconds", Json::number(busy_seconds));
  t.set("idle_seconds", Json::number(idle_seconds));
  t.set("chunks", Json::number(chunks));
  threads_.push(std::move(t));
}

void PerfReport::add_pe_comm(double bytes_sent, double bytes_recv, double messages) {
  Json p = Json::object();
  p.set("bytes_sent", Json::number(bytes_sent));
  p.set("bytes_recv", Json::number(bytes_recv));
  p.set("messages", Json::number(messages));
  comm_.push(std::move(p));
}

void PerfReport::add_par_analysis(const ParAnalysis& a) {
  Json tl = Json::object();
  tl.set("makespan", Json::number(a.makespan));
  tl.set("imbalance", Json::number(a.imbalance));
  Json per_pe = Json::array();
  for (const PeUsage& u : a.per_pe) {
    Json p = Json::object();
    p.set("compute", Json::number(u.compute));
    p.set("send", Json::number(u.send));
    p.set("recv", Json::number(u.recv));
    p.set("broadcast", Json::number(u.broadcast));
    p.set("barrier", Json::number(u.barrier));
    p.set("idle", Json::number(u.idle));
    per_pe.push(std::move(p));
  }
  tl.set("per_pe", std::move(per_pe));
  pe_timeline_ = std::move(tl);

  Json cm = Json::object();
  Json rows = Json::array();
  for (const auto& row : a.comm_matrix) {
    Json r = Json::array();
    for (const double v : row) r.push(Json::number(v));
    rows.push(std::move(r));
  }
  cm.set("bytes", std::move(rows));
  comm_matrix_ = std::move(cm);

  Json cp = Json::object();
  cp.set("seconds", Json::number(a.critical_path_seconds));
  cp.set("slack", Json::number(a.critical_slack));
  cp.set("consistent", Json::boolean(a.consistent()));
  Json by_kind = Json::object();
  for (std::size_t k = 0; k < a.critical_by_kind.size(); ++k) {
    if (a.critical_by_kind[k] > 0.0) {
      by_kind.set(to_string(static_cast<SpanKind>(k)), Json::number(a.critical_by_kind[k]));
    }
  }
  cp.set("by_kind", std::move(by_kind));
  Json segs = Json::array();
  for (const CritSegment& seg : a.critical_path) {
    Json j = Json::object();
    j.set("pe", Json::number(static_cast<std::int64_t>(seg.pe)));
    j.set("kind", Json::string(to_string(seg.kind)));
    j.set("first_step", Json::number(seg.first_step));
    j.set("last_step", Json::number(seg.last_step));
    j.set("seconds", Json::number(seg.seconds));
    segs.push(std::move(j));
  }
  cp.set("segments", std::move(segs));
  critical_path_ = std::move(cp);
}

void PerfReport::set_attainment(Json attainment) { attainment_ = std::move(attainment); }

void PerfReport::set_extra(const std::string& key, Json value) { extra_.set(key, std::move(value)); }

Json PerfReport::build(bool include_tracer) const {
  Json root = Json::object();
  root.set("schema_version", Json::number(static_cast<std::int64_t>(kReportSchemaVersion)));
  root.set("tool", Json::string(tool_));
  if (!params_.members().empty()) root.set("params", params_);
  // The BST_* settings in effect (always present: {} means all defaults).
  Json config = Json::object();
  for (auto& [name, value] : env::in_effect()) config.set(name, Json::string(std::move(value)));
  root.set("config", std::move(config));

  Json machine = Json::object();
  machine.set("hardware_concurrency",
              Json::number(static_cast<std::uint64_t>(std::thread::hardware_concurrency())));
  machine.set("pointer_bits", Json::number(static_cast<std::uint64_t>(8 * sizeof(void*))));
  // Provenance so cross-machine trend comparisons can be detected and
  // skipped (util/calibrate.h; the fingerprint also keys calibration
  // caches and rides into every ledger line).
  machine.set("cpu_model", Json::string(cpu_model_name()));
  machine.set("fingerprint", Json::string(machine_fingerprint()));
  root.set("machine", std::move(machine));

  Json buildinfo = Json::object();
#if defined(__VERSION__)
  buildinfo.set("compiler", Json::string(__VERSION__));
#endif
#if defined(BST_BUILD_TYPE)
  buildinfo.set("build_type", Json::string(BST_BUILD_TYPE));
#endif
#if defined(BST_CXX_FLAGS)
  buildinfo.set("flags", Json::string(BST_CXX_FLAGS));
#endif
  buildinfo.set("cxx", Json::number(static_cast<std::int64_t>(__cplusplus)));
  root.set("build", std::move(buildinfo));

  if (include_tracer) {
    // Every snapshot comes in name order (phase interning, histogram
    // registration and warning arrival orders all depend on thread timing),
    // so identical runs serialize byte-identically and bst_report diffs
    // stay stable.
    Json phases = Json::object();
    for (const PhaseStats& ps : Tracer::snapshot()) {
      Json p = Json::object();
      p.set("calls", Json::number(ps.calls));
      p.set("seconds", Json::number(ps.seconds));
      p.set("flops", Json::number(ps.flops));
      p.set("bytes", Json::number(ps.bytes));
      // Hardware truth (util/prof): phases whose spans took PMU deltas
      // carry the measured counters next to the modeled flops/bytes.
      // `measured_bytes` estimates DRAM traffic as LLC misses x 64-byte
      // lines; attainment_section() joins it against the modeled bytes.
      if (ps.pmu_spans > 0) {
        const PmuCounts& c = ps.pmu;
        p.set("cycles", Json::number(c.cycles));
        p.set("instructions", Json::number(c.instructions));
        if (c.cycles > 0) {
          p.set("ipc", Json::number(static_cast<double>(c.instructions) /
                                    static_cast<double>(c.cycles)));
        }
        p.set("stalled_cycles", Json::number(c.stalled_cycles));
        p.set("branch_misses", Json::number(c.branch_misses));
        p.set("l1d_loads", Json::number(c.l1d_loads));
        p.set("l1d_misses", Json::number(c.l1d_misses));
        if (c.l1d_loads > 0) {
          p.set("l1d_miss_rate", Json::number(static_cast<double>(c.l1d_misses) /
                                              static_cast<double>(c.l1d_loads)));
        }
        p.set("llc_loads", Json::number(c.llc_loads));
        p.set("llc_misses", Json::number(c.llc_misses));
        if (c.llc_loads > 0) {
          p.set("llc_miss_rate", Json::number(static_cast<double>(c.llc_misses) /
                                              static_cast<double>(c.llc_loads)));
        }
        p.set("measured_bytes", Json::number(c.llc_misses * 64));
      }
      phases.set(ps.name, std::move(p));
    }
    if (!phases.members().empty()) root.set("phases", std::move(phases));
    if (Prof::was_armed()) root.set("prof", Prof::section_json());

    Json steps = Json::array();
    for (const StepDiag& sd : Tracer::steps()) {
      Json s = Json::object();
      s.set("step", Json::number(static_cast<std::int64_t>(sd.step)));
      s.set("min_hnorm", Json::number(sd.min_hnorm));
      s.set("max_generator", Json::number(sd.max_generator));
      steps.push(std::move(s));
    }
    if (!steps.items().empty()) root.set("steps", std::move(steps));

    Json hists = Json::object();
    for (const HistogramStats& hs : Metrics::snapshot()) {
      Json h = Json::object();
      h.set("count", Json::number(hs.count));
      h.set("min", Json::number(hs.min));
      h.set("max", Json::number(hs.max));
      h.set("mean", Json::number(hs.mean()));
      h.set("p50", Json::number(hs.p50));
      h.set("p95", Json::number(hs.p95));
      h.set("p99", Json::number(hs.p99));
      Json buckets = Json::array();
      for (const auto& [lo, c] : hs.buckets) {
        Json b = Json::array();
        b.push(Json::number(lo));
        b.push(Json::number(c));
        buckets.push(std::move(b));
      }
      h.set("buckets", std::move(buckets));
      hists.set(hs.name, std::move(h));
    }
    if (!hists.members().empty()) root.set("histograms", std::move(hists));

    Json warnings = Json::array();
    std::vector<Warning> warns = Watchdog::snapshot();
    std::sort(warns.begin(), warns.end(), [](const Warning& x, const Warning& y) {
      if (x.step != y.step) return x.step < y.step;
      if (x.code != y.code) return x.code < y.code;
      if (x.value != y.value) return x.value < y.value;
      return x.threshold < y.threshold;
    });
    for (const Warning& w : warns) {
      Json j = Json::object();
      j.set("code", Json::string(w.code));
      j.set("step", Json::number(static_cast<std::int64_t>(w.step)));
      j.set("value", Json::number(w.value));
      j.set("threshold", Json::number(w.threshold));
      warnings.push(std::move(j));
    }
    const std::uint64_t kept = warnings.items().size();
    if (kept > 0) root.set("warnings", std::move(warnings));
    const std::uint64_t dropped = Watchdog::total() - std::min(Watchdog::total(), kept);
    if (dropped > 0) root.set("warnings_dropped", Json::number(dropped));
  }

  // Counters accumulate whether or not the tracer ran (like the pool's
  // chunk counts), so they are reported even in an untraced run.
  Json counters = Json::object();
  for (const CounterStats& cs : Metrics::counters_snapshot()) {
    counters.set(cs.name, Json::number(cs.value));
  }
  if (!counters.members().empty()) root.set("counters", std::move(counters));

  // Gauges are instantaneous, so the report records them as "state at write
  // time" -- nonzero readings only, to keep single-run reports quiet.
  Json gauges = Json::object();
  for (const GaugeStats& gs : Metrics::gauges_snapshot()) {
    if (gs.value != 0) gauges.set(gs.name, Json::number(gs.value));
  }
  if (!gauges.members().empty()) root.set("gauges", std::move(gauges));

  for (const auto& [key, value] : extra_.members()) root.set(key, value);
  if (!threads_.items().empty()) root.set("threads", threads_);
  if (!comm_.items().empty()) root.set("comm", comm_);
  if (pe_timeline_.kind() == Json::Kind::Object) root.set("pe_timeline", pe_timeline_);
  if (comm_matrix_.kind() == Json::Kind::Object) root.set("comm_matrix", comm_matrix_);
  if (critical_path_.kind() == Json::Kind::Object) root.set("critical_path", critical_path_);
  if (attainment_.kind() == Json::Kind::Object) root.set("attainment", attainment_);
  if (!metrics_.members().empty()) root.set("metrics", metrics_);
  if (!tables_.items().empty()) root.set("tables", tables_);
  return root;
}

void PerfReport::write(std::ostream& os, bool include_tracer) const {
  build(include_tracer).write(os);
  os << '\n';
}

void PerfReport::write_file(const std::string& path, bool include_tracer) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("PerfReport: cannot open '" + path + "' for writing");
  write(f, include_tracer);
}

}  // namespace bst::util
