#include "util/ledger.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace bst::util {

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string build_git_revision() {
#if defined(BST_GIT_DESCRIBE)
  return BST_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

std::string fnv1a_hex(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

Json ledger_entry(const Json& report_doc) {
  Json e = Json::object();
  e.set("utc", Json::string(utc_timestamp()));
  e.set("git", Json::string(build_git_revision()));
  if (const Json* tool = report_doc.find("tool"); tool != nullptr) e.set("tool", *tool);
  if (const Json* params = report_doc.find("params"); params != nullptr) {
    e.set("params_hash", Json::string(fnv1a_hex(params->dump_compact())));
    e.set("params", *params);
  } else {
    e.set("params_hash", Json::string(fnv1a_hex("{}")));
  }
  // Beside params, not inside, so params_hash and the --trend grouping ignore it.
  if (const Json* config = report_doc.find("config"); config != nullptr) e.set("config", *config);
  if (const Json* machine = report_doc.find("machine"); machine != nullptr) {
    if (const Json* fp = machine->find("fingerprint");
        fp != nullptr && fp->kind() == Json::Kind::String) {
      e.set("machine", *fp);
    }
  }
  if (const Json* phases = report_doc.find("phases"); phases != nullptr) {
    Json out = Json::object();
    for (const auto& [name, ph] : phases->members()) {
      const Json* sec = ph.find("seconds");
      if (sec != nullptr && sec->kind() == Json::Kind::Number) out.set(name, *sec);
    }
    if (!out.members().empty()) e.set("phases", std::move(out));
  }
  // Per-phase attainment columns so --trend can gate on efficiency, not
  // just seconds (a phase can stay fast while its attainment collapses,
  // e.g. a flop-count regression masked by a faster machine).
  if (const Json* att = report_doc.find("attainment"); att != nullptr) {
    if (const Json* aphases = att->find("phases"); aphases != nullptr) {
      Json out = Json::object();
      for (const auto& [name, row] : aphases->members()) {
        const Json* a = row.find("attainment");
        if (a != nullptr && a->kind() == Json::Kind::Number) out.set(name, *a);
      }
      if (!out.members().empty()) e.set("attainment", std::move(out));
    }
  }
  if (const Json* metrics = report_doc.find("metrics"); metrics != nullptr) {
    e.set("metrics", *metrics);
  }
  // Hardware-truth columns (util/prof): run-level measured IPC and LLC
  // miss rate, summed over the report's per-phase PMU deltas.  Omitted
  // entirely when the PMU was unavailable -- trend readers skip absent
  // keys, so pre-PMU ledger lines and no-perf containers stay comparable.
  if (const Json* phases = report_doc.find("phases"); phases != nullptr) {
    auto num = [](const Json& obj, const char* key) {
      const Json* v = obj.find(key);
      return (v != nullptr && v->kind() == Json::Kind::Number) ? v->as_number() : 0.0;
    };
    double cycles = 0.0, instructions = 0.0, llc_loads = 0.0, llc_misses = 0.0;
    for (const auto& [name, ph] : phases->members()) {
      (void)name;
      cycles += num(ph, "cycles");
      instructions += num(ph, "instructions");
      llc_loads += num(ph, "llc_loads");
      llc_misses += num(ph, "llc_misses");
    }
    Json pmu = Json::object();
    if (cycles > 0.0 && instructions > 0.0) {
      pmu.set("ipc", Json::number(instructions / cycles));
    }
    if (llc_loads > 0.0) pmu.set("llc_miss_rate", Json::number(llc_misses / llc_loads));
    if (!pmu.members().empty()) e.set("pmu", std::move(pmu));
  }
  // Event counters (cache hits/misses, admissions...) ride along so a
  // trend reader can plot e.g. hit rates over time; never gated (counts
  // are workload-denominated, not time-denominated).
  if (const Json* counters = report_doc.find("counters"); counters != nullptr) {
    e.set("counters", *counters);
  }
  std::uint64_t warnings = 0;
  if (const Json* w = report_doc.find("warnings"); w != nullptr) warnings += w->items().size();
  if (const Json* d = report_doc.find("warnings_dropped");
      d != nullptr && d->kind() == Json::Kind::Number) {
    warnings += static_cast<std::uint64_t>(d->as_number());
  }
  e.set("warnings", Json::number(warnings));
  return e;
}

void append_ledger(const std::string& path, const Json& report_doc) {
  std::ofstream f(path, std::ios::app);
  if (!f) throw std::runtime_error("ledger: cannot open '" + path + "' for appending");
  ledger_entry(report_doc).write_compact(f);
  f << '\n';
}

std::vector<Json> read_ledger(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("ledger: cannot open '" + path + "'");
  std::vector<Json> out;
  std::string line;
  while (std::getline(f, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      Json e = parse_json(line);
      if (e.kind() == Json::Kind::Object) out.push_back(std::move(e));
    } catch (const std::exception&) {
      // Corrupt lines (interrupted appends) must not poison the history.
    }
  }
  return out;
}

namespace {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void collect_keys(const std::vector<const Json*>& entries, const char* section,
                  std::vector<std::string>& keys) {
  for (const Json* ep : entries) {
    const Json* obj = ep->find(section);
    if (obj == nullptr) continue;
    for (const auto& [k, v] : obj->members()) {
      if (v.kind() != Json::Kind::Number) continue;
      const std::string key = std::string(section) + "." + k;
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) keys.push_back(key);
    }
  }
}

}  // namespace

TrendReport ledger_trend(const std::vector<Json>& entries, double max_regress,
                         double min_seconds) {
  TrendReport rep;
  if (entries.empty()) return rep;

  // Cross-machine guard: compare only against history from the machine of
  // the newest entry.  Entries predating the fingerprint field (no
  // "machine" key) match anything so old ledgers keep their history.
  std::string ref_machine;
  if (const Json* m = entries.back().find("machine");
      m != nullptr && m->kind() == Json::Kind::String) {
    ref_machine = m->as_string();
  }
  // Same-solver guard: "phases.pcg" seconds and "phases.reflector_apply"
  // seconds belong to different algorithms; comparing a PCG run against a
  // Schur history (or vice versa) would flag phantom regressions.  Entries
  // predating the field (no params.solver_path) match anything.
  auto solver_path_of = [](const Json& e) -> std::string {
    const Json* params = e.find("params");
    const Json* sp = params != nullptr ? params->find("solver_path") : nullptr;
    return (sp != nullptr && sp->kind() == Json::Kind::String) ? sp->as_string() : "";
  };
  const std::string ref_path = solver_path_of(entries.back());
  std::vector<const Json*> comparable;
  for (const Json& e : entries) {
    const Json* m = e.find("machine");
    if (!ref_machine.empty() && m != nullptr && m->kind() == Json::Kind::String &&
        m->as_string() != ref_machine) {
      ++rep.skipped_machines;
      continue;
    }
    if (const std::string p = solver_path_of(e); !ref_path.empty() && !p.empty() &&
                                                 p != ref_path) {
      ++rep.skipped_paths;
      continue;
    }
    comparable.push_back(&e);
  }

  std::vector<std::string> keys;
  collect_keys(comparable, "phases", keys);
  collect_keys(comparable, "metrics", keys);
  collect_keys(comparable, "attainment", keys);
  // "pmu" series are informational (not gated below): entries that predate
  // the hardware-truth columns, or ran where perf was denied, simply lack
  // the key and drop out of the series instead of failing the trend.
  collect_keys(comparable, "pmu", keys);
  std::sort(keys.begin(), keys.end());

  for (const std::string& key : keys) {
    const std::size_t dot = key.find('.');
    const std::string section = key.substr(0, dot), name = key.substr(dot + 1);
    TrendStat st;
    st.key = key;
    for (const Json* e : comparable) {
      const Json* obj = e->find(section);
      const Json* v = obj != nullptr ? obj->find(name) : nullptr;
      if (v != nullptr && v->kind() == Json::Kind::Number) st.values.push_back(v->as_number());
    }
    if (st.values.empty()) continue;
    st.min = *std::min_element(st.values.begin(), st.values.end());
    st.median = median_of(st.values);
    st.last = st.values.back();
    st.baseline = st.values.size() > 1
                      ? median_of({st.values.begin(), st.values.end() - 1})
                      : st.last;
    st.rel = st.baseline > 0.0 ? (st.last - st.baseline) / st.baseline : 0.0;
    // Only time-denominated and attainment series can *fail* the gate;
    // counters and residuals are informational (a residual rising is a
    // watchdog matter, not a perf regression).
    st.higher_is_better = section == "attainment";
    st.gated = section == "phases" || section == "attainment" || key == "metrics.time_s" ||
               key == "metrics.sim_seconds";
    if (st.gated && st.values.size() > 1) rep.insufficient_history = false;
    if (st.higher_is_better) {
      // Attainment is a fraction; the seconds noise floor does not apply.
      st.regressed = st.gated && max_regress >= 0.0 && st.values.size() > 1 &&
                     st.baseline > 0.0 && st.rel < -max_regress;
    } else {
      st.regressed = st.gated && max_regress >= 0.0 && st.values.size() > 1 &&
                     st.baseline >= min_seconds && st.rel > max_regress;
    }
    if (st.regressed) ++rep.regressions;
    rep.series.push_back(std::move(st));
  }
  return rep;
}

}  // namespace bst::util
