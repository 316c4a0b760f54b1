// bst_report: pretty-printer and perf-regression gate for the schema-v1
// JSON reports every instrumented binary emits (util/report.h).
//
//   bst_report one.json
//       Pretty-prints the report: params, metrics, per-phase table,
//       histogram percentiles, warnings, thread utilization.
//
//   bst_report one.json --pe
//       Additionally prints the parallel-run sections (per-PE timeline
//       summary, PE x PE communication matrix, critical path) captured by
//       simnet runs.
//
//   bst_report --baseline=a.json --candidate=b.json
//              [--max-regress=50%] [--min-seconds=1e-3]
//       Diffs two reports: per-phase seconds/flops/bytes deltas, histogram
//       percentile shifts, warning-count changes.  Exits 3 when any phase
//       present in both reports slowed down by more than --max-regress
//       (a fraction, or a percentage with a '%' suffix) -- phases whose
//       baseline is below --min-seconds are skipped as noise.  This is the
//       perf gate CI runs between a trunk baseline and a candidate.
//
//   bst_report --trend=runs.jsonl [--max-regress=50%] [--min-seconds=1e-3]
//       Trend view over a perf ledger (util/ledger.h): per-series
//       min/median/last with an ASCII sparkline of the history.  Exits 3
//       when the *last* entry of any gated series (phase seconds,
//       metrics.time_s/sim_seconds, attainment fractions -- which gate on
//       *drops*) regresses past --max-regress relative to the rolling
//       median of the prior entries.  Entries from other machines
//       (fingerprint mismatch vs the newest entry) are skipped, and a
//       single-entry ledger reports "insufficient history" and exits 0.
//
//   bst_report one.json --prof [--max-bytes-skew=8]
//       Hardware-truth view of a report produced under --prof: per-phase
//       PMU table (cycles, IPC, stall and miss rates, measured DRAM bytes
//       vs the modeled byte counts), sampling-profiler summary and the top
//       folded stacks.  With --max-bytes-skew=F, exits 3 when any phase's
//       measured/modeled byte ratio (either direction) exceeds F -- the
//       measured-vs-modeled gate.  When the report says the PMU was
//       unavailable (containers, CI runners), the view still renders the
//       sampler side and the gate passes vacuously.
//
//   bst_report one.json --roofline
//       ASCII log-log roofline of the report's attainment section: the
//       calibrated memory-bandwidth and peak-GFLOP/s ceilings with each
//       traced phase plotted at (arithmetic intensity, achieved GFLOP/s).
//       Requires a report produced under --calibrate (exit 1 otherwise).
//
//   bst_report --attain --baseline=a.json --candidate=b.json
//              [--max-attain-drop=10%]
//       Diffs the *attainment* (roofline fraction) per phase instead of raw
//       seconds: exits 3 when any phase's attainment dropped by more than
//       --max-attain-drop relative to the baseline, 2 when either report
//       lacks an attainment section (malformed for this mode).
//
// Exit codes: 0 ok, 1 error (unreadable/malformed input), 2 usage or
// missing-section in --attain mode, 3 regression past the threshold.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/ledger.h"
#include "util/report.h"
#include "util/table.h"

using bst::util::Json;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

Json load_report(const std::string& path) {
  Json doc = bst::util::parse_json(slurp(path));
  if (doc.kind() != Json::Kind::Object || doc.find("schema_version") == nullptr) {
    throw std::runtime_error("'" + path + "' is not a perf report (no schema_version)");
  }
  return doc;
}

double num_or(const Json* j, double fallback) {
  return (j != nullptr && j->kind() == Json::Kind::Number) ? j->as_number() : fallback;
}

// Field of an object-valued member, e.g. field(phase, "seconds").
double field(const Json& obj, const std::string& key, double fallback = 0.0) {
  return num_or(obj.find(key), fallback);
}

std::string fmt(double v) {
  char buf[48];
  if (v == 0.0) return "0";
  const double a = std::fabs(v);
  if (a >= 1e6 || a < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.3e", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.4g", v);
  }
  return buf;
}

std::string pct(double rel) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%+.1f%%", rel * 100.0);
  return buf;
}

// ---------------------------------------------------------------------------
// Pretty printing
// ---------------------------------------------------------------------------

void print_kv_object(const Json& doc, const char* section, const char* title) {
  const Json* obj = doc.find(section);
  if (obj == nullptr || obj->members().empty()) return;
  std::cout << title << "\n";
  for (const auto& [k, v] : obj->members()) {
    std::cout << "  " << k << " = ";
    switch (v.kind()) {
      case Json::Kind::Number: std::cout << fmt(v.as_number()); break;
      case Json::Kind::String: std::cout << v.as_string(); break;
      case Json::Kind::Bool: std::cout << (v.as_bool() ? "true" : "false"); break;
      default: std::cout << v.dump(); break;
    }
    std::cout << "\n";
  }
}

// One prominent line for the solver-crossover outcome: which family the
// policy picked, why, and (on the PCG route) how many iterations it took.
// The raw fields still appear under params/metrics; this line saves the
// reader from joining the two sections by hand.
void print_solver_route(const Json& doc) {
  const Json* params = doc.find("params");
  const Json* sp = params != nullptr ? params->find("solver_path") : nullptr;
  if (sp == nullptr || sp->kind() != Json::Kind::String) return;
  std::cout << "solver: " << sp->as_string();
  if (const Json* reason = params->find("policy_reason");
      reason != nullptr && reason->kind() == Json::Kind::String &&
      !reason->as_string().empty()) {
    std::cout << " (" << reason->as_string() << ")";
  }
  if (const Json* metrics = doc.find("metrics"); metrics != nullptr) {
    const double iters = field(*metrics, "pcg_iterations", 0.0);
    if (iters > 0) std::cout << ", " << fmt(iters) << " pcg iterations";
    if (const Json* ce = metrics->find("condest");
        ce != nullptr && ce->kind() == Json::Kind::Number) {
      std::cout << ", condest " << fmt(ce->as_number());
    }
  }
  std::cout << "\n";
}

// The "service" section (bench_service / bst::service::Service::stats_json)
// is one level deeper than params/metrics: cache/queue/batch sub-objects.
void print_service(const Json& doc) {
  const Json* svc = doc.find("service");
  if (svc == nullptr || svc->members().empty()) return;
  std::cout << "service\n";
  for (const auto& [group, obj] : svc->members()) {
    std::cout << "  " << group << ":";
    for (const auto& [k, v] : obj.members()) {
      std::cout << " " << k << "=";
      switch (v.kind()) {
        case Json::Kind::Number: std::cout << fmt(v.as_number()); break;
        case Json::Kind::Bool: std::cout << (v.as_bool() ? "true" : "false"); break;
        default: std::cout << v.dump(); break;
      }
    }
    std::cout << "\n";
  }
}

void print_phases(const Json& doc) {
  const Json* phases = doc.find("phases");
  if (phases == nullptr || phases->members().empty()) return;
  std::printf("phases\n  %-24s %10s %12s %14s %14s %10s\n", "phase", "calls", "seconds",
              "flops", "bytes", "GF/s");
  for (const auto& [name, ph] : phases->members()) {
    const double sec = field(ph, "seconds");
    const double flops = field(ph, "flops");
    std::printf("  %-24s %10s %12s %14s %14s %10s\n", name.c_str(),
                fmt(field(ph, "calls")).c_str(), fmt(sec).c_str(), fmt(flops).c_str(),
                fmt(field(ph, "bytes")).c_str(),
                sec > 0.0 ? fmt(flops / sec / 1e9).c_str() : "-");
  }
}

void print_histograms(const Json& doc) {
  const Json* hists = doc.find("histograms");
  if (hists == nullptr || hists->members().empty()) return;
  std::printf("histograms\n  %-28s %10s %12s %12s %12s %12s\n", "histogram", "count", "p50",
              "p95", "p99", "max");
  for (const auto& [name, h] : hists->members()) {
    std::printf("  %-28s %10s %12s %12s %12s %12s\n", name.c_str(),
                fmt(field(h, "count")).c_str(), fmt(field(h, "p50")).c_str(),
                fmt(field(h, "p95")).c_str(), fmt(field(h, "p99")).c_str(),
                fmt(field(h, "max")).c_str());
  }
}

std::map<std::string, std::size_t> warning_counts(const Json& doc) {
  std::map<std::string, std::size_t> counts;
  const Json* warnings = doc.find("warnings");
  if (warnings == nullptr) return counts;
  for (const Json& w : warnings->items()) {
    const Json* code = w.find("code");
    if (code != nullptr && code->kind() == Json::Kind::String) ++counts[code->as_string()];
  }
  return counts;
}

void print_warnings(const Json& doc) {
  const auto counts = warning_counts(doc);
  if (counts.empty()) return;
  std::cout << "warnings\n";
  for (const auto& [code, n] : counts) std::cout << "  " << code << " x" << n << "\n";
  const Json* dropped = doc.find("warnings_dropped");
  if (dropped != nullptr && dropped->as_number() > 0) {
    std::cout << "  (+" << fmt(dropped->as_number()) << " dropped past the cap)\n";
  }
}

void print_threads(const Json& doc) {
  const Json* threads = doc.find("threads");
  if (threads == nullptr || threads->items().empty()) return;
  double busy = 0.0, idle = 0.0, chunks = 0.0;
  for (const Json& t : threads->items()) {
    busy += field(t, "busy_seconds");
    idle += field(t, "idle_seconds");
    chunks += field(t, "chunks");
  }
  std::cout << "threads: " << threads->items().size() << " slots, busy " << fmt(busy)
            << "s, idle " << fmt(idle) << "s, " << fmt(chunks) << " chunks\n";
}

void print_attainment(const Json& doc) {
  const Json* att = doc.find("attainment");
  if (att == nullptr) return;
  const Json* cal = att->find("calibration");
  if (cal != nullptr) {
    std::printf("attainment (calibrated: peak %s GF/s, stream %s GB/s, span %s ns)\n",
                fmt(field(*cal, "peak_gflops")).c_str(), fmt(field(*cal, "stream_gbs")).c_str(),
                fmt(field(*cal, "span_overhead_ns")).c_str());
  } else {
    std::printf("attainment (uncalibrated: model ratios only)\n");
  }
  const Json* phases = att->find("phases");
  if (phases != nullptr && !phases->members().empty()) {
    std::printf("  %-24s %9s %9s %9s %8s %8s %8s\n", "phase", "GF/s", "F/byte", "ceiling",
                "attain", "model", "paper");
    for (const auto& [name, r] : phases->members()) {
      auto cell = [&](const char* key, double scale) {
        const Json* v = r.find(key);
        return v != nullptr ? fmt(v->as_number() * scale) : std::string("-");
      };
      std::printf("  %-24s %9s %9s %9s %8s %8s %8s\n", name.c_str(), cell("gflops", 1).c_str(),
                  cell("intensity", 1).c_str(), cell("ceiling_gflops", 1).c_str(),
                  (r.find("attainment") != nullptr ? pct(field(r, "attainment"))
                                                   : std::string("-"))
                      .c_str(),
                  cell("model_ratio", 1).c_str(), cell("paper_ratio", 1).c_str());
    }
  }
  if (const Json* be = att->find("backward_error"); be != nullptr) {
    std::printf("  backward_error %s\n", fmt(be->as_number()).c_str());
  }
  if (const Json* of = att->find("obs_overhead_frac"); of != nullptr) {
    std::printf("  observability: %s spans, %ss overhead (%s of makespan, budget 3%%)\n",
                fmt(field(*att, "span_calls")).c_str(), fmt(field(*att, "obs_overhead_s")).c_str(),
                pct(of->as_number()).c_str());
  }
}

// ---------------------------------------------------------------------------
// Hardware-truth (prof) view
// ---------------------------------------------------------------------------

int prof_report(const std::string& path, double max_bytes_skew, double min_seconds) {
  const Json doc = load_report(path);
  const Json* prof = doc.find("prof");
  if (prof == nullptr) {
    std::fprintf(stderr,
                 "bst_report: '%s' has no prof section; produce it with "
                 "`bst_solve ... --prof --profile=%s`\n",
                 path.c_str(), path.c_str());
    return 2;
  }
  const Json* pmu = prof->find("pmu");
  const Json* avail = pmu != nullptr ? pmu->find("available") : nullptr;
  const bool available = avail != nullptr && avail->kind() == Json::Kind::Bool &&
                         avail->as_bool();
  const Json* status = pmu != nullptr ? pmu->find("status") : nullptr;
  std::printf("prof: %s\n", path.c_str());
  std::printf("  pmu: %s",
              status != nullptr ? status->as_string().c_str() : "(no status)");
  if (available && pmu != nullptr) {
    std::printf(" (%s thread(s) measured)", fmt(field(*pmu, "threads")).c_str());
  }
  std::printf("\n");

  int regressions = 0;
  const Json* phases = doc.find("phases");
  if (available && phases != nullptr) {
    std::printf("  %-24s %11s %7s %7s %7s %7s %10s %10s\n", "phase", "cycles", "IPC",
                "stall%", "br/Ki", "LLC%", "meas MB", "meas/model");
    for (const auto& [name, ph] : phases->members()) {
      const double cycles = field(ph, "cycles");
      if (cycles <= 0.0) continue;
      const double instr = field(ph, "instructions");
      const double stalled = field(ph, "stalled_cycles");
      const double brm = field(ph, "branch_misses");
      const double measured = field(ph, "measured_bytes");
      const double modeled = field(ph, "bytes");
      const double ratio = modeled > 0.0 && measured > 0.0 ? measured / modeled : 0.0;
      const Json* llc = ph.find("llc_miss_rate");
      // Skew in either direction matters: measured >> model means the
      // roofline was fed too little traffic, measured << model too much.
      const double skew = ratio > 0.0 ? std::max(ratio, 1.0 / ratio) : 0.0;
      const bool gated = max_bytes_skew >= 0.0 && skew > max_bytes_skew &&
                         field(ph, "seconds") >= min_seconds;
      if (gated) ++regressions;
      std::printf("  %-24s %11s %7s %7s %7s %7s %10s %10s%s\n", name.c_str(),
                  fmt(cycles).c_str(),
                  cycles > 0.0 ? fmt(instr / cycles).c_str() : "-",
                  cycles > 0.0 ? fmt(100.0 * stalled / cycles).c_str() : "-",
                  instr > 0.0 ? fmt(1024.0 * brm / instr).c_str() : "-",
                  llc != nullptr ? fmt(100.0 * llc->as_number()).c_str() : "-",
                  fmt(measured / 1e6).c_str(),
                  ratio > 0.0 ? fmt(ratio).c_str() : "-", gated ? "  << SKEW" : "");
    }
  } else if (!available) {
    std::printf("  (no per-phase hardware counters -- software sampling only)\n");
  }

  if (const Json* sam = prof->find("sampler"); sam != nullptr) {
    std::printf("  sampler: %s samples (%s dropped) on %s thread(s), every %s us, "
                "~%s ns/sample (%ss total)\n",
                fmt(field(*sam, "samples")).c_str(), fmt(field(*sam, "dropped")).c_str(),
                fmt(field(*sam, "threads")).c_str(), fmt(field(*sam, "interval_us")).c_str(),
                fmt(field(*sam, "est_sample_cost_ns")).c_str(),
                fmt(field(*sam, "overhead_s")).c_str());
    const Json* stacks = sam->find("top_stacks");
    if (stacks != nullptr && !stacks->items().empty()) {
      std::printf("  top stacks (folded: phase;req;outer;...;leaf count)\n");
      for (const Json& row : stacks->items()) {
        const Json* stack = row.find("stack");
        std::printf("    %s %s\n",
                    stack != nullptr ? stack->as_string().c_str() : "?",
                    fmt(field(row, "count")).c_str());
      }
    }
  }

  if (regressions > 0) {
    std::printf("RESULT: %d phase(s) skewed past %s between measured and modeled bytes\n",
                regressions, fmt(max_bytes_skew).c_str());
    return 3;
  }
  if (max_bytes_skew >= 0.0) {
    if (available) {
      std::printf("RESULT: measured and modeled bytes agree within %sx\n",
                  fmt(max_bytes_skew).c_str());
    } else {
      std::printf("RESULT: pmu unavailable; measured-vs-modeled gate not applicable\n");
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// ASCII roofline
// ---------------------------------------------------------------------------

int roofline_report(const std::string& path) {
  const Json doc = load_report(path);
  const Json* att = doc.find("attainment");
  const Json* cal = att != nullptr ? att->find("calibration") : nullptr;
  const double peak = cal != nullptr ? field(*cal, "peak_gflops") : 0.0;
  const double bw = cal != nullptr ? field(*cal, "stream_gbs") : 0.0;
  if (att == nullptr || cal == nullptr || peak <= 0.0 || bw <= 0.0) {
    std::fprintf(stderr,
                 "bst_report: '%s' has no calibrated attainment section; produce the "
                 "report with `bst_solve ... --calibrate=prof.json --profile=...`\n",
                 path.c_str());
    return 1;
  }

  struct Point {
    std::string name;
    double x = 0.0, y = 0.0, attain = 0.0;
  };
  std::vector<Point> pts;
  if (const Json* phases = att->find("phases"); phases != nullptr) {
    for (const auto& [name, r] : phases->members()) {
      const double x = field(r, "intensity"), y = field(r, "gflops");
      if (x > 0.0 && y > 0.0) pts.push_back({name, x, y, field(r, "attainment")});
    }
  }

  // Log-log window sized to cover the machine balance point (where the
  // bandwidth slope meets the compute roof) and every phase point.
  const double balance = peak / bw;
  double xmin = balance, xmax = balance, ymin = peak, ymax = peak;
  for (const Point& p : pts) {
    xmin = std::min(xmin, p.x);
    xmax = std::max(xmax, p.x);
    ymin = std::min(ymin, p.y);
  }
  xmin /= 4.0;
  xmax *= 4.0;
  ymin = std::min(ymin / 4.0, xmin * bw);
  ymax *= 2.0;

  constexpr int W = 61, H = 17;
  const double lx0 = std::log(xmin), lx1 = std::log(xmax);
  const double ly0 = std::log(ymin), ly1 = std::log(ymax);
  auto col_of = [&](double x) {
    return static_cast<int>(std::lround((std::log(x) - lx0) / (lx1 - lx0) * (W - 1)));
  };
  auto row_of = [&](double y) {
    const int r =
        (H - 1) - static_cast<int>(std::lround((std::log(y) - ly0) / (ly1 - ly0) * (H - 1)));
    return std::min(H - 1, std::max(0, r));
  };

  std::vector<std::string> grid(H, std::string(W, ' '));
  for (int j = 0; j < W; ++j) {
    const double x = std::exp(lx0 + (lx1 - lx0) * j / (W - 1));
    grid[row_of(std::min(peak, x * bw))][j] = '.';
  }
  for (std::size_t i = 0; i < pts.size() && i < 26; ++i) {
    const int j = std::min(W - 1, std::max(0, col_of(pts[i].x)));
    grid[row_of(pts[i].y)][j] = static_cast<char>('A' + i);
  }

  std::printf("roofline: %s  (peak %s GF/s, stream %s GB/s, balance %s F/byte)\n", path.c_str(),
              fmt(peak).c_str(), fmt(bw).c_str(), fmt(balance).c_str());
  for (int r = 0; r < H; ++r) {
    // Label the roofs and a couple of reference rows on the y axis.
    const double y = std::exp(ly1 - (ly1 - ly0) * r / (H - 1));
    if (r % 4 == 0 || r == H - 1) {
      std::printf("%10s |%s\n", fmt(y).c_str(), grid[r].c_str());
    } else {
      std::printf("%10s |%s\n", "", grid[r].c_str());
    }
  }
  std::printf("%10s +%s\n", "GF/s", std::string(W, '-').c_str());
  std::printf("%10s  %-8s%*s\n", "", fmt(xmin).c_str(), W - 8, fmt(xmax).c_str());
  std::printf("%10s  %*s\n", "", W / 2 + 8, "arithmetic intensity (flops/byte)");
  for (std::size_t i = 0; i < pts.size() && i < 26; ++i) {
    std::printf("  %c %-24s %s F/byte, %s GF/s", static_cast<char>('A' + i),
                pts[i].name.c_str(), fmt(pts[i].x).c_str(), fmt(pts[i].y).c_str());
    if (pts[i].attain > 0.0) std::printf(", attainment %s", pct(pts[i].attain).c_str());
    std::printf("\n");
  }
  if (pts.empty()) {
    std::printf("  (no phase carried both flop and byte counters)\n");
  }
  return 0;
}

void print_pe_sections(const Json& doc) {
  const Json* tl = doc.find("pe_timeline");
  if (tl != nullptr) {
    std::printf("pe_timeline (makespan %ss, imbalance %s)\n", fmt(field(*tl, "makespan")).c_str(),
                fmt(field(*tl, "imbalance")).c_str());
    const Json* per_pe = tl->find("per_pe");
    if (per_pe != nullptr) {
      std::printf("  %-4s %12s %12s %12s %12s %12s %12s\n", "pe", "compute", "send", "recv",
                  "broadcast", "barrier", "idle");
      int pe = 0;
      for (const Json& u : per_pe->items()) {
        std::printf("  %-4d %12s %12s %12s %12s %12s %12s\n", pe++,
                    fmt(field(u, "compute")).c_str(), fmt(field(u, "send")).c_str(),
                    fmt(field(u, "recv")).c_str(), fmt(field(u, "broadcast")).c_str(),
                    fmt(field(u, "barrier")).c_str(), fmt(field(u, "idle")).c_str());
      }
    }
  }
  const Json* cm = doc.find("comm_matrix");
  if (cm != nullptr) {
    const Json* rows = cm->find("bytes");
    if (rows != nullptr && !rows->items().empty()) {
      std::printf("comm_matrix (bytes, src row -> dst col)\n  %-6s", "");
      for (std::size_t j = 0; j < rows->items().size(); ++j) std::printf(" %10zu", j);
      std::printf("\n");
      for (std::size_t i = 0; i < rows->items().size(); ++i) {
        std::printf("  pe:%-3zu", i);
        for (const Json& v : rows->items()[i].items()) {
          std::printf(" %10s", fmt(v.as_number()).c_str());
        }
        std::printf("\n");
      }
    }
  }
  const Json* cp = doc.find("critical_path");
  if (cp != nullptr) {
    std::printf("critical_path (%ss, slack %ss)\n", fmt(field(*cp, "seconds")).c_str(),
                fmt(field(*cp, "slack")).c_str());
    const Json* by_kind = cp->find("by_kind");
    if (by_kind != nullptr) {
      for (const auto& [kind, v] : by_kind->members()) {
        std::printf("  %-16s %12s\n", kind.c_str(), fmt(v.as_number()).c_str());
      }
    }
    const Json* segs = cp->find("segments");
    if (segs != nullptr && !segs->items().empty()) {
      std::printf("  segments (%zu): pe/kind/steps/seconds\n", segs->items().size());
      for (const Json& seg : segs->items()) {
        const Json* kind = seg.find("kind");
        std::printf("    pe:%-3s %-16s %s..%s %12s\n", fmt(field(seg, "pe")).c_str(),
                    kind != nullptr ? kind->as_string().c_str() : "?",
                    fmt(field(seg, "first_step")).c_str(), fmt(field(seg, "last_step")).c_str(),
                    fmt(field(seg, "seconds")).c_str());
      }
    }
  }
}

int print_report(const std::string& path, bool pe_sections) {
  const Json doc = load_report(path);
  const Json* tool = doc.find("tool");
  std::cout << "report: " << path << " (tool "
            << (tool != nullptr ? tool->as_string() : std::string("?")) << ", schema v"
            << fmt(num_or(doc.find("schema_version"), 0)) << ")\n";
  print_solver_route(doc);
  print_kv_object(doc, "params", "params");
  print_kv_object(doc, "metrics", "metrics");
  print_kv_object(doc, "counters", "counters");
  print_kv_object(doc, "gauges", "gauges");
  print_service(doc);
  print_phases(doc);
  print_attainment(doc);
  print_histograms(doc);
  print_warnings(doc);
  print_threads(doc);
  if (pe_sections) print_pe_sections(doc);
  return 0;
}

// ---------------------------------------------------------------------------
// Ledger trend
// ---------------------------------------------------------------------------

int trend_report(const std::string& ledger_path, double max_regress, double min_seconds) {
  const std::vector<Json> entries = bst::util::read_ledger(ledger_path);
  if (entries.empty()) {
    std::fprintf(stderr, "bst_report: '%s' has no parseable ledger entries\n",
                 ledger_path.c_str());
    return 1;
  }
  std::cout << "trend: " << ledger_path << " (" << entries.size() << " entries)\n";
  const bst::util::TrendReport trend =
      bst::util::ledger_trend(entries, max_regress, min_seconds);
  if (trend.skipped_machines > 0) {
    std::cout << "  (skipped " << trend.skipped_machines
              << " entries from other machines -- fingerprint mismatch)\n";
  }
  if (trend.skipped_paths > 0) {
    std::cout << "  (skipped " << trend.skipped_paths
              << " entries recorded on a different solver path -- phase "
                 "profiles are not comparable across schur/pcg)\n";
  }
  std::printf("  %-28s %4s %12s %12s %12s %9s  %s\n", "series", "n", "min", "median", "last",
              "vs med", "history");
  for (const bst::util::TrendStat& st : trend.series) {
    std::printf("  %-28s %4zu %12s %12s %12s %9s  %s%s\n", st.key.c_str(), st.values.size(),
                fmt(st.min).c_str(), fmt(st.median).c_str(), fmt(st.last).c_str(),
                st.values.size() > 1 ? pct(st.rel).c_str() : "-",
                bst::util::sparkline(st.values).c_str(),
                st.regressed ? "  << REGRESSION" : "");
  }
  if (trend.regressions > 0) {
    std::cout << "RESULT: " << trend.regressions << " series regressed past "
              << pct(max_regress) << " vs the rolling median (baseline >= "
              << fmt(min_seconds) << "s)\n";
    return 3;
  }
  if (trend.insufficient_history) {
    // A fresh (single-entry) ledger has nothing to compare against; say so
    // rather than claiming a clean bill of health.
    std::cout << "RESULT: insufficient history (need >= 2 comparable entries "
                 "per gated series); nothing gated\n";
    return 0;
  }
  std::cout << "RESULT: no regression past the threshold\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

// Parses the whole value of gate flag `flag`: "50%" as 0.5 and "0.5" as 0.5
// (one trailing '%' at most; anything else throws naming the flag).  Empty
// or negative means "no gate".
double parse_regress(const std::string& flag, const std::string& s) {
  if (s.empty()) return -1.0;
  const bool percent = s.back() == '%';
  const double v =
      bst::util::parse_number<double>(flag, percent ? s.substr(0, s.size() - 1) : s);
  return percent ? v / 100.0 : v;
}

struct DiffStats {
  int regressions = 0;  // phases past the gate
};

void diff_phases(const Json& base, const Json& cand, double max_regress, double min_seconds,
                 DiffStats& stats) {
  const Json* bp = base.find("phases");
  const Json* cp = cand.find("phases");
  if (bp == nullptr && cp == nullptr) return;
  std::printf("phases (baseline -> candidate)\n  %-24s %12s %12s %10s %10s %10s\n", "phase",
              "base s", "cand s", "d(sec)", "d(flops)", "d(bytes)");
  auto rel = [](double b, double c) { return b > 0.0 ? (c - b) / b : 0.0; };
  // Union of phase names, baseline order first.
  std::vector<std::string> names;
  auto collect = [&](const Json* p) {
    if (p == nullptr) return;
    for (const auto& [k, v] : p->members()) {
      (void)v;
      bool seen = false;
      for (const std::string& n : names) seen = seen || n == k;
      if (!seen) names.push_back(k);
    }
  };
  collect(bp);
  collect(cp);
  for (const std::string& name : names) {
    const Json* b = bp != nullptr ? bp->find(name) : nullptr;
    const Json* c = cp != nullptr ? cp->find(name) : nullptr;
    if (b == nullptr || c == nullptr) {
      std::printf("  %-24s %12s %12s %30s\n", name.c_str(),
                  b != nullptr ? fmt(field(*b, "seconds")).c_str() : "-",
                  c != nullptr ? fmt(field(*c, "seconds")).c_str() : "-",
                  b == nullptr ? "(new in candidate)" : "(gone in candidate)");
      continue;
    }
    const double bs = field(*b, "seconds"), cs = field(*c, "seconds");
    const double dsec = rel(bs, cs);
    const bool gated = max_regress >= 0.0 && bs >= min_seconds && dsec > max_regress;
    if (gated) ++stats.regressions;
    std::printf("  %-24s %12s %12s %10s %10s %10s%s\n", name.c_str(), fmt(bs).c_str(),
                fmt(cs).c_str(), pct(dsec).c_str(),
                pct(rel(field(*b, "flops"), field(*c, "flops"))).c_str(),
                pct(rel(field(*b, "bytes"), field(*c, "bytes"))).c_str(),
                gated ? "  << REGRESSION" : "");
  }
}

void diff_histograms(const Json& base, const Json& cand) {
  const Json* bh = base.find("histograms");
  const Json* ch = cand.find("histograms");
  if (bh == nullptr || ch == nullptr) return;
  bool any = false;
  for (const auto& [name, b] : bh->members()) {
    const Json* c = ch->find(name);
    if (c == nullptr) continue;
    if (!any) {
      std::printf("histograms (baseline -> candidate)\n  %-28s %22s %22s %22s\n", "histogram",
                  "p50", "p95", "p99");
      any = true;
    }
    auto shift = [&](const char* key) {
      return fmt(field(b, key)) + " -> " + fmt(field(*c, key));
    };
    std::printf("  %-28s %22s %22s %22s\n", name.c_str(), shift("p50").c_str(),
                shift("p95").c_str(), shift("p99").c_str());
  }
}

void diff_warnings(const Json& base, const Json& cand) {
  const auto bc = warning_counts(base);
  const auto cc = warning_counts(cand);
  if (bc.empty() && cc.empty()) return;
  std::cout << "warnings (baseline -> candidate)\n";
  std::map<std::string, std::pair<std::size_t, std::size_t>> merged;
  for (const auto& [k, n] : bc) merged[k].first = n;
  for (const auto& [k, n] : cc) merged[k].second = n;
  for (const auto& [code, counts] : merged) {
    std::cout << "  " << code << " " << counts.first << " -> " << counts.second
              << (counts.second > counts.first ? "  (more)" : "") << "\n";
  }
}

// Attainment diff: gates on per-phase *efficiency* drops instead of raw
// seconds, so a faster machine cannot mask a flop or locality regression.
// Exit 2 when either report lacks the attainment section (the mode's input
// contract -- run the solver under --calibrate), 3 past the gate.
int diff_attainment(const std::string& base_path, const std::string& cand_path,
                    double max_drop) {
  Json base, cand;
  try {
    base = load_report(base_path);
    cand = load_report(cand_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bst_report: error: %s\n", e.what());
    return 2;
  }
  const Json* bp = base.find("attainment") != nullptr
                       ? base.find("attainment")->find("phases")
                       : nullptr;
  const Json* cp = cand.find("attainment") != nullptr
                       ? cand.find("attainment")->find("phases")
                       : nullptr;
  if (bp == nullptr || cp == nullptr) {
    std::fprintf(stderr,
                 "bst_report: --attain needs attainment sections in both reports "
                 "(missing in %s)\n",
                 bp == nullptr ? base_path.c_str() : cand_path.c_str());
    return 2;
  }
  std::cout << "attain: baseline " << base_path << " vs candidate " << cand_path << "\n";
  std::printf("  %-24s %10s %10s %10s\n", "phase", "base", "cand", "drop");
  int regressions = 0;
  for (const auto& [name, b] : bp->members()) {
    const Json* ba = b.find("attainment");
    const Json* c = cp->find(name);
    const Json* ca = c != nullptr ? c->find("attainment") : nullptr;
    if (ba == nullptr || ca == nullptr) continue;
    const double bv = ba->as_number(), cv = ca->as_number();
    const double drop = bv > 0.0 ? (bv - cv) / bv : 0.0;
    const bool gated = max_drop >= 0.0 && drop > max_drop;
    if (gated) ++regressions;
    std::printf("  %-24s %10s %10s %10s%s\n", name.c_str(), pct(bv).c_str(), pct(cv).c_str(),
                pct(drop).c_str(), gated ? "  << REGRESSION" : "");
  }
  if (regressions > 0) {
    std::cout << "RESULT: " << regressions << " phase(s) lost more than " << pct(max_drop)
              << " of their attainment\n";
    return 3;
  }
  std::cout << "RESULT: no attainment drop past the threshold\n";
  return 0;
}

int diff_reports(const std::string& base_path, const std::string& cand_path,
                 double max_regress, double min_seconds) {
  const Json base = load_report(base_path);
  const Json cand = load_report(cand_path);
  std::cout << "diff: baseline " << base_path << " vs candidate " << cand_path << "\n";
  DiffStats stats;
  diff_phases(base, cand, max_regress, min_seconds, stats);
  diff_histograms(base, cand);
  diff_warnings(base, cand);
  if (stats.regressions > 0) {
    std::cout << "RESULT: " << stats.regressions << " phase(s) regressed past "
              << pct(max_regress) << " (baseline >= " << fmt(min_seconds) << "s)\n";
    return 3;
  }
  std::cout << "RESULT: no regression past the threshold\n";
  return 0;
}

}  // namespace

// Complete flag reference (docs/API.md mirrors this; tools/check_docs.py
// cross-checks the two and fails CI on drift).
int help() {
  std::printf(
      "bst_report: pretty-printer and perf-regression gate for perf reports\n"
      "\n"
      "modes:\n"
      "  bst_report report.json        pretty-print one report\n"
      "  --pe                          also print per-PE simnet sections\n"
      "  --prof                        hardware-truth view: PMU table + sampler stacks\n"
      "  --roofline                    ASCII roofline of the attainment section\n"
      "  --baseline=a.json             diff mode: the reference report\n"
      "  --candidate=b.json            diff mode: the report under test\n"
      "  --attain                      diff attainment fractions, not seconds\n"
      "  --trend=runs.jsonl            trend view over a perf ledger\n"
      "\n"
      "gates:\n"
      "  --max-regress=50%%             per-phase slowdown gate (diff/trend)\n"
      "  --max-attain-drop=10%%         attainment drop gate (--attain)\n"
      "  --max-bytes-skew=8            measured-vs-modeled byte skew gate (--prof)\n"
      "  --min-seconds=1e-3            ignore phases below this baseline\n"
      "  --help                        this list\n");
  return 0;
}

int main(int argc, char** argv) {
  bst::util::Cli cli(argc, argv);
  if (cli.has("help")) return help();
  // First positional (non --flag) argument, for single-report mode.
  std::string positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional = arg;
      break;
    }
  }
  const std::string baseline = cli.get("baseline", "");
  const std::string candidate = cli.get("candidate", "");
  const std::string trend = cli.get("trend", "");
  try {
    // Every gate flag is checked before any file is read.
    const double max_regress = parse_regress("--max-regress", cli.get("max-regress", "50%"));
    const double max_attain_drop =
        parse_regress("--max-attain-drop", cli.get("max-attain-drop", "10%"));
    const double min_seconds = cli.get_double("min-seconds", 1e-3);
    if (!trend.empty()) {
      return trend_report(trend, max_regress, min_seconds);
    }
    if (cli.has("attain")) {
      if (baseline.empty() || candidate.empty()) {
        std::fprintf(stderr,
                     "bst_report: --attain needs --baseline=a.json --candidate=b.json\n");
        return 2;
      }
      return diff_attainment(baseline, candidate, max_attain_drop);
    }
    if (!baseline.empty() && !candidate.empty()) {
      return diff_reports(baseline, candidate, max_regress, min_seconds);
    }
    if (!positional.empty() && baseline.empty() && candidate.empty()) {
      if (cli.has("prof")) {
        return prof_report(positional, cli.get_double("max-bytes-skew", -1.0), min_seconds);
      }
      if (cli.has("roofline")) return roofline_report(positional);
      return print_report(positional, cli.has("pe"));
    }
    std::fprintf(stderr,
                 "usage: bst_report report.json [--pe] [--roofline]\n"
                 "       bst_report report.json --prof [--max-bytes-skew=8]\n"
                 "       bst_report --baseline=a.json --candidate=b.json\n"
                 "                  [--max-regress=50%%] [--min-seconds=1e-3]\n"
                 "       bst_report --attain --baseline=a.json --candidate=b.json\n"
                 "                  [--max-attain-drop=10%%]\n"
                 "       bst_report --trend=runs.jsonl [--max-regress=50%%] "
                 "[--min-seconds=1e-3]\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bst_report: error: %s\n", e.what());
    return 1;
  }
}
