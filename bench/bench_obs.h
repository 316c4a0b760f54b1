// Shared --trace= / --profile= / --ledger= handling for the bench
// harnesses, so every bench exposes the same observability surface as
// bst_solve without five copies of the flag-parsing block:
//
//   Obs obs(cli);                       // arms Tracer / FlightRecorder
//   ... run the benchmark ...
//   util::PerfReport report("bench_x"); // params/metrics/tables as usual
//   obs.finish(report);                 // trace file, profile file, ledger
//   obs.write_default_json(report, "BENCH_x.json");  // --json / BST_BENCH_OUT
//
// finish() is safe to call when no flag was given (it does nothing beyond
// attaching the attainment section), so benches need no conditionals.
//
// Calibration (util/calibrate.h) is auto-loaded from --calibration=<path>
// or the BST_CALIBRATION environment variable (load-only: benches never
// spend time measuring; run `bst_solve --calibrate=prof.json` once).  A
// profile that cannot be read, does not parse or carries another machine's
// fingerprint exits 1.  When a profile is present -- or a bench fed
// per-phase flop models via add_phase_model() -- finish() attaches the
// "attainment" report section.
//
// Every bench's main is guarded_main(): an exception that escapes the run
// (a bad flag value, a bad BST_* variable) prints "<bench>: error: <what>"
// and exits 1 instead of aborting.
//
// The default JSON output honors BST_BENCH_OUT: when set, BENCH_*.json
// lands in that directory so CI can collect every bench artifact from one
// place.  --json=<path> overrides; --json=none suppresses.
// docs/BENCHMARKING.md documents the flags.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "util/attainment.h"
#include "util/calibrate.h"
#include "util/cli.h"
#include "util/env.h"
#include "util/flight_recorder.h"
#include "util/ledger.h"
#include "util/prof.h"
#include "util/report.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace bst::bench {

/// Runs `run` and turns an exception that escapes it into
/// "<bench>: error: <what>" on stderr and exit code 1.
inline int guarded_main(const char* bench, int (*run)(int, char**), int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", bench, e.what());
    return 1;
  }
}

class Obs {
 public:
  /// Checks every set BST_* variable first (util::env::check): a bad one
  /// throws, whether or not this bench reaches the module that reads it.
  explicit Obs(const util::Cli& cli)
      : trace_(cli.get("trace", "")),
        profile_(cli.get("profile", "")),
        ledger_(cli.get("ledger", "")),
        json_flag_(cli.get("json", "")) {
    util::env::check();
    std::string cal_path = cli.get("calibration", "");
    if (cal_path.empty()) util::env::read("BST_CALIBRATION", cal_path);
    if (!cal_path.empty()) load_calibration(cal_path);
    // --prof / BST_PROF arms the hardware-truth profiler (util/prof): PMU
    // counter groups at span boundaries plus the SIGPROF sampler.  It
    // implies tracing (the PMU snapshots ride the spans).
    util::ProfOptions popt = util::ProfOptions::from_env();
    prof_ = cli.has("prof") || popt.armed_by_env;
    if (!armed()) return;
    util::Tracer::reset();
    util::ThreadPool::global().reset_worker_stats();
    util::Tracer::enable();
    if (!trace_.empty()) util::FlightRecorder::enable();
    if (prof_) {
      popt.out_prefix = cli.get("prof-out", popt.out_prefix);
      util::Prof::arm(popt);
    }
  }

  /// True when any observability flag was given.
  [[nodiscard]] bool armed() const noexcept {
    return !trace_.empty() || !profile_.empty() || !ledger_.empty() || prof_;
  }

  [[nodiscard]] bool has_calibration() const noexcept { return has_cal_; }

  /// Accumulates a modeled flop budget for one phase (summed across calls,
  /// so sweeps add one model per configuration); joined against the
  /// measured counters in finish().
  void add_phase_model(const util::PhaseModel& pm) {
    for (util::PhaseModel& m : models_) {
      if (m.phase == pm.phase) {
        m.model_flops += pm.model_flops;
        m.paper_flops += pm.paper_flops;
        return;
      }
    }
    models_.push_back(pm);
  }
  void add_phase_models(const std::vector<util::PhaseModel>& pms) {
    for (const util::PhaseModel& pm : pms) add_phase_model(pm);
  }

  /// Stops recording, attaches the attainment section (when a calibration
  /// profile or phase models are available) and writes everything that was
  /// requested: the chrome trace, the JSON profile (with thread-pool
  /// utilization attached) and the ledger line.  Call once, after the run.
  void finish(util::PerfReport& report) {
    if (prof_) {
      // Stop sampling before any report is built so the stats (and the
      // folded artifacts) are final.
      util::Prof::disarm();
      const util::Prof::Artifacts art = util::Prof::write_artifacts();
      if (!art.folded.empty()) {
        std::fprintf(stderr, "bench: profiler artifacts: %s %s\n", art.folded.c_str(),
                     art.perfetto.c_str());
      }
    }
    if (armed()) {
      if (!trace_.empty()) {
        util::FlightRecorder::disable();
        util::FlightRecorder::write_chrome_trace(trace_);
      }
      util::Tracer::disable();
      for (const util::WorkerStats& w : util::ThreadPool::global().worker_stats()) {
        report.add_thread(w.busy_seconds, w.idle_seconds, w.chunks);
      }
    }
    if (has_cal_ || !models_.empty()) {
      const util::Json doc = report.build();
      report.set_attainment(
          util::attainment_section(doc, has_cal_ ? &cal_json_ : nullptr, models_));
    }
    if (!profile_.empty()) report.write_file(profile_);
    if (!ledger_.empty()) util::append_ledger(ledger_, report.build());
  }

  /// Resolves the bench's default JSON output path: --json=<path> wins,
  /// --json=none suppresses, otherwise $BST_BENCH_OUT/<default_name> when
  /// the environment variable is set, else <default_name> in the CWD.
  [[nodiscard]] std::string json_path(const std::string& default_name) const {
    if (!json_flag_.empty()) return json_flag_ == "none" ? std::string() : json_flag_;
    std::string path;
    if (!util::env::read("BST_BENCH_OUT", path)) return default_name;
    if (path.back() != '/') path.push_back('/');
    return path + default_name;
  }

  /// Writes the report to json_path(default_name) unless suppressed.  A
  /// path that cannot be written is reported and exits 1, as bst_solve does.
  void write_default_json(const util::PerfReport& report, const std::string& default_name) const {
    const std::string path = json_path(default_name);
    if (path.empty()) return;
    try {
      report.write_file(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench: error: %s\n", e.what());
      std::exit(1);
    }
  }

 private:
  // A profile the bench was told to load but cannot use -- unreadable,
  // malformed, or measured on another machine or build -- is reported and
  // exits 1, as an unwritable JSON path is: its ceilings and cache sizes
  // would retune the kernels and grade attainment for the wrong machine.
  [[noreturn]] static void calibration_error(const std::string& path, const std::string& why) {
    std::fprintf(stderr, "bench: error: calibration '%s': %s\n", path.c_str(), why.c_str());
    std::exit(1);
  }

  void load_calibration(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) calibration_error(path, "cannot open the file");
    std::string text;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
    std::fclose(f);
    util::Calibration cal;
    try {
      cal = util::Calibration::from_json(util::parse_json(text));
    } catch (const std::exception& e) {
      calibration_error(path, e.what());
    }
    const std::string here = util::machine_fingerprint();
    if (cal.fingerprint != here) {
      calibration_error(path, "fingerprint '" + cal.fingerprint + "' is not this machine's '" +
                                  here + "' (re-run bst_solve --calibrate=<path> here)");
    }
    cal_json_ = cal.to_json();
    has_cal_ = true;
    // Profile in hand: tune the level-3 kernel blocking from its cache
    // sizes so the bench runs what a tuned solver would run.
    util::apply_kernel_tuning(cal);
  }

  std::string trace_, profile_, ledger_, json_flag_;
  util::Json cal_json_;
  bool prof_ = false;
  bool has_cal_ = false;
  std::vector<util::PhaseModel> models_;
};

}  // namespace bst::bench
