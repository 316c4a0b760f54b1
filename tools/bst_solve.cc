// bst_solve: command line solver for symmetric (block) Toeplitz systems.
//
//   bst_solve --matrix=T.txt [--rhs=b.txt] [--out=x.txt] [--ms=K]
//             [--rep=vy2|vy1|yty|u|seq] [--solver=auto|schur|pcg]
//             [--refine] [--report]
//             [--profile=out.json] [--trace=out.json] [--ledger=runs.jsonl]
//             [--calibrate[=prof.json]]
//
//   bst_solve --np=4 [--layout=v1|v2|v3] [--group=G] [--spread=S]
//             [--matrix=T.txt | --n=256] [--ms=8] ...
//
//   bst_solve --fingerprint
//   bst_solve --calibrate=prof.json
//
// Reads the matrix (and optionally the right-hand side; defaults to
// T * ones so the expected solution is all-ones), solves with the
// automatic SPD/indefinite dispatch of core::toeplitz_solve, and writes
// the solution.  --report prints a one-line summary including the path
// taken, perturbation/interchange counts and the residual.  --profile
// enables the structured tracer and writes a schema-stamped JSON perf
// report (per-phase time/flop/byte breakdown, per-step diagnostics,
// latency histograms, watchdog warnings, thread utilization).  --trace
// additionally arms the flight recorder and writes the run's event
// timeline as a chrome://tracing / Perfetto JSON file.  --ledger appends
// one compact JSONL line (UTC time, git revision, params hash, phase
// seconds, metrics, warning count) for `bst_report --trend`.
//
// With --np the solve runs on the simulated distributed machine
// (simnet/dist_schur.h): every layout factors on per-PE storage under
// simulated time and back-substitutes through R^T R x = b.  Without
// --matrix a synthetic SPD Kac-Murdock-Szego system of order --n is used,
// so layout experiments need no input files.  The profile then carries the per-PE sections ("pe_timeline",
// "comm_matrix", "critical_path") and the trace shows one "pe:<k>" track
// per simulated PE (see docs/OBSERVABILITY.md for all formats).
//
// --calibrate=prof.json loads (or, on a fingerprint mismatch, re-measures
// and caches) the machine calibration profile -- peak GEMM GFLOP/s over the
// Schur block shapes, STREAM-triad bandwidth, per-span tracer overhead --
// and joins it with the traced phase counters into the report's
// "attainment" section: achieved GFLOP/s, arithmetic intensity, roofline
// ceiling, attainment fraction and model-ratio against the eq. 25-32 flop
// models (render with `bst_report --roofline`).  A bare --calibrate
// measures without caching.  --fingerprint prints the machine/build
// fingerprint (used as the CI cache key) and exits.
#include <cstdio>
#include <iostream>

#include "bst.h"
#include "util/env.h"

using namespace bst;

namespace {

core::Representation parse_rep(const std::string& s) {
  if (s == "vy1") return core::Representation::VY1;
  if (s == "vy2") return core::Representation::VY2;
  if (s == "yty") return core::Representation::YTY;
  if (s == "u") return core::Representation::AccumulatedU;
  if (s == "seq") return core::Representation::Sequential;
  throw std::runtime_error("unknown --rep '" + s + "' (vy1|vy2|yty|u|seq)");
}

simnet::Layout parse_layout(const std::string& s) {
  if (s == "v1") return simnet::Layout::V1;
  if (s == "v2") return simnet::Layout::V2;
  if (s == "v3") return simnet::Layout::V3;
  throw std::runtime_error("unknown --layout '" + s + "' (v1|v2|v3)");
}

// Complete flag reference, one per line (docs/API.md mirrors this table;
// tools/check_docs.py cross-checks the two and fails CI on drift).
int help() {
  std::printf(
      "bst_solve: solve a symmetric (block) Toeplitz system T x = b\n"
      "\n"
      "input / output:\n"
      "  --matrix=T.txt      block Toeplitz matrix file (toeplitz/io.h format)\n"
      "  --rhs=b.txt         right-hand side (default: T * ones)\n"
      "  --out=x.txt         write the solution vector\n"
      "  --n=256             synthetic KMS system of this order (no --matrix)\n"
      "\n"
      "algorithm:\n"
      "  --ms=K              working block size m_s of the block Schur step\n"
      "                      (unset: the policy's, reported as params.ms/ms_reason)\n"
      "  --rep=vy2           reflector representation: vy1|vy2|yty|u|seq\n"
      "  --solver=auto       solver family: auto|schur|pcg (auto = crossover policy)\n"
      "  --refine            force one step of iterative refinement\n"
      "  --parallel          thread the factorization (BST_THREADS workers)\n"
      "\n"
      "simulated distributed machine:\n"
      "  --np=4              number of simulated PEs (enables simnet path)\n"
      "  --layout=v1         data layout: v1|v2|v3\n"
      "  --group=G           adjacent blocks per PE of the V2 layout\n"
      "  --spread=S          PEs sharing each block of the V3 layout\n"
      "\n"
      "observability (docs/OBSERVABILITY.md):\n"
      "  --report            print a one-line solve summary\n"
      "  --profile=out.json  write the JSON perf report\n"
      "  --trace=out.json    write a chrome://tracing event timeline\n"
      "  --ledger=runs.jsonl append one JSONL run line (bst_report --trend)\n"
      "  --prof              hardware profiler: per-phase PMU counters + sampling\n"
      "  --prof-out=prof     profiler artifact prefix (<p>.folded, <p>.samples.json)\n"
      "  --calibrate[=p.json] measure/load machine ceilings (attainment)\n"
      "  --fingerprint       print the machine/build fingerprint and exit\n"
      "  --help              this list\n");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: bst_solve --matrix=T.txt [--rhs=b.txt] [--out=x.txt] "
               "[--ms=K] [--rep=vy2] [--solver=auto|schur|pcg] [--refine] [--parallel] [--report] "
               "[--profile=out.json] [--trace=out.json] [--ledger=runs.jsonl] "
               "[--calibrate[=prof.json]]\n"
               "       bst_solve --np=4 [--layout=v1|v2|v3] [--group=G] [--spread=S] "
               "[--matrix=T.txt | --n=256] [--ms=8] ...\n"
               "       bst_solve --n=256 [--ms=8] ...      (synthetic KMS, sequential)\n"
               "       bst_solve --fingerprint             (print machine fingerprint)\n"
               "       bst_solve --calibrate=prof.json     (measure/cache ceilings only)\n");
  return 2;
}

// Finishes an observed run: trace file, profile file, ledger line.
void finish_observability(util::PerfReport& report, const std::string& profile_path,
                          const std::string& trace_path, const std::string& ledger_path) {
  if (!trace_path.empty()) {
    util::FlightRecorder::disable();
    util::FlightRecorder::write_chrome_trace(trace_path);
  }
  util::Tracer::disable();
  if (!profile_path.empty()) report.write_file(profile_path);
  if (!ledger_path.empty()) util::append_ledger(ledger_path, report.build());
}

// The distributed (simulated) solve path.  `calibration` (may be null)
// feeds the report's attainment section.
int run_simnet(const util::Cli& cli, const toeplitz::BlockToeplitz& t,
               const std::vector<double>& b, const std::string& matrix_label,
               const std::string& profile_path, const std::string& trace_path,
               const std::string& ledger_path, const util::Json* calibration) {
  simnet::DistOptions dopt;
  dopt.np = cli.get_int32("np", 4);
  dopt.layout = parse_layout(cli.get("layout", "v1"));
  dopt.group = cli.get_int("group", 4);
  dopt.spread = cli.get_int("spread", 2);
  dopt.rep = parse_rep(cli.get("rep", "vy2"));
  dopt.block_size = cli.get_int("ms", 0);

  const double t0 = util::wall_seconds();
  la::Mat r_factor(t.order(), t.order());
  simnet::DistResult res = simnet::dist_schur_factor(t, dopt, simnet::collect_into(r_factor));
  const double dt = util::wall_seconds() - t0;

  std::vector<double> x;
  core::solve_rtdr(std::as_const(r_factor).view(), nullptr, b, x);
  std::vector<double> r;
  toeplitz::MatVec op(t, toeplitz::MatVecMode::Fft);
  op.residual(b, x, r);
  const double residual = la::norm2(r);
  if (cli.has("out")) {
    toeplitz::write_vector_file(cli.get("out", ""), x);
  } else if (profile_path.empty() && trace_path.empty()) {
    toeplitz::write_vector(std::cout, x);
  }

  const util::ParAnalysis analysis = util::analyze_schedule(res.schedule);
  if (!res.schedule.empty() && !analysis.consistent()) {
    std::fprintf(stderr,
                 "bst_solve: warning: critical path (%.9e s) does not telescope to the "
                 "simulated makespan (%.9e s)\n",
                 analysis.critical_path_seconds, analysis.makespan);
  }

  // Profiled run: settle the sampler before any report is built so the
  // prof section and the folded artifacts are final.
  if (util::Prof::armed()) {
    util::Prof::disarm();
    util::Prof::write_artifacts();
  }

  util::PerfReport report("bst_solve");
  report.param("matrix", matrix_label);
  report.param("n", static_cast<std::int64_t>(t.order()));
  report.param("ms", static_cast<std::int64_t>(dopt.block_size ? dopt.block_size
                                                               : t.block_size()));
  report.param("rep", cli.get("rep", "vy2"));
  report.param("np", static_cast<std::int64_t>(dopt.np));
  report.param("layout", simnet::to_string(dopt.layout));
  if (dopt.layout == simnet::Layout::V2) {
    report.param("group", static_cast<std::int64_t>(dopt.group));
  }
  if (dopt.layout == simnet::Layout::V3) {
    report.param("spread", static_cast<std::int64_t>(dopt.spread));
  }
  report.metric("time_s", dt);
  report.metric("sim_seconds", res.sim_seconds);
  report.metric("sim_compute_s", res.breakdown.compute);
  report.metric("sim_broadcast_s", res.breakdown.broadcast);
  report.metric("sim_shift_s", res.breakdown.shift);
  report.metric("sim_barrier_s", res.breakdown.barrier);
  report.metric("steps", static_cast<double>(res.steps));
  report.metric("residual", residual);
  for (const simnet::PeCommStats& c : res.comm) {
    report.add_pe_comm(c.bytes_sent, c.bytes_recv, c.messages);
  }
  if (!res.schedule.empty()) report.add_par_analysis(analysis);
  if (calibration != nullptr) {
    const util::Json doc = report.build();
    report.set_attainment(util::attainment_section(doc, calibration, {}));
  }
  finish_observability(report, profile_path, trace_path, ledger_path);

  if (cli.has("report")) {
    std::fprintf(stderr,
                 "bst_solve: n=%td np=%d layout=%s sim=%.3fms (compute %.3f / bcast %.3f / "
                 "shift %.3f / barrier %.3f ms) imbalance=%.3f residual=%.3e\n",
                 t.order(), dopt.np, simnet::to_string(dopt.layout), res.sim_seconds * 1e3,
                 res.breakdown.compute * 1e3, res.breakdown.broadcast * 1e3,
                 res.breakdown.shift * 1e3, res.breakdown.barrier * 1e3, analysis.imbalance,
                 residual);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::enable_flush_to_zero();
  util::Cli cli(argc, argv);
  try {
    // Every set BST_* variable is checked here, not only those whose module
    // this run reaches (the stall guard and the exporter never start here).
    util::env::check();
    if (cli.has("help")) return help();
    if (cli.has("fingerprint")) {
      // CI cache key for calibration profiles: stable for a given
      // CPU model + core count + compiler + flags.
      std::printf("%s\n", util::machine_fingerprint().c_str());
      return 0;
    }

    const std::string matrix_path = cli.get("matrix", "");
    const bool simulate = cli.has("np");
    // --n alone selects the synthetic sequential path; --calibrate alone
    // measures the machine profile and exits.
    const bool calibrate_only =
        cli.has("calibrate") && matrix_path.empty() && !simulate && !cli.has("n");
    if (matrix_path.empty() && !simulate && !cli.has("n") && !calibrate_only) return usage();

    // Calibrate *before* arming observability: the span-overhead probe
    // drives the tracer, and run_calibration resets Tracer/Metrics on exit.
    util::Json cal_json;
    bool has_cal = false;
    if (cli.has("calibrate")) {
      const std::string cal_path = cli.get("calibrate", "");
      const util::Calibration cal =
          util::load_or_run_calibration(cal_path == "1" ? "" : cal_path);
      cal_json = cal.to_json();
      has_cal = true;
      // Feed the measured cache sizes into the level-3 kernel blocking
      // before any solve runs (BST_KERNEL_* still outranks the profile).
      util::apply_kernel_tuning(cal);
      if (calibrate_only) {
        std::fprintf(stderr,
                     "bst_solve: calibrated %s: peak %.2f GFLOP/s, stream %.2f GB/s, "
                     "span overhead %.1f ns\n",
                     cal.fingerprint.c_str(), cal.peak_gflops, cal.stream_gbs,
                     cal.span_overhead_ns);
        return 0;
      }
    }

    toeplitz::BlockToeplitz t = [&] {
      if (!matrix_path.empty()) return toeplitz::read_block_toeplitz_file(matrix_path);
      // Synthetic SPD default for layout experiments: a KMS system of
      // order --n re-blocked to --ms.
      const la::index_t n = cli.get_int("n", 256);
      const la::index_t ms = cli.get_int("ms", 8);
      return toeplitz::kms(n, 0.5).with_block_size(ms);
    }();
    const std::string matrix_label = matrix_path.empty() ? "kms" : matrix_path;

    std::vector<double> b;
    if (cli.has("rhs")) {
      b = toeplitz::read_vector_file(cli.get("rhs", ""));
      if (static_cast<la::index_t>(b.size()) != t.order()) {
        throw std::runtime_error("rhs length " + std::to_string(b.size()) +
                                 " does not match matrix order " + std::to_string(t.order()));
      }
    } else {
      b = toeplitz::rhs_for_ones(t);
    }

    const std::string profile_path = cli.get("profile", "");
    const std::string trace_path = cli.get("trace", "");
    const std::string ledger_path = cli.get("ledger", "");
    // --prof / BST_PROF: hardware-truth profiling (util/prof).  It rides
    // the tracer's spans, so it implies the observed path even without
    // --profile (artifacts still get written; the report just isn't).
    util::ProfOptions popt = util::ProfOptions::from_env();
    const bool prof = cli.has("prof") || popt.armed_by_env;
    const bool observe =
        !profile_path.empty() || !trace_path.empty() || !ledger_path.empty() || prof;
    if (observe) {
      util::Tracer::reset();
      util::ThreadPool::global().reset_worker_stats();
      util::Tracer::enable();
      if (!trace_path.empty()) util::FlightRecorder::enable();
      if (prof) {
        popt.out_prefix = cli.get("prof-out", popt.out_prefix);
        util::Prof::arm(popt);
      }
    }

    if (simulate) {
      return run_simnet(cli, t, b, matrix_label, profile_path, trace_path, ledger_path,
                        has_cal ? &cal_json : nullptr);
    }

    core::SolveOptions opt;
    opt.spd.block_size = cli.get_int("ms", 0);
    opt.indefinite.block_size = opt.spd.block_size;
    opt.spd.rep = opt.indefinite.rep = parse_rep(cli.get("rep", "vy2"));
    opt.spd.parallel = cli.has("parallel");
    opt.always_refine = cli.has("refine");
    // Crossover policy: BST_SOLVER / BST_SOLVER_MIN_N / BST_SOLVER_MAX_COND
    // from the environment, with --solver outranking the env kind.
    opt.policy = core::SolverPolicy::from_env();
    if (cli.has("solver")) {
      opt.policy.kind = core::parse_solver_kind(cli.get("solver", "auto"));
    }
    opt.pcg = core::PcgOptions::from_env();

    const double t0 = util::wall_seconds();
    core::SolveReport rep = core::toeplitz_solve(t, b, opt);
    const double dt = util::wall_seconds() - t0;

    // Stop sampling at solve end: the report below must carry final
    // sampler stats, and I/O time does not belong in the flamegraph.
    if (prof) {
      util::Prof::disarm();
      util::Prof::write_artifacts();
    }

    if (cli.has("out")) {
      toeplitz::write_vector_file(cli.get("out", ""), rep.x);
    } else {
      toeplitz::write_vector(std::cout, rep.x);
    }
    if (observe) {
      util::PerfReport report("bst_solve");
      report.param("matrix", matrix_label);
      report.param("n", static_cast<std::int64_t>(t.order()));
      report.param("ms", static_cast<std::int64_t>(rep.block_size));
      report.param("ms_reason", rep.block_size_reason);
      report.param("rep", cli.get("rep", "vy2"));
      report.param("path", core::to_string(rep.path));
      report.param("solver", core::to_string(opt.policy.kind));
      report.param("solver_path", rep.solver_path);
      report.param("policy_reason", rep.policy_reason);
      report.metric("time_s", dt);
      report.metric("factor_flops", static_cast<double>(rep.factor_flops));
      report.metric("refinement_steps", rep.refinement_steps);
      report.metric("interchanges", rep.interchanges);
      report.metric("perturbations", static_cast<double>(rep.perturbations));
      report.metric("pcg_iterations", rep.pcg_iterations);
      if (rep.condest >= 0) report.metric("condest", rep.condest);
      // Residual + normwise backward error: the accuracy column the
      // attainment section carries next to the efficiency columns (speed
      // gains are only worth reporting at unchanged backward error).  The
      // certified routes report their SolveReport::backward_error; the plain
      // Schur route's comes from the same operator's definition.
      {
        std::vector<double> resid;
        const toeplitz::MatVec op(t, toeplitz::MatVecMode::Fft);
        op.residual(b, rep.x, resid);
        report.metric("residual", la::norm2(resid));
        report.metric("backward_error", rep.backward_error >= 0.0
                                            ? rep.backward_error
                                            : op.backward_error(b, rep.x, resid));
      }
      for (const util::WorkerStats& w : util::ThreadPool::global().worker_stats()) {
        report.add_thread(w.busy_seconds, w.idle_seconds, w.chunks);
      }
      // Join the traced counters with the calibrated ceilings and the
      // eq. 25-32 flop models (SPD path only: the indefinite extension's
      // extra pivoting work is not modeled, nor is the attempt that broke
      // down before a retry at m).
      std::vector<util::PhaseModel> models;
      if (rep.path == core::SolvePath::Spd && rep.block_size_reason != "retry_at_m") {
        models = core::schur_phase_models(opt.spd.rep, t.order(), rep.block_size);
      } else if (rep.solver_path == "pcg") {
        // A converged PCG run: the iteration count pins the matvec /
        // preconditioner apply counts, so the models are exact.
        models = core::pcg_phase_models(t.block_size(), t.num_blocks(), rep.pcg_iterations);
      }
      const util::Json doc = report.build();
      report.set_attainment(
          util::attainment_section(doc, has_cal ? &cal_json : nullptr, models));
      finish_observability(report, profile_path, trace_path, ledger_path);
    }
    if (cli.has("report")) {
      std::fprintf(stderr,
                   "bst_solve: n=%td path=%s solver=%s (%s) time=%.3fms flops=%llu "
                   "interchanges=%d perturbations=%zu refine_steps=%d pcg_iters=%d "
                   "residual=%s%.3e\n",
                   t.order(), core::to_string(rep.path), rep.solver_path.c_str(),
                   rep.policy_reason.c_str(), dt * 1e3,
                   static_cast<unsigned long long>(rep.factor_flops), rep.interchanges,
                   rep.perturbations, rep.refinement_steps, rep.pcg_iterations,
                   rep.final_residual < 0 ? "(not computed) " : "",
                   rep.final_residual < 0 ? 0.0 : rep.final_residual);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bst_solve: error: %s\n", e.what());
    return 1;
  }
}
