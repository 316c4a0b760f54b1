// Cross-run perf ledger: one compact JSONL line per solve/bench run, plus
// the trend analysis `bst_report --trend` prints over it.
//
// The ROADMAP's "measurably faster" needs a baseline *history*, not just a
// pairwise diff: accuracy drift of the kind Bojanczyk et al. analyze for
// Bareiss/Schur-type factorizations is only visible as a trend.  Every
// instrumented binary takes `--ledger=<file>` and appends one line:
//
//   {"utc":"2026-08-05T12:00:00Z","git":"<describe>","tool":"bst_solve",
//    "machine":"<fingerprint>","params_hash":"a1b2...","params":{...},
//    "config":{"BST_THREADS":"1",...},"phases":{"reflector_build":0.12,...},
//    "attainment":{"reflector_apply":0.41,...},
//    "metrics":{"time_s":0.5,"residual":1e-12,...},"warnings":0}
//
// Compatibility rule mirrors the report schema: fields are only ever
// *added* to the entry; readers must ignore unknown keys (additive-only,
// docs/OBSERVABILITY.md).  Lines that fail to parse are skipped by
// read_ledger so a corrupt line cannot poison the history.
//
// Trend semantics: per series ("phases.<name>" / "metrics.<name>" /
// "attainment.<name>") the last entry is compared against the *rolling
// median of all prior values*; a series regresses when
// (last - median) / median exceeds the same --max-regress gate the
// two-report diff uses, with --min-seconds as the noise floor on the
// median.  Attainment series gate in the opposite direction (a *drop* past
// the threshold regresses).  Entries whose "machine" fingerprint differs
// from the newest entry's are excluded (apples vs oranges across
// machines); entries predating the fingerprint field match anything.  The
// same guard applies to "params.solver_path": a PCG run and a full Schur
// factorization have incomparable phase profiles, so entries recording a
// different solver path than the newest entry's are excluded (counted in
// skipped_paths) rather than compared.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/report.h"

namespace bst::util {

/// Current UTC time as "YYYY-MM-DDTHH:MM:SSZ".
std::string utc_timestamp();

/// The git revision the binary was built from (CMake stamps BST_GIT_DESCRIBE
/// at configure time); "unknown" when built outside a checkout.
std::string build_git_revision();

/// FNV-1a 64-bit hash, hex-encoded; used to fingerprint the params object
/// so trend readers can group comparable runs.
std::string fnv1a_hex(const std::string& s);

/// Distills a built report document (PerfReport::build()) into one compact
/// ledger entry (phases collapse to their seconds; warnings to a count).
Json ledger_entry(const Json& report_doc);

/// Appends `ledger_entry(report_doc)` as one line to `path` (creates the
/// file; throws std::runtime_error when it cannot be opened).
void append_ledger(const std::string& path, const Json& report_doc);

/// Reads every parseable line of a ledger file, oldest first.  A missing
/// file is an error; malformed lines are skipped.
std::vector<Json> read_ledger(const std::string& path);

/// One series' history across the ledger.
struct TrendStat {
  std::string key;             // "phases.<x>", "metrics.<x>" or "attainment.<x>"
  std::vector<double> values;  // chronological (entries missing the key skip)
  double min = 0.0;
  double median = 0.0;         // median of all values
  double last = 0.0;
  double baseline = 0.0;       // rolling median of the values before `last`
  double rel = 0.0;            // (last - baseline) / baseline
  bool gated = false;          // series the --max-regress gate applies to
  bool higher_is_better = false;  // attainment series: a *drop* regresses
  bool regressed = false;      // gated && baseline >= min_seconds && rel > max
};

struct TrendReport {
  std::vector<TrendStat> series;  // sorted by key
  int regressions = 0;
  int skipped_machines = 0;  // entries excluded by fingerprint mismatch
  int skipped_paths = 0;     // entries excluded by solver-path mismatch
  // True when no gated series has a pre-history to compare against (fresh
  // ledger): nothing can regress, callers should say "insufficient
  // history" instead of "no regression".
  bool insufficient_history = true;
};

/// Computes per-series min/median/last and flags regressions of the last
/// entry against the rolling median.  Only time-denominated series are
/// gated ("phases.*" seconds and "metrics.time_s"/"metrics.sim_seconds");
/// everything else is reported but never fails the gate.  `max_regress < 0`
/// disables gating (same convention as the two-report diff).
TrendReport ledger_trend(const std::vector<Json>& entries, double max_regress,
                         double min_seconds);

}  // namespace bst::util
