// Building blocks of the end-to-end benchmark (bench_e2e.cc), kept apart so
// the self-test (selftest.cc) exercises exactly the code the benchmark runs.
//
// The harness depends on the solver's public API only -- none of util/trace,
// util/prof or bench/bench_obs.h -- so a refactor of the library's own
// observability cannot change what the benchmark measures.  Everything here
// is the benchmark's: its clock, its span recorder, its percentile rule, its
// seeded schedules and its correctness oracle.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/solver.h"
#include "toeplitz/block_toeplitz.h"
#include "toeplitz/matvec.h"

namespace bst::e2e {

/// std::chrono::steady_clock in nanoseconds (the clock every harness
/// timestamp uses).
std::uint64_t now_ns();

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around its calls into each layer.

/// Single-threaded span recorder.  Spans nest; a span's *self* time is its
/// duration minus the time its direct children cover, so within one op the
/// self times of all spans sum exactly to the root span's wall time.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;
    std::uint64_t start_ns = 0, end_ns = 0;
    std::uint64_t child_ns = 0;  // time covered by direct children
    int depth = 0;
  };

  /// Opens a span named `name` (a string literal: the pointer is kept).
  void open(const char* name);
  /// Closes the innermost open span.
  void close();
  /// Closes the innermost open span under a new name and drops every span
  /// nested in it, so its whole duration becomes self time -- used when an
  /// attempt fails and its inner layers no longer describe useful work.
  void close_folded(const char* name);

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name) : rec_(rec) { rec_.open(name); }
    ~Scope() {
      if (open_) rec_.close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void close() {
      if (open_) rec_.close();
      open_ = false;
    }
    void close_folded(const char* name) {
      if (open_) rec_.close_folded(name);
      open_ = false;
    }

   private:
    SpanRecorder& rec_;
    bool open_ = true;
  };

  /// Starts op `op`: spans opened from now on belong to it.
  void set_op(std::uint64_t op) { op_ = op; }

  /// Self time (ns) per span name over the spans of op `op`.
  [[nodiscard]] std::map<std::string, std::uint64_t> self_ns(std::uint64_t op) const;

  /// Wall time (ns) of op `op`: the summed durations of its top-level spans.
  [[nodiscard]] std::uint64_t wall_ns(std::uint64_t op) const;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return closed_; }
  [[nodiscard]] std::size_t open_depth() const noexcept { return stack_.size(); }

 private:
  struct Open {
    Span span;
    std::size_t first_closed = 0;  // closed_.size() when opened
  };
  void finish(Span s);

  std::vector<Open> stack_;
  std::vector<Span> closed_;
  std::uint64_t op_ = 0;
};

// ---------------------------------------------------------------------------
// The traced one-shot solve.

/// Per-op counts the traced run reads off the layers' return values.
struct OpCounts {
  double factor_attempts = 0, pcg_fallbacks = 0, flops = 0, perturbations = 0,
         interchanges = 0, refine_steps = 0, pcg_iters = 0, final_residual = 0;
};

/// The public-call sequence of core::toeplitz_solve (core/solver.cc) with
/// one span per layer call:
///   solver.policy          choose_solver
///   toeplitz.matvec_setup  MatVec construction (PCG operator, refinement)
///   pcg.iterate            pcg_solve
///   schur.steps            block_schur_stream's self time: reflector steps
///   schur.generator        stream start to the first block row
///   schur.assemble         allocation of R and the row copies into it
///   indefinite.spd_attempt an SPD attempt that broke down, folded whole
///   indefinite.factor      block_schur_indefinite
///   solve.trisolve         solve_spd / solve_ldl without refinement
///   refine.self            solve_refined's self time: residuals, updates
///   refine.trisolve        the factor solves inside refinement
///   toeplitz.final_residual  the closing residual norm
/// The answer must be bitwise equal to the entry point's.
std::vector<double> traced_solve(SpanRecorder& rec, const toeplitz::BlockToeplitz& t,
                                 const std::vector<double>& b, const core::SolveOptions& opt,
                                 OpCounts& c);

// ---------------------------------------------------------------------------
// Percentiles.

/// Nearest-rank q-quantile (0 < q <= 1) of `v`, or nullopt when fewer than
/// `min_beyond` samples lie above it: a percentile is reported only with at
/// least ten samples beyond it, so p90 needs 100 samples and p99 1000.
std::optional<double> percentile(std::vector<double> v, double q, std::size_t min_beyond = 10);

/// Median (mean of the two middle samples for an even count); 0 when empty.
double median(std::vector<double> v);

/// Events per second in each of `windows` equal slices of [start, end),
/// counted from their timestamps, and the median over the slices: a
/// throughput that a burst of outside interference in a few slices cannot
/// move.
double median_window_rate(const std::vector<std::uint64_t>& stamps_ns, std::uint64_t start_ns,
                          std::uint64_t end_ns, int windows);

// ---------------------------------------------------------------------------
// Seeded inputs.  Own generators (not <random> distributions, whose output
// is implementation-defined) so one seed gives the same inputs everywhere.

/// splitmix64 stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t s_;
};

/// Mixes a workload seed with a stream tag into an independent seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// Zipf(s) over keys 0..nkeys-1: P(k) ~ 1/(k+1)^s, by inverse CDF.
class Zipf {
 public:
  Zipf(int nkeys, double s);
  [[nodiscard]] int draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Uniform [-1, 1) vector of length n.
std::vector<double> random_vector(std::uint64_t seed, la::index_t n);

// ---------------------------------------------------------------------------
// Correctness oracle.

/// Exact ||T||_inf of a symmetric block Toeplitz matrix in O(p m^2).
double norm_inf(const toeplitz::BlockToeplitz& t);

/// Normwise backward error of a computed solution, after Bojanczyk, de Hoog
/// and Brent's stability analysis of Toeplitz factorizations:
///   eta = ||b - T x||_inf / (||T||_inf ||x||_inf + ||b||_inf),
/// with the residual from the FFT matvec.  An answer passes when
/// eta <= 10 n eps.
class Oracle {
 public:
  explicit Oracle(const toeplitz::BlockToeplitz& t);
  /// +inf when x has the wrong length or a non-finite entry.
  [[nodiscard]] double backward_error(const std::vector<double>& b,
                                      const std::vector<double>& x) const;
  [[nodiscard]] double bound() const noexcept { return bound_; }

 private:
  toeplitz::MatVec op_;
  double norm_t_ = 0.0;
  double bound_ = 0.0;
};

/// Counts answers against the oracle: a failure is an exception, a refused
/// request or a backward error beyond the bound.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double worst_backward_error = 0.0;

  /// Records one checked answer; returns whether it passed.
  bool check(double backward_error, double bound);
  void fail() {
    ++attempted;
    ++failed;
  }
};

/// Bitwise equality of two solutions.
bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace bst::e2e
