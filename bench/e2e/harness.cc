#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/solve.h"
#include "la/norms.h"

namespace bst::e2e {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// ---------------------------------------------------------------------------

void SpanRecorder::open(const char* name) {
  Open o;
  o.span.name = name;
  o.span.op = op_;
  o.span.depth = static_cast<int>(stack_.size());
  o.first_closed = closed_.size();
  o.span.start_ns = now_ns();
  stack_.push_back(o);
}

void SpanRecorder::finish(Span s) {
  s.end_ns = now_ns();
  if (!stack_.empty()) stack_.back().span.child_ns += s.end_ns - s.start_ns;
  closed_.push_back(s);
}

void SpanRecorder::close() {
  if (stack_.empty()) throw std::logic_error("SpanRecorder::close with no open span");
  const Span s = stack_.back().span;
  stack_.pop_back();
  finish(s);
}

void SpanRecorder::close_folded(const char* name) {
  if (stack_.empty()) throw std::logic_error("SpanRecorder::close_folded with no open span");
  Open o = stack_.back();
  stack_.pop_back();
  closed_.resize(o.first_closed);  // every span closed since this one opened
  o.span.name = name;
  o.span.child_ns = 0;
  finish(o.span);
}

std::map<std::string, std::uint64_t> SpanRecorder::self_ns(std::uint64_t op) const {
  std::map<std::string, std::uint64_t> out;
  for (const Span& s : closed_) {
    if (s.op == op) out[s.name] += (s.end_ns - s.start_ns) - s.child_ns;
  }
  return out;
}

std::uint64_t SpanRecorder::wall_ns(std::uint64_t op) const {
  std::uint64_t total = 0;
  for (const Span& s : closed_) {
    if (s.op == op && s.depth == 0) total += s.end_ns - s.start_ns;
  }
  return total;
}

// ---------------------------------------------------------------------------

namespace {

using Scope = SpanRecorder::Scope;
using la::index_t;

// core::block_schur_factor split into its layers; nullopt on breakdown,
// with the whole attempt folded into "indefinite.spd_attempt".
std::optional<core::SchurFactor> traced_spd_factor(SpanRecorder& rec,
                                                   const toeplitz::BlockToeplitz& t,
                                                   const core::SchurOptions& opt, OpCounts& c) {
  const index_t n = t.order();
  const index_t ms = opt.block_size == 0 ? t.block_size() : opt.block_size;
  Scope steps(rec, "schur.steps");
  core::SchurFactor f;
  f.block_size = ms;
  {
    Scope s(rec, "schur.assemble");
    f.r = la::Mat(n, n);
  }
  try {
    std::optional<Scope> gen;
    gen.emplace(rec, "schur.generator");
    f.flops = core::block_schur_stream(t, opt, [&](index_t step, la::CView rows) {
      gen.reset();  // the first block row marks the generator as built
      Scope s(rec, "schur.assemble");
      la::copy(rows, f.r.block(step * ms, step * ms, ms, rows.cols()));
    });
  } catch (const core::NotPositiveDefinite&) {
    steps.close_folded("indefinite.spd_attempt");
    return std::nullopt;
  }
  c.flops = static_cast<double>(f.flops);
  return f;
}

void traced_final_residual(SpanRecorder& rec, const toeplitz::MatVec& op,
                           const std::vector<double>& b, const std::vector<double>& x,
                           OpCounts& c) {
  Scope s(rec, "toeplitz.final_residual");
  std::vector<double> r;
  op.residual(b, x, r);
  c.final_residual = la::norm2(r);
}

}  // namespace

std::vector<double> traced_solve(SpanRecorder& rec, const toeplitz::BlockToeplitz& t,
                                 const std::vector<double>& b, const core::SolveOptions& opt,
                                 OpCounts& c) {
  core::PolicyDecision dec;
  {
    Scope s(rec, "solver.policy");
    dec = core::choose_solver(t, opt.policy);
  }
  bool pcg_failed = false;
  if (dec.chosen == core::SolverKind::Pcg) {
    std::optional<toeplitz::MatVec> op;
    {
      Scope s(rec, "toeplitz.matvec_setup");
      op.emplace(t, toeplitz::MatVecMode::Fft);
    }
    if (dec.precond != nullptr && dec.precond->positive_definite()) {
      core::PcgResult pr;
      {
        Scope s(rec, "pcg.iterate");
        pr = core::pcg_solve(*op, *dec.precond, b, opt.pcg);
      }
      c.pcg_iters = pr.iterations;
      if (pr.converged) {
        traced_final_residual(rec, *op, b, pr.x, c);
        return std::move(pr.x);
      }
    }
    pcg_failed = true;
    c.pcg_fallbacks = 1;
  }

  std::optional<core::SchurFactor> spd;
  std::optional<core::LdlFactor> ldl;
  if (!opt.assume_indefinite) {
    c.factor_attempts += 1;
    spd = traced_spd_factor(rec, t, opt.spd, c);
  }
  if (!spd) {
    c.factor_attempts += 1;
    Scope s(rec, "indefinite.factor");
    ldl = core::block_schur_indefinite(t, opt.indefinite);
    c.perturbations = static_cast<double>(ldl->perturbations.size());
    c.interchanges = ldl->interchanges;
  }
  const bool perturbed = ldl && !ldl->perturbations.empty();
  if (!(opt.always_refine || pcg_failed || perturbed)) {
    Scope s(rec, "solve.trisolve");
    return spd ? core::solve_spd(*spd, b) : core::solve_ldl(*ldl, b);
  }
  std::optional<toeplitz::MatVec> op;
  {
    Scope s(rec, "toeplitz.matvec_setup");
    op.emplace(t, pcg_failed ? toeplitz::MatVecMode::Fft : opt.residual_mode);
  }
  const core::FactorSolve fsolve = [&](const std::vector<double>& rhs, std::vector<double>& out) {
    Scope s(rec, "refine.trisolve");
    out = spd ? core::solve_spd(*spd, rhs) : core::solve_ldl(*ldl, rhs);
  };
  core::RefineResult rr;
  {
    Scope s(rec, "refine.self");
    rr = core::solve_refined(*op, fsolve, b, opt.refine);
  }
  c.refine_steps = rr.iterations;
  traced_final_residual(rec, *op, b, rr.x, c);
  return std::move(rr.x);
}

// ---------------------------------------------------------------------------

std::optional<double> percentile(std::vector<double> v, double q, std::size_t min_beyond) {
  if (v.empty() || !(q > 0.0) || q > 1.0) return std::nullopt;
  const std::size_t n = v.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  std::sort(v.begin(), v.end());
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double median_window_rate(const std::vector<std::uint64_t>& stamps_ns, std::uint64_t start_ns,
                          std::uint64_t end_ns, int windows) {
  if (windows <= 0 || end_ns <= start_ns) return 0.0;
  const double w_ns = static_cast<double>(end_ns - start_ns) / windows;
  std::vector<double> rate(static_cast<std::size_t>(windows), 0.0);
  for (std::uint64_t t : stamps_ns) {
    if (t < start_ns || t >= end_ns) continue;
    const auto i = static_cast<std::size_t>(static_cast<double>(t - start_ns) / w_ns);
    rate[std::min(i, rate.size() - 1)] += 1.0;
  }
  for (double& r : rate) r /= w_ns * 1e-9;
  return median(rate);
}

// ---------------------------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed * 0x100000001B3ull ^ (tag + 0x632BE59BD9B4E019ull));
  return r.next();
}

Zipf::Zipf(int nkeys, double s) {
  if (nkeys <= 0) throw std::invalid_argument("Zipf: nkeys must be positive");
  double acc = 0.0;
  for (int k = 0; k < nkeys; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(acc);
  }
  for (double& c : cdf_) c /= acc;
  cdf_.back() = 1.0;
}

int Zipf::draw(Rng& rng) const {
  return static_cast<int>(std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform()) -
                          cdf_.begin());
}

std::vector<double> random_vector(std::uint64_t seed, la::index_t n) {
  Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = 2.0 * rng.uniform() - 1.0;
  return v;
}

// ---------------------------------------------------------------------------

double norm_inf(const toeplitz::BlockToeplitz& t) {
  // Block row I (0-based) holds T_{J-I+1} for J >= I and T_{I-J+1}^T for
  // J < I.  Row a of it sums |T_k(a, :)| over k = 1..p-I plus |T_k(:, a)|
  // over k = 2..I+1; prefix sums over k make every row O(1).
  const la::index_t m = t.block_size(), p = t.num_blocks();
  std::vector<double> up(static_cast<std::size_t>((p + 1) * m), 0.0);  // up[k*m+a], k = 0..p
  std::vector<double> lo(up.size(), 0.0);
  for (la::index_t k = 1; k <= p; ++k) {
    la::CView blk = t.block(k);
    for (la::index_t a = 0; a < m; ++a) {
      double row = 0.0, col = 0.0;
      for (la::index_t c = 0; c < m; ++c) {
        row += std::fabs(blk(a, c));
        col += std::fabs(blk(c, a));
      }
      const auto at = static_cast<std::size_t>(k * m + a);
      const auto prev = static_cast<std::size_t>((k - 1) * m + a);
      up[at] = up[prev] + row;
      lo[at] = lo[prev] + (k >= 2 ? col : 0.0);
    }
  }
  double best = 0.0;
  for (la::index_t i = 0; i < p; ++i) {
    for (la::index_t a = 0; a < m; ++a) {
      const double s = up[static_cast<std::size_t>((p - i) * m + a)] +
                       lo[static_cast<std::size_t>((i + 1) * m + a)];
      best = std::max(best, s);
    }
  }
  return best;
}

Oracle::Oracle(const toeplitz::BlockToeplitz& t)
    : op_(t, toeplitz::MatVecMode::Fft),
      norm_t_(norm_inf(t)),
      bound_(10.0 * static_cast<double>(t.order()) * std::numeric_limits<double>::epsilon()) {}

double Oracle::backward_error(const std::vector<double>& b, const std::vector<double>& x) const {
  const auto n = static_cast<std::size_t>(op_.order());
  if (x.size() != n || b.size() != n) return std::numeric_limits<double>::infinity();
  double nx = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) return std::numeric_limits<double>::infinity();
    nx = std::max(nx, std::fabs(x[i]));
    nb = std::max(nb, std::fabs(b[i]));
  }
  std::vector<double> r;
  op_.residual(b, x, r);
  double nr = 0.0;
  for (double v : r) nr = std::max(nr, std::fabs(v));
  const double denom = norm_t_ * nx + nb;
  if (!std::isfinite(nr)) return std::numeric_limits<double>::infinity();
  return denom > 0.0 ? nr / denom : (nr == 0.0 ? 0.0 : std::numeric_limits<double>::infinity());
}

bool Tally::check(double backward_error, double bound) {
  ++attempted;
  const bool ok = backward_error <= bound;
  if (!ok) ++failed;
  if (std::isnan(backward_error) || backward_error > worst_backward_error) {
    worst_backward_error = backward_error;
  }
  return ok;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace bst::e2e
