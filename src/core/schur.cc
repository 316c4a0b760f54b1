#include "core/schur.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "core/flop_model.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/flops.h"
#include "util/metrics.h"
#include "util/stallguard.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/watchdog.h"

namespace bst::core {
namespace {

const util::PhaseId kGeneratorPhase = util::Tracer::phase("generator_build");
const util::PhaseId kBuildPhase = util::Tracer::phase("reflector_build");
const util::PhaseId kApplyPhase = util::Tracer::phase("reflector_apply");

double max_abs(la::CView v) {
  double mx = 0.0;
  for (index_t j = 0; j < v.cols(); ++j)
    for (index_t i = 0; i < v.rows(); ++i) mx = std::max(mx, std::fabs(v(i, j)));
  return mx;
}

// Per-step stability diagnostics (recorded only while tracing): the smallest
// |hyperbolic norm| seen by the step's reflectors -- sigma_k^2 = |u^T W u| by
// construction (core/hyperbolic.h) -- and the post-step generator magnitude.
void record_step_diag(const Generator& g, const BlockReflector& bref, index_t step,
                      index_t active_blocks) {
  if (!util::Tracer::enabled()) return;
  double min_h = std::numeric_limits<double>::infinity();
  for (const Reflector& r : bref.reflectors()) min_h = std::min(min_h, r.sigma * r.sigma);
  const index_t m = g.m;
  la::CView a = g.a.block(0, 0, m, active_blocks * m);
  la::CView b = g.b.block(0, step * m, m, active_blocks * m);
  const double max_gen = std::max(max_abs(a), max_abs(b));
  util::Tracer::record_step(step, min_h, max_gen);
  util::Watchdog::check_step(step, min_h, max_gen, g.norm_g1);
}

std::string breakdown_message(index_t step, index_t column, double hnorm) {
  std::ostringstream os;
  os << "block Schur: pivot column " << column << " at step " << step
     << " has non-positive hyperbolic norm " << hnorm
     << " -- matrix is not positive definite (or a principal minor is singular)";
  return os.str();
}

// Minimum flops a parallel chunk must carry: below this, pool dispatch and
// per-chunk span overhead outweigh the arithmetic.  Overridable via
// BST_SCHUR_GRAIN_FLOPS (> 0) for chunking experiments.
double chunk_grain_flops() {
  static const double grain = [] {
    double g = 1e5;
    util::env::read("BST_SCHUR_GRAIN_FLOPS", g);
    return g;
  }();
  return grain;
}

// Applies the step's block reflector to the active trailing columns:
// A physical blocks [1, L) and B physical blocks [step+1, step+L).
void apply_to_trailing(Generator& g, const BlockReflector& bref, index_t step,
                       index_t active_blocks, const SchurOptions& opt) {
  const index_t m = g.m;
  const index_t trailing = active_blocks - 1;
  if (trailing <= 0) return;
  View a = g.a.block(0, m, m, trailing * m);
  View b = g.b.block(0, (step + 1) * m, m, trailing * m);
  // Flop-aware chunking: chunk count comes from the as-implemented cost of
  // one trailing block column, so a late small step (few trailing columns,
  // small m) runs serially instead of paying pool dispatch, while an early
  // fat step still splits finely enough to balance.
  auto& pool = util::ThreadPool::global();
  index_t chunks = 0;
  if (opt.parallel && pool.size() > 1) {
    const double per_block = application_flops_impl(opt.rep, m, 1, m);
    const auto by_grain =
        static_cast<index_t>(per_block * static_cast<double>(trailing) / chunk_grain_flops());
    chunks = std::min({trailing, by_grain, static_cast<index_t>(pool.size()) * 4});
  }
  if (chunks <= 1) {
    util::TraceSpan span(kApplyPhase);
    bref.apply(a, b);
    return;
  }
  // Each chunk is independent.  The span opens *inside* the worker callback:
  // flops/bytes counters are thread-local, so each worker must observe its
  // own share.
  const index_t per = (trailing + chunks - 1) / chunks;
  if (util::Tracer::enabled()) {
    // Chunk grain (block columns per chunk) for trace/report visibility.
    static const util::HistId grain_hist = util::Metrics::histogram("schur_chunk_blocks");
    util::Metrics::record(grain_hist, static_cast<std::uint64_t>(per));
  }
  pool.parallel_for(0, static_cast<std::size_t>(chunks), [&](std::size_t c) {
    const index_t lo = static_cast<index_t>(c) * per;
    const index_t hi = std::min(trailing, lo + per);
    if (lo >= hi) return;
    util::Tracer::set_step(step);  // workers carry their own step context
    util::TraceSpan span(kApplyPhase);
    bref.apply(a.block(0, lo * m, m, (hi - lo) * m), b.block(0, lo * m, m, (hi - lo) * m));
  });
}

}  // namespace

NotPositiveDefinite::NotPositiveDefinite(index_t step_, index_t column_, double hnorm_)
    : std::runtime_error(breakdown_message(step_, column_, hnorm_)),
      step(step_),
      column(column_),
      hnorm(hnorm_) {}

void schur_step(Generator& g, index_t step, const SchurOptions& opt) {
  util::Tracer::set_step(step);
  util::Fault::fire("schur_step");
  util::StallGuard::beat();  // per-step progress during long factorizations
  const index_t m = g.m;
  const index_t active = g.p - step;  // blocks still in play
  BlockReflector bref(opt.rep, m, g.sig);
  View pivot_p = g.a_block(0);
  View pivot_q = g.b_block(step);
  {
    util::TraceSpan span(kBuildPhase);
    if (auto breakdown = bref.build(pivot_p, pivot_q, opt.breakdown_tol, opt.inner_block)) {
      throw NotPositiveDefinite(step, breakdown->column, breakdown->hnorm);
    }
  }
  apply_to_trailing(g, bref, step, active, opt);
  record_step_diag(g, bref, step, active);
}

std::uint64_t block_schur_stream(const toeplitz::BlockToeplitz& t, const SchurOptions& opt,
                                 const RowBlockSink& sink) {
  const toeplitz::BlockToeplitz spec =
      (opt.block_size == 0 || opt.block_size == t.block_size())
          ? t
          : t.with_block_size(opt.block_size);
  util::FlopScope flops;
  util::Tracer::set_step(0);
  Generator g = [&] {
    util::TraceSpan span(kGeneratorPhase);
    return make_generator_spd(spec);
  }();
  const index_t m = g.m, p = g.p;
  sink(0, g.a.view());
  for (index_t i = 1; i < p; ++i) {
    schur_step(g, i, opt);
    sink(i, g.a.block(0, 0, m, (p - i) * m));
  }
  return flops.elapsed();
}

SchurFactor block_schur_factor(const toeplitz::BlockToeplitz& t, const SchurOptions& opt) {
  const index_t n = t.order();
  const index_t ms = (opt.block_size == 0) ? t.block_size() : opt.block_size;
  SchurFactor f;
  f.block_size = ms;
  f.r = Mat(n, n);
  f.flops = block_schur_stream(t, opt, [&](index_t step, CView rows) {
    la::copy(rows, f.r.block(step * ms, step * ms, ms, rows.cols()));
  });
  return f;
}

}  // namespace bst::core
