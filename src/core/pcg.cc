#include "core/pcg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "la/condest.h"
#include "la/norms.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/flops.h"
#include "util/metrics.h"
#include "util/stallguard.h"
#include "util/trace.h"
#include "util/watchdog.h"

namespace bst::core {
namespace {

using toeplitz::cplx;

const util::PhaseId kPcgPhase = util::Tracer::phase("pcg");
const util::PhaseId kPcgSetupPhase = util::Tracer::phase("pcg_setup");
const util::PhaseId kPcgPrecondPhase = util::Tracer::phase("pcg_precond");

util::HistId pcg_iters_hist() {
  static const util::HistId id = util::Metrics::histogram("pcg_iterations");
  return id;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

CirculantPreconditioner::CirculantPreconditioner(const toeplitz::BlockToeplitz& t)
    : m_(t.block_size()), p_(t.num_blocks()) {
  util::TraceSpan span(kPcgSetupPhase);
  const std::size_t mm = static_cast<std::size_t>(m_ * m_);
  plan_ = toeplitz::FftPlan(std::max<std::size_t>(static_cast<std::size_t>(p_), 1));
  const std::size_t bins = plan_.bins();

  // Frequency blocks What_f(ri, rj), f <= p/2, = real forward transform
  // (length p) of the Strang coefficient sequence W_l(ri, rj), computed in
  // place in its slot of `spec`.  T's block at offset d = bi - bj is
  // T_{1-d} for d <= 0 and T_{d+1}^T for d > 0.
  std::vector<cplx> spec(mm * bins);
  std::vector<cplx> work(plan_.work_size());
  for (la::index_t ri = 0; ri < m_; ++ri) {
    for (la::index_t rj = 0; rj < m_; ++rj) {
      cplx* s = spec.data() + static_cast<std::size_t>(ri * m_ + rj) * bins;
      double* seq = reinterpret_cast<double*>(s);
      for (la::index_t l = 0; l < p_; ++l) {
        double w;
        if (2 * l < p_) {
          w = l == 0 ? t.block(1)(ri, rj) : t.block(l + 1)(rj, ri);  // A_l
        } else if (2 * l > p_) {
          w = t.block(p_ - l + 1)(ri, rj);  // A_{l-p}
        } else {
          w = 0.5 * (t.block(l + 1)(rj, ri) + t.block(l + 1)(ri, rj));
        }
        seq[l] = w;
      }
      plan_.forward_real(s, work.data());
    }
  }
  auto at = [&](la::index_t i, la::index_t j, std::size_t f) {
    return spec[static_cast<std::size_t>(i * m_ + j) * bins + f];
  };

  // Complex Cholesky LL^H of each (Hermitian) frequency block.
  fac_.assign(bins * mm, cplx{});
  min_pivot_ = std::numeric_limits<double>::infinity();
  max_pivot_ = 0.0;
  util::FlopCounter::charge(8 * static_cast<std::uint64_t>(m_) *
                            static_cast<std::uint64_t>(m_) *
                            static_cast<std::uint64_t>(m_) * bins / 3);
  for (std::size_t f = 0; f < bins; ++f) {
    cplx* l = fac_.data() + f * mm;
    for (la::index_t j = 0; j < m_; ++j) {
      double d = at(j, j, f).real();
      for (la::index_t k = 0; k < j; ++k) d -= std::norm(l[j + k * m_]);
      min_pivot_ = std::min(min_pivot_, d);
      max_pivot_ = std::max(max_pivot_, d);
      if (!(d > 0.0)) {
        spd_ = false;
        return;
      }
      const double ljj = std::sqrt(d);
      l[j + j * m_] = cplx(1.0 / ljj, 0.0);  // the solves multiply by it
      for (la::index_t i = j + 1; i < m_; ++i) {
        cplx s = at(i, j, f);
        for (la::index_t k = 0; k < j; ++k) s -= l[i + k * m_] * std::conj(l[j + k * m_]);
        l[i + j * m_] = s / ljj;
      }
    }
  }
}

void CirculantPreconditioner::apply_inverse(const std::vector<double>& r,
                                            std::vector<double>& z) const {
  if (!spd_) {
    throw std::invalid_argument(
        "CirculantPreconditioner::apply_inverse: the preconditioner is not positive definite");
  }
  if (static_cast<la::index_t>(r.size()) != order()) {
    throw std::invalid_argument("CirculantPreconditioner::apply_inverse: r has length " +
                                std::to_string(r.size()) + ", the order is " +
                                std::to_string(order()));
  }
  util::TraceSpan span(kPcgPrecondPhase);
  const auto m = static_cast<std::size_t>(m_);
  const auto p = static_cast<std::size_t>(p_);
  const std::size_t mm = m * m, bins = plan_.bins();

  // One allocation per call: the m half spectra, the per-frequency vector
  // and the transforms' scratch.
  std::vector<cplx> buf(m * bins + m + plan_.work_size());
  cplx* v = buf.data();
  cplx* u = v + m * bins;
  cplx* work = u + m;

  // Real forward transforms of the m strided components of r.
  for (std::size_t c = 0; c < m; ++c) {
    double* vc = reinterpret_cast<double*>(v + c * bins);
    for (std::size_t l = 0; l < p; ++l) vc[l] = r[l * m + c];
    plan_.forward_real(v + c * bins, work);
  }

  // Per-frequency L L^H u = rhat solves (two m x m triangular sweeps, in
  // real arithmetic); the frequencies above p/2 are the conjugates, which
  // inverse_real implies.
  util::FlopCounter::charge(8 * static_cast<std::uint64_t>(mm) * bins);
  double* ud = reinterpret_cast<double*>(u);
  for (std::size_t f = 0; f < bins; ++f) {
    const double* l = reinterpret_cast<const double*>(fac_.data() + f * mm);
    for (std::size_t i = 0; i < m; ++i) u[i] = v[i * bins + f];
    for (std::size_t i = 0; i < m; ++i) {  // L y = u
      double sr = ud[2 * i], si = ud[2 * i + 1];
      for (std::size_t k = 0; k < i; ++k) {
        const double lr = l[2 * (i + k * m)], li = l[2 * (i + k * m) + 1];
        sr -= lr * ud[2 * k] - li * ud[2 * k + 1];
        si -= lr * ud[2 * k + 1] + li * ud[2 * k];
      }
      const double inv = l[2 * (i + i * m)];
      ud[2 * i] = sr * inv;
      ud[2 * i + 1] = si * inv;
    }
    for (std::size_t i = m; i-- > 0;) {  // L^H w = y
      double sr = ud[2 * i], si = ud[2 * i + 1];
      for (std::size_t k = i + 1; k < m; ++k) {
        const double lr = l[2 * (k + i * m)], li = l[2 * (k + i * m) + 1];
        sr -= lr * ud[2 * k] + li * ud[2 * k + 1];
        si -= lr * ud[2 * k + 1] - li * ud[2 * k];
      }
      const double inv = l[2 * (i + i * m)];
      ud[2 * i] = sr * inv;
      ud[2 * i + 1] = si * inv;
    }
    for (std::size_t i = 0; i < m; ++i) v[i * bins + f] = u[i];
  }

  z.resize(static_cast<std::size_t>(order()));
  for (std::size_t c = 0; c < m; ++c) {
    plan_.inverse_real(v + c * bins, work);
    const double* vc = reinterpret_cast<const double*>(v + c * bins);
    for (std::size_t l = 0; l < p; ++l) z[l * m + c] = vc[l];
  }
  util::ByteCounter::charge(16 * static_cast<std::uint64_t>(order()));
}

PcgOptions PcgOptions::from_env(PcgOptions base) {
  util::env::read("BST_PCG_TOL", base.tol);
  util::env::read("BST_PCG_MAXIT", base.max_iters);
  return base;
}

PcgResult pcg_solve(const toeplitz::MatVec& op, const CirculantPreconditioner& precond,
                    const std::vector<double>& b, const PcgOptions& opt) {
  const auto n = static_cast<std::size_t>(op.order());
  if (b.size() != n || precond.order() != op.order()) {
    throw std::invalid_argument("pcg_solve: b has length " + std::to_string(b.size()) +
                                " and the preconditioner order " +
                                std::to_string(precond.order()) + " for an operator of order " +
                                std::to_string(n));
  }
  util::TraceSpan span(kPcgPhase);
  PcgResult res;
  res.x.assign(n, 0.0);

  const double nb = la::norm2(b);
  res.residual_norms.push_back(nb);
  if (nb == 0.0) {
    res.converged = true;
    return res;
  }

  std::vector<double> r = b, z, p, q;
  precond.apply_inverse(r, z);
  p = z;
  double rz = dot(r, z);
  double best = nb;
  double last = nb;

  for (int it = 0; it < opt.max_iters; ++it) {
    util::Fault::fire("pcg");
    util::StallGuard::beat();  // per-iteration progress
    op.apply(p, q);
    const double pq = dot(p, q);
    if (!(pq > 0.0)) {
      // T is not positive definite along p: CG's theory is void.  Stop and
      // let the caller fall back to the Schur path.
      util::Watchdog::warn("pcg_breakdown", res.iterations, pq, 0.0);
      break;
    }
    const double alpha = rz / pq;
    for (std::size_t i = 0; i < n; ++i) {
      res.x[i] += alpha * p[i];
      r[i] -= alpha * q[i];
    }
    ++res.iterations;
    const double rn = la::norm2(r);
    res.residual_norms.push_back(rn);
    last = rn;
    // Vector updates: two axpys, two dots and one xpay (10 n flops/iter);
    // the norm charges its own 3 n.
    util::FlopCounter::charge(10 * static_cast<std::uint64_t>(n));
    util::ByteCounter::charge(8 * 7 * static_cast<std::uint64_t>(n));
    if (rn <= opt.tol * nb) {
      res.converged = true;
      break;
    }
    if (rn > 10.0 * best) break;  // diverging; check_pcg below flags it
    best = std::min(best, rn);
    precond.apply_inverse(r, z);
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    rz = rz_new;
  }

  util::Watchdog::check_pcg(res.iterations, res.converged, best > 0.0 ? last / best : 0.0);
  if (util::Tracer::enabled()) {
    util::Metrics::record(pcg_iters_hist(), static_cast<std::uint64_t>(res.iterations));
  }
  return res;
}

double circulant_condest(const toeplitz::BlockToeplitz& t,
                         const CirculantPreconditioner& precond) {
  if (!precond.positive_definite()) return std::numeric_limits<double>::infinity();
  la::SolveFn solve = [&precond](const std::vector<double>& b, std::vector<double>& x) {
    precond.apply_inverse(b, x);
  };
  // M is symmetric, so the transpose solve is the same callback.
  return la::condest1(t.order(), t.norm1_upper(), solve, solve);
}

}  // namespace bst::core
