#include "core/pcg.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "la/condest.h"
#include "la/norms.h"
#include "util/cli.h"
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
  const std::size_t pu = static_cast<std::size_t>(p_);

  // Frequency blocks What_f(ri, rj) = forward DFT (length p) of the Strang
  // coefficient sequence W_l(ri, rj).  T's block at offset d = bi - bj is
  // T_{1-d} for d <= 0 and T_{d+1}^T for d > 0.
  std::vector<std::vector<cplx>> spec(mm);
  std::vector<cplx> seq(pu);
  for (la::index_t ri = 0; ri < m_; ++ri) {
    for (la::index_t rj = 0; rj < m_; ++rj) {
      for (la::index_t l = 0; l < p_; ++l) {
        double w;
        if (2 * l < p_) {
          w = l == 0 ? t.block(1)(ri, rj) : t.block(l + 1)(rj, ri);  // A_l
        } else if (2 * l > p_) {
          w = t.block(p_ - l + 1)(ri, rj);  // A_{l-p}
        } else {
          w = 0.5 * (t.block(l + 1)(rj, ri) + t.block(l + 1)(ri, rj));
        }
        seq[static_cast<std::size_t>(l)] = cplx(w, 0.0);
      }
      toeplitz::dft(seq, /*inverse=*/false);
      spec[static_cast<std::size_t>(ri * m_ + rj)] = seq;
    }
  }

  // Complex Cholesky LL^H of each (Hermitian) frequency block.
  fac_.assign(pu * mm, cplx{});
  min_pivot_ = std::numeric_limits<double>::infinity();
  max_pivot_ = 0.0;
  util::FlopCounter::charge(8 * static_cast<std::uint64_t>(m_) *
                            static_cast<std::uint64_t>(m_) *
                            static_cast<std::uint64_t>(m_) * pu / 3);
  for (std::size_t f = 0; f < pu; ++f) {
    cplx* l = fac_.data() + f * mm;
    for (la::index_t j = 0; j < m_; ++j) {
      double d = spec[static_cast<std::size_t>(j * m_ + j)][f].real();
      for (la::index_t k = 0; k < j; ++k) d -= std::norm(l[j + k * m_]);
      min_pivot_ = std::min(min_pivot_, d);
      max_pivot_ = std::max(max_pivot_, d);
      if (!(d > 0.0)) {
        spd_ = false;
        return;
      }
      const double ljj = std::sqrt(d);
      l[j + j * m_] = cplx(ljj, 0.0);
      for (la::index_t i = j + 1; i < m_; ++i) {
        cplx s = spec[static_cast<std::size_t>(i * m_ + j)][f];
        for (la::index_t k = 0; k < j; ++k) s -= l[i + k * m_] * std::conj(l[j + k * m_]);
        l[i + j * m_] = s / ljj;
      }
    }
  }
}

void CirculantPreconditioner::apply_inverse(const std::vector<double>& r,
                                            std::vector<double>& z) const {
  assert(spd_ && "apply_inverse on a non-SPD preconditioner");
  assert(static_cast<la::index_t>(r.size()) == order());
  util::TraceSpan span(kPcgPrecondPhase);
  const std::size_t pu = static_cast<std::size_t>(p_);
  const std::size_t mm = static_cast<std::size_t>(m_ * m_);

  // Forward DFT of the m strided components of r.
  std::vector<std::vector<cplx>> v(static_cast<std::size_t>(m_));
  for (la::index_t c = 0; c < m_; ++c) {
    auto& vc = v[static_cast<std::size_t>(c)];
    vc.resize(pu);
    for (la::index_t l = 0; l < p_; ++l) {
      vc[static_cast<std::size_t>(l)] = cplx(r[static_cast<std::size_t>(l * m_ + c)], 0.0);
    }
    toeplitz::dft(vc, /*inverse=*/false);
  }

  // Per-frequency L L^H u = rhat solves (two m x m triangular sweeps).
  util::FlopCounter::charge(8 * static_cast<std::uint64_t>(m_) *
                            static_cast<std::uint64_t>(m_) * pu);
  std::vector<cplx> u(static_cast<std::size_t>(m_));
  for (std::size_t f = 0; f < pu; ++f) {
    const cplx* l = fac_.data() + f * mm;
    for (la::index_t i = 0; i < m_; ++i) u[static_cast<std::size_t>(i)] = v[static_cast<std::size_t>(i)][f];
    for (la::index_t i = 0; i < m_; ++i) {  // L y = u
      cplx s = u[static_cast<std::size_t>(i)];
      for (la::index_t k = 0; k < i; ++k) s -= l[i + k * m_] * u[static_cast<std::size_t>(k)];
      u[static_cast<std::size_t>(i)] = s / l[i + i * m_].real();
    }
    for (la::index_t i = m_ - 1; i >= 0; --i) {  // L^H w = y
      cplx s = u[static_cast<std::size_t>(i)];
      for (la::index_t k = i + 1; k < m_; ++k) {
        s -= std::conj(l[k + i * m_]) * u[static_cast<std::size_t>(k)];
      }
      u[static_cast<std::size_t>(i)] = s / l[i + i * m_].real();
    }
    for (la::index_t i = 0; i < m_; ++i) v[static_cast<std::size_t>(i)][f] = u[static_cast<std::size_t>(i)];
  }

  z.resize(static_cast<std::size_t>(order()));
  for (la::index_t c = 0; c < m_; ++c) {
    auto& vc = v[static_cast<std::size_t>(c)];
    toeplitz::dft(vc, /*inverse=*/true);
    for (la::index_t l = 0; l < p_; ++l) {
      z[static_cast<std::size_t>(l * m_ + c)] = vc[static_cast<std::size_t>(l)].real();
    }
  }
  util::ByteCounter::charge(16 * static_cast<std::uint64_t>(order()));
}

PcgOptions PcgOptions::from_env(PcgOptions base) {
  if (const char* s = std::getenv("BST_PCG_TOL"); s != nullptr && *s != '\0') {
    base.tol = util::parse_number<double>("BST_PCG_TOL", s);
  }
  if (const char* s = std::getenv("BST_PCG_MAXIT"); s != nullptr && *s != '\0') {
    base.max_iters = static_cast<int>(std::max(1L, util::parse_number<long>("BST_PCG_MAXIT", s)));
  }
  return base;
}

PcgResult pcg_solve(const toeplitz::MatVec& op, const CirculantPreconditioner& precond,
                    const std::vector<double>& b, const PcgOptions& opt) {
  util::TraceSpan span(kPcgPhase);
  PcgResult res;
  const auto n = static_cast<std::size_t>(op.order());
  assert(b.size() == n && precond.order() == op.order());
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
    // Vector updates: two axpys, two dots, one norm (~10 n flops/iter).
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
