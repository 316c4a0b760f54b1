#include "core/block_reflector.h"

#include <cassert>
#include <cmath>

#include "core/flop_model.h"
#include "la/blas.h"
#include "la/kernel_config.h"
#include "util/flops.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace bst::core {

const char* to_string(Representation rep) {
  switch (rep) {
    case Representation::AccumulatedU: return "U";
    case Representation::VY1: return "VY1";
    case Representation::VY2: return "VY2";
    case Representation::YTY: return "YTY";
    case Representation::Sequential: return "seq";
  }
  return "?";
}

void scale_rows_wk(View g, const Signature& sig, index_t row_offset, index_t k) {
  if (k % 2 == 0) return;
  for (index_t i = 0; i < g.rows(); ++i) {
    const double w = sig[static_cast<std::size_t>(row_offset + i)];
    if (w == 1.0) continue;
    for (index_t j = 0; j < g.cols(); ++j) g(i, j) = -g(i, j);
  }
}

BlockReflector::BlockReflector(Representation rep, index_t m, Signature sig)
    : rep_(rep), m_(m), sig_(std::move(sig)) {
  assert(static_cast<index_t>(sig_.size()) == 2 * m_);
  refl_.reserve(static_cast<std::size_t>(m_));
  switch (rep_) {
    case Representation::AccumulatedU:
      u_ = la::identity(2 * m_);
      break;
    case Representation::VY1:
    case Representation::VY2:
      v_ = Mat(2 * m_, m_);
      y_ = Mat(2 * m_, m_);
      break;
    case Representation::YTY:
      y_ = Mat(2 * m_, m_);
      t_ = Mat(m_, m_);
      break;
    case Representation::Sequential:
      break;
  }
}

BlockReflector BlockReflector::from_reflectors(Representation rep, index_t m, Signature sig,
                                               const std::vector<Reflector>& reflectors) {
  BlockReflector bref(rep, m, std::move(sig));
  for (const Reflector& r : reflectors) {
    bref.accumulate(r, bref.built_);
    bref.refl_.push_back(r);
    ++bref.built_;
  }
  return bref;
}

std::optional<StepBreakdown> BlockReflector::build(View p, View q, double breakdown_tol,
                                                   index_t inner_block) {
  assert(p.rows() == m_ && p.cols() == m_ && q.rows() == m_ && q.cols() == m_);
  if (inner_block <= 0 || inner_block >= m_ || rep_ == Representation::Sequential) {
    return build_panel(p, q, 0, m_, breakdown_tol, nullptr);
  }
  // Two-level blocking (paper section 6.2): aggregate every `inner_block`
  // reflectors and update the pivot columns to the right of the panel with
  // the level-3 application path.
  for (index_t k0 = 0; k0 < m_; k0 += inner_block) {
    const index_t k1 = std::min(m_, k0 + inner_block);
    BlockReflector panel(rep_, m_, sig_);
    if (auto bd = build_panel(p, q, k0, k1, breakdown_tol, &panel)) return bd;
    if (k1 < m_) {
      panel.apply(p.block(0, k1, m_, m_ - k1), q.block(0, k1, m_, m_ - k1));
    }
    // Finished columns left of the panel only feel the panel's W^kb.
    if (k0 > 0) {
      scale_rows_wk(p.block(0, 0, m_, k0), sig_, 0, k1 - k0);
      // (their lower rows are exactly zero already)
    }
  }
  return std::nullopt;
}

std::optional<StepBreakdown> BlockReflector::build_panel(View p, View q, index_t k0, index_t k1,
                                                         double breakdown_tol,
                                                         BlockReflector* panel_agg) {
  std::vector<double> u(static_cast<std::size_t>(2 * m_));
  // Per-reflector updates stop at the panel edge; columns beyond it are
  // updated by the aggregated panel (or, in single-level mode, k1 == m).
  const index_t cend = (panel_agg != nullptr) ? k1 : m_;
  for (index_t k = k0; k < k1; ++k) {
    // Restricted column: the pivot entry plus the lower block's column k.
    std::fill(u.begin(), u.end(), 0.0);
    u[static_cast<std::size_t>(k)] = p(k, k);
    for (index_t r = 0; r < m_; ++r) u[static_cast<std::size_t>(m_ + r)] = q(r, k);

    auto refl = make_reflector(u, sig_, k, breakdown_tol);
    if (!refl) {
      return StepBreakdown{k, hyperbolic_norm(u, sig_)};
    }
    // Transform the remaining pivot columns (k..cend-1) of [P; Q].
    for (index_t c = k; c < cend; ++c) {
      const Reflector& r = *refl;
      double t = 0.0;
      t += r.x[static_cast<std::size_t>(k)] * p(k, c);
      for (index_t rr = 0; rr < m_; ++rr)
        t += r.x[static_cast<std::size_t>(m_ + rr)] * q(rr, c);
      t *= r.beta;
      // Upper rows: only row k has a nonzero x entry; other upper rows keep
      // their W_jj = sig_j scaling.
      for (index_t rr = 0; rr < m_; ++rr) {
        const double w = sig_[static_cast<std::size_t>(rr)];
        p(rr, c) = w * p(rr, c) + (rr == k ? t * r.x[static_cast<std::size_t>(k)] : 0.0);
      }
      for (index_t rr = 0; rr < m_; ++rr) {
        const double w = sig_[static_cast<std::size_t>(m_ + rr)];
        q(rr, c) = w * q(rr, c) + t * r.x[static_cast<std::size_t>(m_ + rr)];
      }
    }
    util::FlopCounter::charge(static_cast<std::uint64_t>((cend - k)) *
                              static_cast<std::uint64_t>(5 * m_ + 4));
    // Column k is now -sigma e_k + (untouched rows above k); kill roundoff
    // in the eliminated entries.
    p(k, k) = -refl->sigma;
    for (index_t rr = 0; rr < m_; ++rr) q(rr, k) = 0.0;
    // Finished columns of this panel still need this reflector's W scaling
    // (columns of earlier panels are handled at the panel boundary).
    const index_t flip_from = (panel_agg != nullptr) ? k0 : 0;
    for (index_t c = flip_from; c < k; ++c) {
      for (index_t rr = 0; rr < m_; ++rr) {
        const double w = sig_[static_cast<std::size_t>(rr)];
        if (w != 1.0) p(rr, c) = -p(rr, c);
      }
      // Lower rows of columns < k are exactly zero already.
    }

    if (panel_agg != nullptr) {
      panel_agg->accumulate(*refl, k - k0);
      panel_agg->refl_.push_back(*refl);
      ++panel_agg->built_;
    }
    accumulate(*refl, k);
    refl_.push_back(std::move(*refl));
    ++built_;
  }
  return std::nullopt;
}

void BlockReflector::accumulate(const Reflector& r, index_t k) {
  const index_t n = 2 * m_;
  switch (rep_) {
    case Representation::Sequential:
      return;
    case Representation::AccumulatedU: {
      // U := U_{k+1} U = W U + beta x (x^T U).
      std::vector<double> z(static_cast<std::size_t>(n));
      la::gemv(/*trans=*/true, r.beta, u_.view(), r.x.data(), 0.0, z.data());
      for (index_t i = 0; i < n; ++i) {
        const double w = sig_[static_cast<std::size_t>(i)];
        if (w != 1.0) {
          for (index_t j = 0; j < n; ++j) u_(i, j) = -u_(i, j);
        }
      }
      la::ger(1.0, r.x.data(), z.data(), u_.view());
      return;
    }
    case Representation::VY1: {
      // z = beta (x^T U^{(k)}) = beta (x^T W^k) + beta (x^T V_k) Y_k^T.
      std::vector<double> z(static_cast<std::size_t>(n), 0.0);
      for (index_t i = 0; i < n; ++i) {
        double wk = 1.0;
        if (k % 2 == 1) wk = sig_[static_cast<std::size_t>(i)];
        z[static_cast<std::size_t>(i)] = r.beta * wk * r.x[static_cast<std::size_t>(i)];
      }
      if (k > 0) {
        std::vector<double> t(static_cast<std::size_t>(k));
        la::gemv(/*trans=*/true, 1.0, la::CView(v_.view().block(0, 0, n, k)), r.x.data(), 0.0,
                 t.data());
        la::gemv(/*trans=*/false, r.beta, la::CView(y_.view().block(0, 0, n, k)), t.data(), 1.0,
                 z.data());
      }
      // V := [W V_k, x].
      for (index_t c = 0; c < k; ++c) {
        for (index_t i = 0; i < n; ++i) {
          const double w = sig_[static_cast<std::size_t>(i)];
          if (w != 1.0) v_(i, c) = -v_(i, c);
        }
      }
      for (index_t i = 0; i < n; ++i) {
        v_(i, k) = r.x[static_cast<std::size_t>(i)];
        y_(i, k) = z[static_cast<std::size_t>(i)];
      }
      return;
    }
    case Representation::VY2: {
      // z = beta (x^T W^k);  V := [U_{k+1} V_k, x].
      if (k > 0) {
        View vk = v_.block(0, 0, n, k);
        std::vector<double> t(static_cast<std::size_t>(k));
        la::gemv(/*trans=*/true, r.beta, la::CView(vk), r.x.data(), 0.0, t.data());
        for (index_t i = 0; i < n; ++i) {
          const double w = sig_[static_cast<std::size_t>(i)];
          if (w != 1.0) {
            for (index_t c = 0; c < k; ++c) vk(i, c) = -vk(i, c);
          }
        }
        la::ger(1.0, r.x.data(), t.data(), vk);
      }
      for (index_t i = 0; i < n; ++i) {
        double wk = 1.0;
        if (k % 2 == 1) wk = sig_[static_cast<std::size_t>(i)];
        v_(i, k) = r.x[static_cast<std::size_t>(i)];
        y_(i, k) = r.beta * wk * r.x[static_cast<std::size_t>(i)];
      }
      return;
    }
    case Representation::YTY: {
      // a = beta (x^T Y_k T_k), b = beta;  Y := [W Y_k, x].
      if (k > 0) {
        std::vector<double> t2(static_cast<std::size_t>(k));
        la::gemv(/*trans=*/true, 1.0, la::CView(y_.view().block(0, 0, n, k)), r.x.data(), 0.0,
                 t2.data());
        // a^T = beta T_k^T t2 (T_k is the leading k x k lower triangle).
        std::vector<double> a(static_cast<std::size_t>(k), 0.0);
        for (index_t j = 0; j < k; ++j) {
          double s = 0.0;
          for (index_t i = j; i < k; ++i) s += t_(i, j) * t2[static_cast<std::size_t>(i)];
          a[static_cast<std::size_t>(j)] = r.beta * s;
        }
        for (index_t j = 0; j < k; ++j) t_(k, j) = a[static_cast<std::size_t>(j)];
        util::FlopCounter::charge(static_cast<std::uint64_t>(k) * (k + 1));
      }
      t_(k, k) = r.beta;
      for (index_t c = 0; c < k; ++c) {
        for (index_t i = 0; i < n; ++i) {
          const double w = sig_[static_cast<std::size_t>(i)];
          if (w != 1.0) y_(i, c) = -y_(i, c);
        }
      }
      for (index_t i = 0; i < n; ++i) y_(i, k) = r.x[static_cast<std::size_t>(i)];
      return;
    }
  }
}

namespace {

// Bytes an apply charges: the operand footprints of the level-3 products it
// counts, each factor read once and each product read and written (the
// la::gemm convention), for r reflectors and l columns.
std::uint64_t application_bytes(Representation rep, index_t m, index_t r, index_t l) {
  switch (rep) {
    case Representation::AccumulatedU:  // four m x m quadrants against m x l
      return static_cast<std::uint64_t>(32 * (m * m + 3 * m * l));
    case Representation::VY1:  // Y_up^T A, Y_low^T B, V_low Z
      return static_cast<std::uint64_t>(8 * (3 * m * r + 4 * m * l + 5 * r * l));
    case Representation::VY2:
    case Representation::YTY:  // Y_low^T B, then V_low or Y_low times Z
      return static_cast<std::uint64_t>(8 * (2 * m * r + 3 * m * l + 3 * r * l));
    case Representation::Sequential:
      break;
  }
  return 0;
}

// The per-thread scratch of apply(): the packed factors, the diagonals,
// YTY's folded update factors and the chunk's Z and T Z.  Grow-only, so once
// a thread has applied one step its later applies allocate nothing.
struct ApplyScratch {
  la::PackedLeft f[4];
  std::vector<double> d, dz;
  la::PackBuffer fold, work;
};

ApplyScratch& apply_scratch() {
  thread_local ApplyScratch scratch;
  return scratch;
}

}  // namespace

void BlockReflector::apply(View a, View b) const {
  assert(built_ >= 1 && "apply() before a successful build()");
  assert(a.rows() == m_ && b.rows() == m_ && a.cols() == b.cols());
  if (a.cols() == 0) return;
  if (rep_ == Representation::Sequential) return apply_sequential(a, b);
  const index_t m = m_, r = built_, l = a.cols();
  // A step's (or a panel's) reflectors eliminate consecutive pivot columns,
  // so the sparse upper factors live in the r x r block of rows p0.. .
  const index_t p0 = refl_.front().pivot;
  for (index_t k = 0; k < r; ++k) {
    assert(refl_[static_cast<std::size_t>(k)].pivot == p0 + k);
  }
  // Packed micro-kernel or direct loops, from m alone: a column's result
  // then never depends on how many columns come with it.
  const la::KernelConfig& cfg = la::KernelConfig::active();
  const bool packed = m >= cfg.pack_min_m;
  // YTY's Z = Y^T W^{r-1} [A; B]: W^{r-1} flips the signed rows when r is
  // even.  On the direct loops YTY forms T Z as its own product.
  const bool odd = rep_ == Representation::YTY && (r - 1) % 2 == 1;
  const bool tz_pass = rep_ == Representation::YTY && !packed;
  // The small factors, packed once per call.  The upper halves carry the
  // sparsity of paper Figs. 3-4 within the pivot rows:
  //   VY1: V_up is diagonal, Y_up dense;
  //   VY2: Y_up is diagonal, V_up lower triangular;
  //   YTY: Y_up is diagonal, T lower triangular.
  // d holds the diagonal one and dz its copy that forms Z (W^{r-1}-signed
  // for YTY).
  ApplyScratch& scratch = apply_scratch();
  la::PackedLeft* f = scratch.f;
  std::vector<double>& d = scratch.d;
  std::vector<double>& dz = scratch.dz;
  d.resize(static_cast<std::size_t>(r));
  dz.resize(static_cast<std::size_t>(r));
  for (index_t k = 0; k < r && rep_ != Representation::AccumulatedU; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    d[kk] = (rep_ == Representation::VY1) ? v_(p0 + k, k) : y_(p0 + k, k);
    dz[kk] = odd ? d[kk] * sig_[static_cast<std::size_t>(p0 + k)] : d[kk];
  }
  switch (rep_) {
    case Representation::AccumulatedU:
      for (index_t q = 0; q < 4; ++q) {
        f[q].pack(la::Op::None, u_.block((q / 2) * m, (q % 2) * m, m, m), packed);
      }
      break;
    case Representation::VY1:
      f[0].pack(la::Op::Trans, y_.block(0, 0, m, r), packed);
      f[1].pack(la::Op::Trans, y_.block(m, 0, m, r), packed);
      f[2].pack(la::Op::None, v_.block(m, 0, m, r), packed);
      break;
    case Representation::VY2:
      f[0].pack(la::Op::Trans, y_.block(m, 0, m, r), packed);
      f[1].pack_lower(v_.block(p0, 0, r, r), packed);
      f[2].pack(la::Op::None, v_.block(m, 0, m, r), packed);
      break;
    case Representation::YTY: {
      // The signs of W^{r-1} fold into the packed Y_low^T.
      f[0].pack(la::Op::Trans, y_.block(m, 0, m, r), packed,
                odd ? &sig_[static_cast<std::size_t>(m)] : nullptr);
      f[2].pack(la::Op::None, y_.block(m, 0, m, r), packed);
      if (tz_pass) {
        f[1].pack_lower(t_.block(0, 0, r, r), false);
        break;
      }
      // Y T Z = V Z with V_up = diag(Y_up) T and V_low = Y_low T, formed
      // once per call, so each chunk runs VY2's three products.  T's strict
      // upper triangle is zero (t_ starts zeroed), so the dense product
      // reads zeros there.
      View v(scratch.fold.get(static_cast<std::size_t>((r + m) * r)), r + m, r, r + m);
      for (index_t k = 0; k < r; ++k) {
        for (index_t i = k; i < r; ++i) v(i, k) = d[static_cast<std::size_t>(i)] * t_(i, k);
      }
      la::gemm(f[2], t_.block(0, 0, r, r), 0.0, v.block(r, 0, m, r));
      f[1].pack_lower(v.block(0, 0, r, r), true);
      f[2].pack(la::Op::None, v.block(r, 0, m, r), true);
      break;
    }
    case Representation::Sequential:
      break;
  }
  // One sweep over column chunks sized so a chunk of [A; B] with its Z and
  // T Z (4m doubles a column) fills the L1 share KernelConfig budgets for
  // one kc-deep pair of micro-panels, kc (mr + nr) doubles.  Z stays in L1
  // from the product that forms it to the A and B updates it feeds.
  const index_t nr = la::kMicroCols;
  const index_t w =
      std::min(l, std::max(nr, cfg.kc * (la::kMicroRows + nr) / (4 * m) / nr * nr));
  const auto chunk = [&](index_t j0) {
    const index_t wc = std::min(w, l - j0);
    // U: the new [A; B]; the others: Z and T Z, in the scratch of the
    // thread that runs the chunk.  Every entry read is written first, so
    // the scratch needs no clearing.
    View work(apply_scratch().work.get(static_cast<std::size_t>(2 * m * w)), 2 * m, w, 2 * m);
    View ac = a.block(0, j0, m, wc), bc = b.block(0, j0, m, wc);
    View ap = ac.block(p0, 0, r, wc);  // A's pivot rows
    View z = work.block(0, 0, r, wc), tz = work.block(r, 0, r, wc);
    switch (rep_) {
      case Representation::AccumulatedU: {
        // [A; B] := [U11 U12; U21 U22] [A; B].
        View ta = work.block(0, 0, m, wc), tb = work.block(m, 0, m, wc);
        la::gemm(f[0], ac, 0.0, ta);
        la::gemm(f[1], bc, 1.0, ta);
        la::gemm(f[2], ac, 0.0, tb);
        la::gemm(f[3], bc, 1.0, tb);
        la::copy(ta, ac);
        la::copy(tb, bc);
        break;
      }
      case Representation::VY1:
        // Z = Y_up^T A + Y_low^T B;  A := W^r A + V_up Z;  B := W^r B + V_low Z.
        la::gemm(f[0], ac, 0.0, z);
        la::gemm(f[1], bc, 1.0, z);
        scale_rows_wk(ac, sig_, 0, r);
        scale_rows_wk(bc, sig_, m, r);
        la::dgmm(d.data(), z, ap);
        la::gemm(f[2], z, 1.0, bc);
        break;
      case Representation::VY2:
      case Representation::YTY:
        // Z = Y_up^T A + Y_low^T B (YTY: Y^T W^{r-1} [A; B]);
        // A := W^r A + V_up Z;  B := W^r B + V_low Z, with YTY's folded V.
        la::gemm(f[0], bc, 0.0, z);
        la::dgmm(dz.data(), ap, z);
        if (tz_pass) {
          // The direct loops: T Z, then A += Y_up T Z and B += Y_low T Z.
          la::gemm(f[1], z, 0.0, tz);
          scale_rows_wk(ac, sig_, 0, r);
          scale_rows_wk(bc, sig_, m, r);
          la::dgmm(d.data(), tz, ap);
          la::gemm(f[2], tz, 1.0, bc);
          break;
        }
        scale_rows_wk(ac, sig_, 0, r);
        scale_rows_wk(bc, sig_, m, r);
        la::gemm(f[1], z, 1.0, ap);
        la::gemm(f[2], z, 1.0, bc);
        break;
      case Representation::Sequential:
        break;
    }
  };
  // Chunks write disjoint columns, so a call big enough for the kernels'
  // pool rule spreads them over the pool without changing a bit.
  const double flops = application_flops_per_column(rep_, m, r) * static_cast<double>(l);
  const index_t chunks = (l + w - 1) / w;
  if (chunks > 1 && la::want_parallel(flops)) {
    util::ThreadPool::global().parallel_for(
        0, static_cast<std::size_t>(chunks),
        [&](std::size_t c) { chunk(static_cast<index_t>(c) * w); });
  } else {
    for (index_t j0 = 0; j0 < l; j0 += w) chunk(j0);
  }
  util::FlopCounter::charge(static_cast<std::uint64_t>(application_flops_per_column(rep_, m, r)) *
                            static_cast<std::uint64_t>(l));
  util::ByteCounter::charge(application_bytes(rep_, m, r, l));
}

void BlockReflector::apply_sequential(View a, View b) const {
  const index_t l = a.cols();
  for (const Reflector& r : refl_) {
    const index_t k = r.pivot;
    for (index_t c = 0; c < l; ++c) {
      double t = r.x[static_cast<std::size_t>(k)] * a(k, c);
      for (index_t rr = 0; rr < m_; ++rr)
        t += r.x[static_cast<std::size_t>(m_ + rr)] * b(rr, c);
      t *= r.beta;
      for (index_t rr = 0; rr < m_; ++rr) {
        const double w = sig_[static_cast<std::size_t>(rr)];
        a(rr, c) = w * a(rr, c) + (rr == k ? t * r.x[static_cast<std::size_t>(k)] : 0.0);
      }
      for (index_t rr = 0; rr < m_; ++rr) {
        const double w = sig_[static_cast<std::size_t>(m_ + rr)];
        b(rr, c) = w * b(rr, c) + t * r.x[static_cast<std::size_t>(m_ + rr)];
      }
    }
    util::FlopCounter::charge(static_cast<std::uint64_t>(l) *
                              static_cast<std::uint64_t>(5 * m_ + 4));
  }
}

Mat BlockReflector::dense_u() const {
  Mat u = la::identity(2 * m_);
  for (const Reflector& r : refl_) {
    // U := U_r U = W U + beta x (x^T U).
    const index_t n = 2 * m_;
    std::vector<double> z(static_cast<std::size_t>(n));
    la::gemv(/*trans=*/true, r.beta, u.view(), r.x.data(), 0.0, z.data());
    for (index_t i = 0; i < n; ++i) {
      const double w = sig_[static_cast<std::size_t>(i)];
      if (w != 1.0) {
        for (index_t j = 0; j < n; ++j) u(i, j) = -u(i, j);
      }
    }
    la::ger(1.0, r.x.data(), z.data(), u.view());
  }
  return u;
}

}  // namespace bst::core
