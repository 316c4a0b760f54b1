// Level-3 kernels, built as a BLIS-style stack (docs/KERNELS.md).
//
// Layers, bottom to top:
//   1. an mr x nr register micro-kernel (portable C plus a runtime-dispatched
//      AVX2/FMA variant) computing a C tile from packed panels,
//   2. a macro-kernel sweeping micro-tiles over one packed A block x B panel,
//   3. MC/KC/NC cache blocking with A/B packing into aligned thread-local
//      buffers (KernelConfig picks the block sizes),
//   4. a dispatcher that routes small calls to direct scalar loops (the Schur
//      hot shapes: 2m-row generator panels with m in {1..8}) and large calls
//      to a ThreadPool-parallel 2-D tile grid,
//   5. the public gemm/syrk_lower/trsm entry points, which keep the exact
//      flop/byte charging semantics of the seed kernels: each charges a
//      closed-form total once, on the calling thread, so counts are identical
//      whether a call runs serially or fans out to the pool.
//
// syrk_lower and trsm are blocked so their inner updates run through the
// packed gemm engine; their O(blk^2) diagonal work stays scalar.  PackedLeft
// keeps a small factor (or its lower triangle) packed across many products
// with column chunks read in place: the block reflector apply.
#include <algorithm>
#include <cstdlib>
#include <new>

#include "la/blas.h"
#include "la/kernel_config.h"
#include "util/flops.h"
#include "util/thread_pool.h"
#include "util/trace.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define BST_KERNEL_X86 1
#include <immintrin.h>
#endif

namespace bst::la {
namespace {

constexpr index_t MR = kMicroRows;
constexpr index_t NR = kMicroCols;

// ----- seed engines (accumulate-only, no charging) --------------------------
// These are the pre-stack loops, unchanged.  They serve three roles: the
// direct path for shapes below the packing crossover, the reference the
// kernel tests diff against, and the baseline series in bench_kernels.

// k-blocking keeps a panel of A plus the active C columns cache-resident.
constexpr index_t kSeedKc = 256;

// C(m x n) += alpha * A(m x k) * B(k x n), all column-major, no transposes.
// Register-blocks four columns of C at a time; the inner loop is a fused
// multiply-add over stride-1 columns of A.
void seed_nn(double alpha, CView a, CView b, View c) {
  const index_t m = a.rows(), k = a.cols(), n = b.cols();
  for (index_t l0 = 0; l0 < k; l0 += kSeedKc) {
    const index_t lend = std::min(k, l0 + kSeedKc);
    index_t j = 0;
    for (; j + 4 <= n; j += 4) {
      double* c0 = c.col(j);
      double* c1 = c.col(j + 1);
      double* c2 = c.col(j + 2);
      double* c3 = c.col(j + 3);
      for (index_t l = l0; l < lend; ++l) {
        const double* al = a.col(l);
        const double b0 = alpha * b(l, j);
        const double b1 = alpha * b(l, j + 1);
        const double b2 = alpha * b(l, j + 2);
        const double b3 = alpha * b(l, j + 3);
        for (index_t i = 0; i < m; ++i) {
          const double av = al[i];
          c0[i] += av * b0;
          c1[i] += av * b1;
          c2[i] += av * b2;
          c3[i] += av * b3;
        }
      }
    }
    for (; j < n; ++j) {
      double* cj = c.col(j);
      for (index_t l = l0; l < lend; ++l) {
        const double* al = a.col(l);
        const double bv = alpha * b(l, j);
        for (index_t i = 0; i < m; ++i) cj[i] += al[i] * bv;
      }
    }
  }
}

// C(m x n) += alpha * A^T(m x k) * B(k x n): C(i,j) += sum_l A(l,i) B(l,j),
// expressed as stride-1 dot products down the columns of A and B.
void seed_tn(double alpha, CView a, CView b, View c) {
  const index_t m = a.cols(), k = a.rows(), n = b.cols();
  for (index_t j = 0; j < n; ++j) {
    const double* bj = b.col(j);
    double* cj = c.col(j);
    for (index_t i = 0; i < m; ++i) {
      const double* ai = a.col(i);
      double s = 0.0;
      for (index_t l = 0; l < k; ++l) s += ai[l] * bj[l];
      cj[i] += alpha * s;
    }
  }
}

// C(m x n) += alpha * A(m x k) * B^T(k x n): B^T(l,j) = B(j,l).
void seed_nt(double alpha, CView a, CView b, View c) {
  const index_t m = a.rows(), k = a.cols(), n = b.rows();
  for (index_t l = 0; l < k; ++l) {
    const double* al = a.col(l);
    for (index_t j = 0; j < n; ++j) {
      const double bv = alpha * b(j, l);
      if (bv == 0.0) continue;
      double* cj = c.col(j);
      for (index_t i = 0; i < m; ++i) cj[i] += al[i] * bv;
    }
  }
}

// C(m x n) += alpha * A^T(m x k) * B^T(k x n).
void seed_tt(double alpha, CView a, CView b, View c) {
  const index_t m = a.cols(), k = a.rows(), n = b.rows();
  for (index_t j = 0; j < n; ++j) {
    double* cj = c.col(j);
    for (index_t i = 0; i < m; ++i) {
      const double* ai = a.col(i);
      double s = 0.0;
      for (index_t l = 0; l < k; ++l) s += ai[l] * b(j, l);
      cj[i] += alpha * s;
    }
  }
}

// C += alpha * op(A) op(B) through the seed loops.
void accum_direct(Op ta, Op tb, double alpha, CView a, CView b, View c) {
  if (ta == Op::None && tb == Op::None) seed_nn(alpha, a, b, c);
  else if (ta == Op::Trans && tb == Op::None) seed_tn(alpha, a, b, c);
  else if (ta == Op::None && tb == Op::Trans) seed_nt(alpha, a, b, c);
  else seed_tt(alpha, a, b, c);
}

// ----- packing --------------------------------------------------------------

// One scratch per thread per operand, so the packed panels of concurrent
// tiles never alias.
PackBuffer& pack_a_buffer() {
  thread_local PackBuffer buf;
  return buf;
}
PackBuffer& pack_b_buffer() {
  thread_local PackBuffer buf;
  return buf;
}

index_t panels(index_t extent, index_t tile) { return (extent + tile - 1) / tile; }

// Packs op(A)(ic:ic+mb, pc:pc+kb) into MR-row panels: panel p holds rows
// [p*MR, p*MR+MR) depth-major (dst[l*MR + i]), short last panel zero-padded
// so the micro-kernel never reads uninitialized lanes.
void pack_a(Op ta, CView a, index_t ic, index_t pc, index_t mb, index_t kb, double* dst) {
  for (index_t ir = 0; ir < mb; ir += MR) {
    const index_t mr = std::min(MR, mb - ir);
    if (ta == Op::None) {
      for (index_t l = 0; l < kb; ++l) {
        const double* src = a.col(pc + l) + ic + ir;
        double* d = dst + l * MR;
        index_t i = 0;
        for (; i < mr; ++i) d[i] = src[i];
        for (; i < MR; ++i) d[i] = 0.0;
      }
    } else {
      // op(A)(r, c) = A(c, r): row r of op(A) is column ic+ir+i of A, so the
      // stride-1 direction is the depth index l.
      for (index_t i = 0; i < mr; ++i) {
        const double* src = a.col(ic + ir + i) + pc;
        double* d = dst + i;
        for (index_t l = 0; l < kb; ++l) d[l * MR] = src[l];
      }
      for (index_t i = mr; i < MR; ++i) {
        double* d = dst + i;
        for (index_t l = 0; l < kb; ++l) d[l * MR] = 0.0;
      }
    }
    dst += MR * kb;
  }
}

// Packs alpha * op(B)(pc:pc+kb, jc:jc+nb) into NR-column panels, each a
// column-major kb x NR sliver (dst[j*kb + l]), short last panel
// zero-padded.  Folding alpha here costs one multiply per packed element
// instead of one per micro-kernel flop.
void pack_b(Op tb, double alpha, CView b, index_t pc, index_t jc, index_t kb, index_t nb,
            double* dst) {
  for (index_t jr = 0; jr < nb; jr += NR) {
    const index_t nr = std::min(NR, nb - jr);
    if (tb == Op::None) {
      for (index_t j = 0; j < nr; ++j) {
        const double* src = b.col(jc + jr + j) + pc;
        double* d = dst + j * kb;
        for (index_t l = 0; l < kb; ++l) d[l] = alpha * src[l];
      }
    } else {
      // op(B)(l, c) = B(c, l): for fixed depth l the columns jr+j are
      // consecutive rows of B's column pc+l.
      for (index_t l = 0; l < kb; ++l) {
        const double* src = b.col(pc + l) + jc + jr;
        for (index_t j = 0; j < nr; ++j) dst[j * kb + l] = alpha * src[j];
      }
    }
    for (index_t j = nr; j < NR; ++j) {
      double* d = dst + j * kb;
      for (index_t l = 0; l < kb; ++l) d[l] = 0.0;
    }
    dst += NR * kb;
  }
}

// ----- micro-kernels --------------------------------------------------------
// Contract: the MR x NR tile at c (column stride ldc) := (add ? c : 0) +
// sum over l of apanel[l*MR + i] * b[j*ldb + l].  The A panel comes from
// pack_a (contiguous, aligned, zero-padded); the B sliver is any kb x NR
// column-major block, a packed one from pack_b or columns read in place.
// Edge tiles go through a scratch tile (run_tile).  Writing C from the
// accumulators saves a round trip through memory, which matters at the
// small depths of the Schur products.

using UKernel = void (*)(index_t, const double*, const double*, index_t, double*, index_t,
                         bool);

void ukernel_generic(index_t kb, const double* ap, const double* bp, index_t ldb, double* c,
                     index_t ldc, bool add) {
  double acc[MR * NR] = {};
  for (index_t l = 0; l < kb; ++l) {
    const double* al = ap + l * MR;
    for (index_t j = 0; j < NR; ++j) {
      const double bv = bp[j * ldb + l];
      double* aj = acc + j * MR;
      for (index_t i = 0; i < MR; ++i) aj[i] += al[i] * bv;
    }
  }
  for (index_t j = 0; j < NR; ++j) {
    double* cj = c + j * ldc;
    const double* aj = acc + j * MR;
    for (index_t i = 0; i < MR; ++i) cj[i] = add ? cj[i] + aj[i] : aj[i];
  }
}

#if defined(BST_KERNEL_X86)
// 8x6 FMA kernel: 12 accumulator ymm registers + 2 for the A slice + 1
// broadcast = 15 of the 16 architectural registers, no spills.
__attribute__((target("avx2,fma"))) void ukernel_avx2(index_t kb, const double* ap,
                                                      const double* bp, index_t ldb,
                                                      double* c, index_t ldc, bool add) {
  const double* b0 = bp;
  const double* b1 = bp + ldb;
  const double* b2 = bp + 2 * ldb;
  const double* b3 = bp + 3 * ldb;
  const double* b4 = bp + 4 * ldb;
  const double* b5 = bp + 5 * ldb;
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  __m256d c40 = _mm256_setzero_pd(), c41 = _mm256_setzero_pd();
  __m256d c50 = _mm256_setzero_pd(), c51 = _mm256_setzero_pd();
  for (index_t l = 0; l < kb; ++l) {
    const __m256d a0 = _mm256_load_pd(ap);
    const __m256d a1 = _mm256_load_pd(ap + 4);
    __m256d bv = _mm256_broadcast_sd(b0 + l);
    c00 = _mm256_fmadd_pd(a0, bv, c00);
    c01 = _mm256_fmadd_pd(a1, bv, c01);
    bv = _mm256_broadcast_sd(b1 + l);
    c10 = _mm256_fmadd_pd(a0, bv, c10);
    c11 = _mm256_fmadd_pd(a1, bv, c11);
    bv = _mm256_broadcast_sd(b2 + l);
    c20 = _mm256_fmadd_pd(a0, bv, c20);
    c21 = _mm256_fmadd_pd(a1, bv, c21);
    bv = _mm256_broadcast_sd(b3 + l);
    c30 = _mm256_fmadd_pd(a0, bv, c30);
    c31 = _mm256_fmadd_pd(a1, bv, c31);
    bv = _mm256_broadcast_sd(b4 + l);
    c40 = _mm256_fmadd_pd(a0, bv, c40);
    c41 = _mm256_fmadd_pd(a1, bv, c41);
    bv = _mm256_broadcast_sd(b5 + l);
    c50 = _mm256_fmadd_pd(a0, bv, c50);
    c51 = _mm256_fmadd_pd(a1, bv, c51);
    ap += MR;
  }
  const auto out = [c, ldc, add](index_t j, __m256d lo, __m256d hi)
                       __attribute__((target("avx2,fma"))) {
    double* cj = c + j * ldc;
    if (add) {
      lo = _mm256_add_pd(_mm256_loadu_pd(cj), lo);
      hi = _mm256_add_pd(_mm256_loadu_pd(cj + 4), hi);
    }
    _mm256_storeu_pd(cj, lo);
    _mm256_storeu_pd(cj + 4, hi);
  };
  out(0, c00, c01);
  out(1, c10, c11);
  out(2, c20, c21);
  out(3, c30, c31);
  out(4, c40, c41);
  out(5, c50, c51);
}
#endif  // BST_KERNEL_X86

UKernel pick_ukernel(const KernelConfig& cfg) {
#if defined(BST_KERNEL_X86)
  static const bool has_simd = cpu_has_avx2_fma();
  if (cfg.simd && has_simd) return &ukernel_avx2;
#else
  (void)cfg;
#endif
  return &ukernel_generic;
}

// The mr x nr tile at c := (add ? c : 0) + one micro-kernel product; edge
// tiles run the kernel into an aligned scratch tile and copy the live part.
void run_tile(UKernel uk, index_t kb, const double* ap, const double* bp, index_t ldb,
              double* c, index_t ldc, index_t mr, index_t nr, bool add) {
  if (mr == MR && nr == NR) {
    uk(kb, ap, bp, ldb, c, ldc, add);
    return;
  }
  alignas(64) double acc[MR * NR];
  uk(kb, ap, bp, ldb, acc, MR, false);
  for (index_t j = 0; j < nr; ++j) {
    double* cj = c + j * ldc;
    const double* aj = acc + j * MR;
    for (index_t i = 0; i < mr; ++i) cj[i] = add ? cj[i] + aj[i] : aj[i];
  }
}

// ----- macro-kernel + cache blocking ----------------------------------------

// C (mb x nb) += packed A block * packed B panel.
void macro_kernel(UKernel uk, const double* ap, const double* bp, index_t mb, index_t nb,
                  index_t kb, View c) {
  for (index_t jr = 0; jr < nb; jr += NR) {
    const double* bpanel = bp + (jr / NR) * (NR * kb);
    const index_t nr = std::min(NR, nb - jr);
    for (index_t ir = 0; ir < mb; ir += MR) {
      const double* apanel = ap + (ir / MR) * (MR * kb);
      run_tile(uk, kb, apanel, bpanel, kb, c.col(jr) + ir, c.ld(), std::min(MR, mb - ir), nr,
               true);
    }
  }
}

// Serial packed gemm: C += alpha * op(A) op(B) with the full NC/KC/MC loop
// nest.  Threaded callers hand each tile of C to one invocation of this, so
// the k-accumulation order per element is independent of the tile grid and
// results are bitwise identical for every thread count.
void gemm_packed(Op ta, Op tb, double alpha, CView a, CView b, View c) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Op::None) ? a.cols() : a.rows();
  const KernelConfig& cfg = KernelConfig::active();
  const UKernel uk = pick_ukernel(cfg);
  for (index_t jc = 0; jc < n; jc += cfg.nc) {
    const index_t nb = std::min(cfg.nc, n - jc);
    for (index_t pc = 0; pc < k; pc += cfg.kc) {
      const index_t kb = std::min(cfg.kc, k - pc);
      double* bp = pack_b_buffer().get(
          static_cast<std::size_t>(panels(nb, NR) * NR * kb));
      pack_b(tb, alpha, b, pc, jc, kb, nb, bp);
      for (index_t ic = 0; ic < m; ic += cfg.mc) {
        const index_t mb = std::min(cfg.mc, m - ic);
        double* ap = pack_a_buffer().get(
            static_cast<std::size_t>(panels(mb, MR) * MR * kb));
        pack_a(ta, a, ic, pc, mb, kb, ap);
        macro_kernel(uk, ap, bp, mb, nb, kb, c.block(ic, jc, mb, nb));
      }
    }
  }
}

// Row range [r0, r0+rows) of op(A) as a view of A.
CView op_rows(Op ta, CView a, index_t r0, index_t rows) {
  const index_t k = (ta == Op::None) ? a.cols() : a.rows();
  return (ta == Op::None) ? a.block(r0, 0, rows, k) : a.block(0, r0, k, rows);
}

// Column range [c0, c0+cols) of op(B) as a view of B.
CView op_cols(Op tb, CView b, index_t c0, index_t cols) {
  const index_t k = (tb == Op::None) ? b.rows() : b.cols();
  return (tb == Op::None) ? b.block(0, c0, k, cols) : b.block(c0, 0, cols, k);
}

}  // namespace

// Enough flops to amortize dispatch, more than one thread available, and no
// enclosing parallel region (no nested pools).
bool want_parallel(double flops) {
  return flops >= static_cast<double>(KernelConfig::active().parallel_min_flops) &&
         !util::ThreadPool::in_parallel_region() && util::ThreadPool::global().size() > 1;
}

namespace {

// C += alpha * op(A) op(B): the internal accumulate engine behind every
// public level-3 entry point.  Charges nothing -- callers charge closed-form
// totals -- and never nests parallelism, so public kernels may call it from
// pool workers.
void gemm_accum(Op ta, Op tb, double alpha, CView a, CView b, View c) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Op::None) ? a.cols() : a.rows();
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  const KernelConfig& cfg = KernelConfig::active();
  // Crossover, from m and k only: the flops of one NR-wide micro-panel.
  // Both paths round a column of C the same way at any width, so a column's
  // bits never depend on how many columns share the call.  The Schur hot
  // shapes (generator panels with only a few rows) keep the direct loops,
  // where packing traffic and zero-padded SIMD lanes would dominate.
  const double panel_flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                             static_cast<double>(NR);
  if (m < cfg.pack_min_m || panel_flops < static_cast<double>(cfg.pack_min_flops)) {
    accum_direct(ta, tb, alpha, a, b, c);
    return;
  }
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  util::ThreadPool& pool = util::ThreadPool::global();
  if (!want_parallel(flops)) {
    gemm_packed(ta, tb, alpha, a, b, c);
    return;
  }
  // 2-D tile grid: pick the factorization pr x pc of the pool size whose
  // tiles are closest to square (in units of micro-tiles), then split m on
  // MR multiples and n on NR multiples so only the last tile sees edges.
  const auto np = static_cast<index_t>(pool.size());
  const index_t max_pr = std::max<index_t>(1, panels(m, MR));
  const index_t max_pc = std::max<index_t>(1, panels(n, NR));
  index_t pr = 1, pc = 1;
  double best = -1.0;
  for (index_t d = 1; d <= np; ++d) {
    if (np % d != 0) continue;
    const index_t e = np / d;
    if (d > max_pr || e > max_pc) continue;
    const double th = static_cast<double>(m) / static_cast<double>(d * MR);
    const double tw = static_cast<double>(n) / static_cast<double>(e * NR);
    const double score = std::min(th, tw) / std::max(th, tw);  // 1 == square
    if (score > best) {
      best = score;
      pr = d;
      pc = e;
    }
  }
  const auto row_edge = [&](index_t t) {
    return (t >= pr) ? m : (m * t / pr) / MR * MR;
  };
  const auto col_edge = [&](index_t t) {
    return (t >= pc) ? n : (n * t / pc) / NR * NR;
  };
  pool.parallel_for(0, static_cast<std::size_t>(pr * pc), [&](std::size_t tile) {
    const auto t = static_cast<index_t>(tile);
    const index_t r0 = row_edge(t / pc), r1 = row_edge(t / pc + 1);
    const index_t c0 = col_edge(t % pc), c1 = col_edge(t % pc + 1);
    if (r1 <= r0 || c1 <= c0) return;
    gemm_packed(ta, tb, alpha, op_rows(ta, a, r0, r1 - r0), op_cols(tb, b, c0, c1 - c0),
                c.block(r0, c0, r1 - r0, c1 - c0));
  });
}

// ----- triangular helpers (no charging) -------------------------------------

// op(T) x = b in place; the loops of the public trsv without its charges.
// Every case walks columns of T, stride 1.  Without a transpose the sweep
// is column-oriented: once x_j is final, x_j t[rest, j] is subtracted from
// the entries still to solve.  Each x_i thus sees its terms in the order
// the row-oriented substitution would subtract them for Lower (forward), so
// that case is bitwise equal to it; Upper subtracts them last column first.
// With a transpose, row j of op(T) is column j of T: a dot product.
void trsv_engine(Uplo uplo, Op op, Diag diag, CView t, double* x) {
  const index_t n = t.rows();
  const bool unit = (diag == Diag::Unit);
  const bool lower = (uplo == Uplo::Lower);
  if (op == Op::None) {
    for (index_t k = 0; k < n; ++k) {
      const index_t j = lower ? k : n - 1 - k;
      const double* tj = t.col(j);
      if (!unit) x[j] /= tj[j];
      const double xj = x[j];
      const index_t i0 = lower ? j + 1 : 0, i1 = lower ? n : j;
      for (index_t i = i0; i < i1; ++i) x[i] -= tj[i] * xj;
    }
    return;
  }
  for (index_t k = 0; k < n; ++k) {
    const index_t j = lower ? n - 1 - k : k;
    const double* tj = t.col(j);
    const index_t l0 = lower ? j + 1 : 0, l1 = lower ? n : j;
    double s = x[j];
    for (index_t l = l0; l < l1; ++l) s -= tj[l] * x[l];
    x[j] = unit ? s : s / tj[j];
  }
}

// Diagonal-block width for the blocked triangular solves: big enough that
// the rank-`blk` gemm updates dominate, small enough that the O(blk^2)
// scalar diagonal work stays cache-resident.
constexpr index_t kTrsBlk = 64;

// Solves op(T) X = B over every column of b, blocked: unblocked diagonal
// solves plus packed gemm updates of the remaining rows.
void trsm_left_engine(Uplo uplo, Op op, Diag diag, CView t, View b) {
  const index_t n = t.rows(), ncols = b.cols();
  const bool trans = (op == Op::Trans);
  const bool forward = ((uplo == Uplo::Lower) != trans);
  const index_t nblocks = panels(n, kTrsBlk);
  for (index_t bi = 0; bi < nblocks; ++bi) {
    // Forward elimination consumes leading blocks first, backward trailing.
    const index_t d = forward ? bi * kTrsBlk : (nblocks - 1 - bi) * kTrsBlk;
    const index_t w = std::min(kTrsBlk, n - d);
    View bd = b.block(d, 0, w, ncols);
    {
      CView tdd = t.block(d, d, w, w);
      for (index_t j = 0; j < ncols; ++j) trsv_engine(uplo, op, diag, tdd, bd.col(j));
    }
    if (forward) {
      const index_t rest = n - d - w;
      if (rest > 0) {
        if (!trans) {  // lower: B(d+w:, :) -= T(d+w:, d:d+w) X_d
          gemm_accum(Op::None, Op::None, -1.0, t.block(d + w, d, rest, w), bd,
                     b.block(d + w, 0, rest, ncols));
        } else {  // upper^T: B(d+w:, :) -= T(d:d+w, d+w:)^T X_d
          gemm_accum(Op::Trans, Op::None, -1.0, t.block(d, d + w, w, rest), bd,
                     b.block(d + w, 0, rest, ncols));
        }
      }
    } else if (d > 0) {
      if (!trans) {  // upper: B(0:d, :) -= T(0:d, d:d+w) X_d
        gemm_accum(Op::None, Op::None, -1.0, t.block(0, d, d, w), bd,
                   b.block(0, 0, d, ncols));
      } else {  // lower^T: B(0:d, :) -= T(d:d+w, 0:d)^T X_d
        gemm_accum(Op::Trans, Op::None, -1.0, t.block(d, 0, w, d), bd,
                   b.block(0, 0, d, ncols));
      }
    }
  }
}

// Solves X op(T) = B for every row of b, blocked by column blocks of X: a
// packed gemm folds in the already-solved blocks, then a scalar sweep solves
// within the diagonal block (same update order as the seed kernel).
void trsm_right_engine(Uplo uplo, Op op, Diag diag, CView t, View b) {
  const index_t m = b.rows(), n = t.rows();
  const bool trans = (op == Op::Trans);
  // Column sweep direction of the effective system on columns of B.
  const bool upper_like = ((uplo == Uplo::Lower) == trans);
  const index_t nblocks = panels(n, kTrsBlk);
  for (index_t bi = 0; bi < nblocks; ++bi) {
    const index_t d = upper_like ? bi * kTrsBlk : (nblocks - 1 - bi) * kTrsBlk;
    const index_t w = std::min(kTrsBlk, n - d);
    View bd = b.block(0, d, m, w);
    if (upper_like && d > 0) {
      // B_d -= B(:, 0:d) op(T)(0:d, d:d+w)
      if (!trans) {
        gemm_accum(Op::None, Op::None, -1.0, b.block(0, 0, m, d), t.block(0, d, d, w), bd);
      } else {
        gemm_accum(Op::None, Op::Trans, -1.0, b.block(0, 0, m, d), t.block(d, 0, w, d), bd);
      }
    } else if (!upper_like && n - d - w > 0) {
      const index_t rest = n - d - w;
      // B_d -= B(:, d+w:) op(T)(d+w:, d:d+w)
      if (!trans) {
        gemm_accum(Op::None, Op::None, -1.0, b.block(0, d + w, m, rest),
                   t.block(d + w, d, rest, w), bd);
      } else {
        gemm_accum(Op::None, Op::Trans, -1.0, b.block(0, d + w, m, rest),
                   t.block(d, d + w, w, rest), bd);
      }
    }
    // In-block column sweep (stride-1 in B, like the seed kernel).
    for (index_t jj = 0; jj < w; ++jj) {
      const index_t j = upper_like ? d + jj : d + w - 1 - jj;
      double* bj = b.col(j);
      const index_t l0 = upper_like ? d : j + 1;
      const index_t l1 = upper_like ? j : d + w;
      for (index_t l = l0; l < l1; ++l) {
        const double tv = trans ? t(j, l) : t(l, j);
        if (tv == 0.0) continue;
        const double* bl = b.col(l);
        for (index_t i = 0; i < m; ++i) bj[i] -= tv * bl[i];
      }
      if (diag == Diag::NonUnit) {
        const double inv = 1.0 / t(j, j);
        for (index_t i = 0; i < m; ++i) bj[i] *= inv;
      }
    }
  }
}

}  // namespace

namespace detail {

void gemm_seed(Op ta, Op tb, double alpha, CView a, CView b, double beta, View c) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Op::None) ? a.cols() : a.rows();
  if (beta == 0.0) {
    set_zero(c);
  } else if (beta != 1.0) {
    for (index_t j = 0; j < n; ++j) {
      double* cj = c.col(j);
      for (index_t i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
  if (alpha == 0.0 || k == 0) return;
  accum_direct(ta, tb, alpha, a, b, c);
}

}  // namespace detail

void gemm(Op ta, Op tb, double alpha, CView a, CView b, double beta, View c) {
  const index_t m = (ta == Op::None) ? a.rows() : a.cols();
  const index_t k = (ta == Op::None) ? a.cols() : a.rows();
  const index_t n = (tb == Op::None) ? b.cols() : b.rows();
  assert(((tb == Op::None) ? b.rows() : b.cols()) == k);
  assert(c.rows() == m && c.cols() == n);

  if (beta == 0.0) {
    set_zero(c);
  } else if (beta != 1.0) {
    for (index_t j = 0; j < n; ++j) scal(m, beta, c.col(j));
  }
  if (alpha == 0.0 || k == 0) return;

  gemm_accum(ta, tb, alpha, a, b, c);

  util::FlopCounter::charge(static_cast<std::uint64_t>(2 * m * n * k));
  // Operand footprint: A and B read once, C read and written.
  util::ByteCounter::charge(static_cast<std::uint64_t>(8 * (m * k + k * n + 2 * m * n)));
}

void syrk_lower(double alpha, CView a, double beta, View c) {
  const index_t n = a.rows(), k = a.cols();
  assert(c.rows() == n && c.cols() == n);
  for (index_t j = 0; j < n; ++j) {
    double* cj = c.col(j);
    if (beta == 0.0) {
      for (index_t i = j; i < n; ++i) cj[i] = 0.0;
    } else if (beta != 1.0) {
      for (index_t i = j; i < n; ++i) cj[i] *= beta;
    }
  }
  if (alpha != 0.0 && k > 0) {
    // Column blocks: a scalar triangle on the diagonal block, the rectangle
    // below it through the packed gemm engine.  Blocks write disjoint parts
    // of C, so they parallelize directly.
    constexpr index_t blk = 48;  // multiple of both micro-tile extents
    const index_t nblocks = panels(n, blk);
    const auto do_block = [&](index_t bi) {
      const index_t j0 = bi * blk;
      const index_t w = std::min(blk, n - j0);
      for (index_t l = 0; l < k; ++l) {
        const double* al = a.col(l);
        for (index_t j = j0; j < j0 + w; ++j) {
          const double av = alpha * al[j];
          double* cj = c.col(j);
          for (index_t i = j; i < j0 + w; ++i) cj[i] += al[i] * av;
        }
      }
      const index_t rows = n - j0 - w;
      if (rows > 0) {
        gemm_accum(Op::None, Op::Trans, alpha, a.block(j0 + w, 0, rows, k),
                   a.block(j0, 0, w, k), c.block(j0 + w, j0, rows, w));
      }
    };
    util::ThreadPool& pool = util::ThreadPool::global();
    const double flops = static_cast<double>(n) * static_cast<double>(n + 1) *
                         static_cast<double>(k);
    if (nblocks > 1 && want_parallel(flops)) {
      pool.parallel_for(0, static_cast<std::size_t>(nblocks),
                        [&](std::size_t bi) { do_block(static_cast<index_t>(bi)); });
    } else {
      for (index_t bi = 0; bi < nblocks; ++bi) do_block(bi);
    }
  }
  util::FlopCounter::charge(static_cast<std::uint64_t>(n * (n + 1) * k));
  // A read once; the lower triangle of C read and written.
  util::ByteCounter::charge(static_cast<std::uint64_t>(8 * (n * k + n * (n + 1))));
}

void trsm(Side side, Uplo uplo, Op op, Diag diag, double alpha, CView t, View b) {
  const index_t m = b.rows(), n = b.cols();
  if (alpha != 1.0) {
    for (index_t j = 0; j < n; ++j) scal(m, alpha, b.col(j));
  }
  util::ThreadPool& pool = util::ThreadPool::global();
  if (side == Side::Left) {
    assert(t.rows() == m && t.cols() == m);
    // Columns of B are independent solves: split them into strips.
    const double flops = static_cast<double>(n) * static_cast<double>(m) *
                         static_cast<double>(m);
    const auto np = static_cast<index_t>(pool.size());
    if (n > 1 && np > 1 && want_parallel(flops)) {
      const index_t strips = std::min(n, np);
      pool.parallel_for(0, static_cast<std::size_t>(strips), [&](std::size_t s) {
        const auto si = static_cast<index_t>(s);
        const index_t c0 = n * si / strips, c1 = n * (si + 1) / strips;
        if (c1 > c0) trsm_left_engine(uplo, op, diag, t, b.block(0, c0, m, c1 - c0));
      });
    } else {
      trsm_left_engine(uplo, op, diag, t, b);
    }
    // Same totals the seed kernel charged through one trsv per column.
    util::FlopCounter::charge(static_cast<std::uint64_t>(n) *
                              static_cast<std::uint64_t>(m * m));
    util::ByteCounter::charge(static_cast<std::uint64_t>(n) *
                              static_cast<std::uint64_t>(8 * (m * (m + 1) / 2 + 2 * m)));
    return;
  }
  assert(t.rows() == n && t.cols() == n);
  // Rows of B are independent solves: split them into strips.
  const double flops = static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(n);
  const auto np = static_cast<index_t>(pool.size());
  if (m > 1 && np > 1 && want_parallel(flops)) {
    const index_t strips = std::min(m, np);
    pool.parallel_for(0, static_cast<std::size_t>(strips), [&](std::size_t s) {
      const auto si = static_cast<index_t>(s);
      const index_t r0 = m * si / strips, r1 = m * (si + 1) / strips;
      if (r1 > r0) trsm_right_engine(uplo, op, diag, t, b.block(r0, 0, r1 - r0, n));
    });
  } else {
    trsm_right_engine(uplo, op, diag, t, b);
  }
  // Dense closed form: n(n-1)/2 row updates of length m plus (NonUnit) n
  // scalings, matching the axpy/scal charges of the seed kernel on a dense
  // triangle.  (The seed kernel skipped zero entries of T; the closed form
  // charges them, which keeps counts shape-deterministic.)
  std::uint64_t fl = static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
                     static_cast<std::uint64_t>(n > 0 ? n - 1 : 0);
  std::uint64_t by = static_cast<std::uint64_t>(12 * m) *
                     static_cast<std::uint64_t>(n) *
                     static_cast<std::uint64_t>(n > 0 ? n - 1 : 0);
  if (diag == Diag::NonUnit) {
    fl += static_cast<std::uint64_t>(m * n);
    by += static_cast<std::uint64_t>(16 * m * n);
  }
  util::FlopCounter::charge(fl);
  util::ByteCounter::charge(by);
}

void trsv(Uplo uplo, Op op, Diag diag, CView t, double* x) {
  const index_t n = t.rows();
  assert(t.cols() == n);
  trsv_engine(uplo, op, diag, t, x);
  util::FlopCounter::charge(static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n));
  // Half of T read, x read and written.  (trsm's blocked solves inherit the
  // same totals through their closed-form charges above.)
  util::ByteCounter::charge(static_cast<std::uint64_t>(8 * (n * (n + 1) / 2 + 2 * n)));
}

// ----- packed operands ------------------------------------------------------

PackBuffer::~PackBuffer() { std::free(buf_); }

double* PackBuffer::get(std::size_t doubles) {
  if (doubles > cap_) {
    std::free(buf_);
    // Round up so the byte size is a multiple of the 64-byte alignment
    // (required by aligned_alloc) and regrowth is amortized.
    cap_ = (doubles + 511) & ~std::size_t{511};
    buf_ = static_cast<double*>(std::aligned_alloc(64, cap_ * sizeof(double)));
    if (buf_ == nullptr) throw std::bad_alloc();
  }
  return buf_;
}

index_t PackedLeft::last(index_t p) const noexcept {
  return lower_ ? std::min((p + 1) * MR, depth_) : depth_;
}

void PackedLeft::pack(Op ta, CView a, bool packed, const double* scale) {
  rows_ = (ta == Op::None) ? a.rows() : a.cols();
  depth_ = (ta == Op::None) ? a.cols() : a.rows();
  packed_ = packed;
  lower_ = false;
  op_ = ta;
  if (!packed) {
    // A copy in A's own orientation, so the seed loops run unchanged.
    double* d = buf_.get(static_cast<std::size_t>(rows_ * depth_));
    for (index_t j = 0; j < a.cols(); ++j) {
      for (index_t i = 0; i < a.rows(); ++i) {
        const double s = scale == nullptr ? 1.0 : scale[ta == Op::None ? j : i];
        d[j * a.rows() + i] = a(i, j) * s;
      }
    }
    return;
  }
  const index_t np = panels(rows_, MR);
  offset_.resize(static_cast<std::size_t>(np));
  for (index_t p = 0; p < np; ++p) offset_[static_cast<std::size_t>(p)] = p * MR * depth_;
  double* d = buf_.get(static_cast<std::size_t>(np * MR * depth_));
  pack_a(ta, a, 0, 0, rows_, depth_, d);
  if (scale == nullptr) return;
  for (index_t p = 0; p < np; ++p) {
    for (index_t l = 0; l < depth_; ++l) {
      for (index_t i = 0; i < MR; ++i) d[(p * depth_ + l) * MR + i] *= scale[l];
    }
  }
}

void PackedLeft::pack_lower(CView t, bool packed) {
  assert(t.rows() == t.cols());
  const index_t n = t.rows();
  rows_ = depth_ = n;
  packed_ = packed;
  lower_ = true;
  op_ = Op::None;
  // T(i, k) on and below the diagonal, zero above it and in the padding
  // rows: the strict upper triangle is never read.
  const auto entry = [&](index_t i, index_t k) { return (i < n && k <= i) ? t(i, k) : 0.0; };
  if (!packed) {
    double* d = buf_.get(static_cast<std::size_t>(n * n));
    for (index_t k = 0; k < n; ++k)
      for (index_t i = 0; i < n; ++i) d[k * n + i] = entry(i, k);
    return;
  }
  // Micro-panel p holds depth [0, last(p)) only: the blocks above the
  // diagonal are skipped, not multiplied as zeros.
  const index_t np = panels(n, MR);
  offset_.resize(static_cast<std::size_t>(np));
  index_t total = 0;
  for (index_t p = 0; p < np; ++p) {
    offset_[static_cast<std::size_t>(p)] = total;
    total += MR * last(p);
  }
  double* d = buf_.get(static_cast<std::size_t>(total));
  for (index_t p = 0; p < np; ++p) {
    double* dp = d + offset_[static_cast<std::size_t>(p)];
    for (index_t l = 0; l < last(p); ++l, dp += MR) {
      for (index_t i = 0; i < MR; ++i) dp[i] = entry(p * MR + i, l);
    }
  }
}

namespace {

// C := T X (beta 0) or C += T X (beta 1) for the direct copy of a lower
// triangle: each entry one dot product over columns 0..i, in increasing
// order.
void lower_direct(const double* t, index_t n, CView x, double beta, View c) {
  for (index_t j = 0; j < c.cols(); ++j) {
    const double* xj = x.col(j);
    double* cj = c.col(j);
    for (index_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (index_t k = 0; k <= i; ++k) s += t[k * n + i] * xj[k];
      cj[i] = (beta == 0.0) ? s : cj[i] + s;
    }
  }
}

}  // namespace

void gemm(const PackedLeft& a, CView b, double beta, View c) {
  assert(b.rows() == a.depth_ && c.rows() == a.rows_ && c.cols() == b.cols());
  assert(beta == 0.0 || beta == 1.0);
  const index_t m = a.rows_, n = b.cols(), k = a.depth_;
  if (m == 0 || n == 0) return;
  const double* ad = a.buf_.data();
  if (!a.packed_) {
    if (a.lower_) {
      lower_direct(ad, m, b, beta, c);
      return;
    }
    if (beta == 0.0) set_zero(c);
    const bool none = (a.op_ == Op::None);
    accum_direct(a.op_, Op::None, 1.0, CView(ad, none ? m : k, none ? k : m, none ? m : k), b,
                 c);
    return;
  }
  const UKernel uk = pick_ukernel(KernelConfig::active());
  const index_t np = panels(m, MR);
  for (index_t jr = 0; jr < n; jr += NR) {
    const index_t nr = std::min(NR, n - jr);
    // Full column panels are read in place; a short last one is copied
    // into a zero-padded sliver so the kernel reads no column past B.
    const double* bp = b.col(jr);
    index_t ldb = b.ld();
    if (nr < NR) {
      double* pad = pack_b_buffer().get(static_cast<std::size_t>(k * NR));
      for (index_t j = 0; j < nr; ++j) std::copy_n(b.col(jr + j), k, pad + j * k);
      std::fill(pad + nr * k, pad + NR * k, 0.0);
      bp = pad;
      ldb = k;
    }
    for (index_t p = 0; p < np; ++p) {
      const index_t ir = p * MR;
      run_tile(uk, a.last(p), ad + a.offset_[static_cast<std::size_t>(p)], bp, ldb,
               c.col(jr) + ir, c.ld(), std::min(MR, m - ir), nr, beta != 0.0);
    }
  }
}

namespace {

// Row by row, so the few rows of a small block (m = 1..3) each run one
// long loop.
void dgmm_generic(const double* d, CView x, View y) {
  for (index_t i = 0; i < y.rows(); ++i) {
    const double di = d[i];
    const double* xi = x.data() + i;
    double* yi = y.data() + i;
    for (index_t j = 0; j < y.cols(); ++j) yi[j * y.ld()] += di * xi[j * x.ld()];
  }
}

#if defined(BST_KERNEL_X86)
// Multiply and add stay separate instructions (no FMA), so the result is
// bitwise the generic loop's.
__attribute__((target("avx2"))) void dgmm_avx2(const double* d, CView x, View y) {
  const index_t r = y.rows();
  for (index_t j = 0; j < y.cols(); ++j) {
    const double* xj = x.col(j);
    double* yj = y.col(j);
    index_t i = 0;
    for (; i + 4 <= r; i += 4) {
      const __m256d p = _mm256_mul_pd(_mm256_loadu_pd(d + i), _mm256_loadu_pd(xj + i));
      _mm256_storeu_pd(yj + i, _mm256_add_pd(_mm256_loadu_pd(yj + i), p));
    }
    for (; i < r; ++i) yj[i] += d[i] * xj[i];
  }
}
#endif  // BST_KERNEL_X86

}  // namespace

void dgmm(const double* d, CView x, View y) {
  assert(x.rows() == y.rows() && x.cols() == y.cols());
#if defined(BST_KERNEL_X86)
  static const bool has_simd = cpu_has_avx2_fma();
  if (has_simd && KernelConfig::active().simd && y.rows() >= 4) return dgmm_avx2(d, x, y);
#endif
  dgmm_generic(d, x, y);
}

}  // namespace bst::la
