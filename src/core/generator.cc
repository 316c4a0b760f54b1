#include "core/generator.h"

#include <cmath>
#include <utility>

#include "core/indefinite.h"
#include "core/schur.h"
#include "la/blas.h"
#include "la/cholesky.h"
#include "la/ldlt.h"
#include "la/norms.h"

namespace bst::core {
namespace {

// Shared tail: given L and S with That_1 = L S L^T, forms
// A = [S L^{-1} That_1, S L^{-1} That_2, ...] (note (L S)^{-1} = S L^{-1})
// and B = A with its first block zeroed and first block of A = (S L^T)^T
// ... i.e. A_1 = (L S)^{-1} That_1 = L^T exactly; we overwrite it with the
// analytic value to keep it exactly triangular.
Generator finish(const BlockToeplitz& t, const Mat& l, const Signature& s) {
  Generator g;
  g.m = t.block_size();
  g.p = t.num_blocks();
  const index_t m = g.m, p = g.p;

  g.a = Mat(m, m * p);
  la::copy(t.first_row(), g.a.view());
  // A := L^{-1} * A  (forward solves on every column), then A := S * A.
  la::trsm(la::Side::Left, la::Uplo::Lower, la::Op::None, la::Diag::NonUnit, 1.0, l.view(),
           g.a.view());
  for (index_t i = 0; i < m; ++i) {
    if (s[static_cast<std::size_t>(i)] < 0.0) {
      for (index_t j = 0; j < m * p; ++j) g.a(i, j) = -g.a(i, j);
    }
  }
  // T_1 = L^T exactly (paper: "it is easy to see that T_1 = L_1^T"); write
  // the analytic value so the pivot block is exactly upper triangular.
  for (index_t j = 0; j < m; ++j)
    for (index_t i = 0; i < m; ++i) g.a(i, j) = (i <= j) ? l(j, i) : 0.0;

  g.b = Mat(m, m * p);
  la::copy(g.a.view(), g.b.view());
  la::set_zero(g.b_block(0));

  g.sig.assign(static_cast<std::size_t>(2 * m), 1.0);
  for (index_t i = 0; i < m; ++i) {
    g.sig[static_cast<std::size_t>(i)] = s[static_cast<std::size_t>(i)];
    g.sig[static_cast<std::size_t>(m + i)] = -s[static_cast<std::size_t>(i)];
  }
  const double na = la::frobenius(g.a.view());
  const double nb = la::frobenius(g.b.view());
  g.norm_g1 = std::sqrt(na * na + nb * nb);
  return g;
}

// A breakdown inside T1 is the recursion's step 0.  Its column and pivot
// come from T1's unpivoted LDL^T: the first pivot that is not positive
// (SPD) or that vanishes (indefinite).  Error path only.
std::pair<index_t, double> first_failing_pivot(const BlockToeplitz& t, bool spd) {
  const index_t m = t.block_size();
  Mat work(m, m);
  la::copy(t.block(1), work.view());
  std::vector<double> d;
  (void)la::ldlt_unpivoted(work.view(), d);  // d is zero past a vanishing pivot
  for (index_t j = 0; j < m; ++j) {
    const double dj = d[static_cast<std::size_t>(j)];
    if (spd ? !(dj > 0.0) : dj == 0.0) return {j, dj};
  }
  return {m - 1, d.back()};
}

}  // namespace

Generator make_generator_spd(const BlockToeplitz& t) {
  const index_t m = t.block_size();
  Mat t1(m, m);
  la::copy(t.block(1), t1.view());
  if (!la::cholesky_lower(t1.view())) {
    const auto [column, pivot] = first_failing_pivot(t, true);
    throw NotPositiveDefinite(0, column, pivot);
  }
  for (index_t j = 0; j < m; ++j)
    for (index_t i = 0; i < j; ++i) t1(i, j) = 0.0;
  return finish(t, t1, Signature(static_cast<std::size_t>(m), 1.0));
}

Generator make_generator_indefinite(const BlockToeplitz& t) {
  const index_t m = t.block_size();
  Mat work(m, m);
  la::copy(t.block(1), work.view());
  Mat l;
  Signature s;
  if (!la::ldl_signature(work.view(), l, s)) {
    const auto [column, pivot] = first_failing_pivot(t, false);
    throw SingularMinor(0, column, pivot);
  }
  return finish(t, l, s);
}

Mat generator_displacement(const Generator& g) {
  const index_t n = g.m * g.p;
  Mat d(n, n);
  // Gen^T diag(sig) Gen with Gen = [A; B] (2m x n).
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (index_t r = 0; r < g.m; ++r) {
        s += g.sig[static_cast<std::size_t>(r)] * g.a(r, i) * g.a(r, j);
        s += g.sig[static_cast<std::size_t>(g.m + r)] * g.b(r, i) * g.b(r, j);
      }
      d(i, j) = s;
    }
  }
  return d;
}

Mat generator_reconstruct(const Generator& g) {
  const index_t m = g.m, p = g.p, n = m * p;
  // Stack the block upper-triangular Toeplitz matrices G1 (from A) and G2
  // (from B) of eq. 5 and form G1^T Sp G1 - G2^T Sp G2 with Sp = I_p (x) S.
  Mat g1(n, n), g2(n, n);
  for (index_t bi = 0; bi < p; ++bi) {
    for (index_t bj = bi; bj < p; ++bj) {
      const index_t k = bj - bi;  // block T_{k+1}
      for (index_t c = 0; c < m; ++c) {
        for (index_t r = 0; r < m; ++r) {
          g1(bi * m + r, bj * m + c) = g.a(r, k * m + c);
          g2(bi * m + r, bj * m + c) = g.b(r, k * m + c);
        }
      }
    }
  }
  Mat t(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (index_t r = 0; r < n; ++r) {
        const double sr = g.sig[static_cast<std::size_t>(r % m)];
        s += sr * (g1(r, i) * g1(r, j) - g2(r, i) * g2(r, j));
      }
      t(i, j) = s;
    }
  }
  return t;
}

}  // namespace bst::core
