// Tests for the block hyperbolic Householder representations
// (paper sections 4-6): all four aggregation schemes must agree with each
// other, with the sequential application, and with the dense composite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/block_reflector.h"
#include "core/flop_model.h"
#include "la/kernel_config.h"
#include "la/norms.h"
#include "la/triangular.h"
#include "util/flops.h"
#include "util/rng.h"
#include "util/trace.h"

namespace bst::core {
namespace {

Signature spd_sig(index_t m) {
  Signature w(static_cast<std::size_t>(2 * m), 1.0);
  for (index_t i = 0; i < m; ++i) w[static_cast<std::size_t>(m + i)] = -1.0;
  return w;
}

// A pivot pair with strongly dominant diagonal so every hyperbolic norm in
// the elimination stays positive.
void random_pivot_pair(index_t m, util::Rng& rng, Mat& p, Mat& q) {
  p = Mat(m, m);
  q = Mat(m, m);
  for (index_t j = 0; j < m; ++j) {
    for (index_t i = 0; i <= j; ++i) p(i, j) = rng.uniform(-0.5, 0.5);
    p(j, j) = rng.uniform(4.0, 6.0);
    for (index_t i = 0; i < m; ++i) q(i, j) = rng.uniform(-0.5, 0.5);
  }
}

Mat random_generator(index_t m, index_t cols, util::Rng& rng) {
  Mat g(m, cols);
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < m; ++i) g(i, j) = rng.uniform(-1, 1);
  return g;
}

const Representation kAll[] = {Representation::AccumulatedU, Representation::VY1,
                               Representation::VY2, Representation::YTY,
                               Representation::Sequential};

// Mixed signs in both halves (an indefinite leading block): upper
// (+, -, +, ...), lower its negation.
Signature general_sig(index_t m) {
  Signature w(static_cast<std::size_t>(2 * m));
  for (index_t i = 0; i < m; ++i) {
    w[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 1.0 : -1.0;
    w[static_cast<std::size_t>(m + i)] = -w[static_cast<std::size_t>(i)];
  }
  return w;
}

// Columns per chunk of BlockReflector::apply (block_reflector.cc), so the
// tests can place widths on both sides of every chunk boundary.
index_t chunk_width(index_t m) {
  const la::KernelConfig& cfg = la::KernelConfig::active();
  const index_t nr = la::kMicroCols;
  return std::max(nr, cfg.kc * (la::kMicroRows + nr) / (4 * m) / nr * nr);
}

// An m x cols view at an offset inside a NaN-filled parent with ld > m, so
// a read outside the view poisons the result and a write outside it shows.
struct Fenced {
  Mat parent;
  View v;
  Fenced(const Mat& src, index_t i0, index_t j0)
      : parent(src.rows() + i0 + 2, src.cols() + j0 + 3) {
    for (index_t j = 0; j < parent.cols(); ++j)
      for (index_t i = 0; i < parent.rows(); ++i)
        parent(i, j) = std::numeric_limits<double>::quiet_NaN();
    v = parent.block(i0, j0, src.rows(), src.cols());
    la::copy(src.view(), v);
  }
  // True when every entry outside the view is still NaN.
  [[nodiscard]] bool fence_intact() const {
    const double* base = v.data();
    for (index_t j = 0; j < parent.cols(); ++j)
      for (index_t i = 0; i < parent.rows(); ++i) {
        const double* e = &parent(i, j);
        const std::ptrdiff_t off = e - base;
        const index_t vj = off >= 0 ? off / v.ld() : -1, vi = off >= 0 ? off % v.ld() : -1;
        const bool inside = off >= 0 && vj < v.cols() && vi < v.rows();
        if (!inside && !std::isnan(*e)) return false;
      }
    return true;
  }
};

// Applies `bref` to fenced copies of (a0, b0) and checks them against the
// plain copies (ar, br) that `ref` transformed: agreement, intact fences,
// and a flop delta equal to the closed form for r reflectors.
void expect_apply_matches(const BlockReflector& bref, const BlockReflector& ref, const Mat& a0,
                          const Mat& b0, index_t r, const std::string& what) {
  const index_t m = a0.rows(), cols = a0.cols();
  Mat ar = a0, br = b0;
  ref.apply(ar.view(), br.view());
  Fenced a(a0, 1, 2), b(b0, 3, 1);
  const std::uint64_t f0 = util::FlopCounter::now();
  bref.apply(a.v, b.v);
  const std::uint64_t flops = util::FlopCounter::now() - f0;
  EXPECT_EQ(flops, static_cast<std::uint64_t>(
                       application_flops_per_column(bref.representation(), m, r)) *
                       static_cast<std::uint64_t>(cols))
      << what;
  EXPECT_LT(la::max_diff(a.v, ar.view()), 1e-10) << what;
  EXPECT_LT(la::max_diff(b.v, br.view()), 1e-10) << what;
  EXPECT_TRUE(a.fence_intact()) << what;
  EXPECT_TRUE(b.fence_intact()) << what;
}

class RepSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

// Every representation must transform the pivot pair identically and must
// equal the explicit product of the scalar reflectors, at widths on both
// sides of every chunk boundary, for whole steps and for panels whose
// pivots start below row 0, under the SPD and a general signature.
TEST_P(RepSweep, AllFormsAgreeOnPivotAndTrailing) {
  const auto [repi, mi] = GetParam();
  const Representation rep = kAll[repi];
  const index_t m = mi;
  const index_t w = chunk_width(m);
  std::vector<index_t> widths = {1, 2 * m + 1};
  for (index_t c = 1; c <= 3; ++c) {
    for (index_t d : {c * w - 1, c * w, c * w + 1}) widths.push_back(d);
  }
  for (const Signature& sig : {spd_sig(m), general_sig(m)}) {
    const std::string tag = std::string(to_string(rep)) + " m=" + std::to_string(m) +
                            (sig == spd_sig(m) ? " spd" : " general");
    util::Rng rng(static_cast<std::uint64_t>(1000 + m));
    Mat p0, q0;
    random_pivot_pair(m, rng, p0, q0);

    // Reference: Sequential representation.
    Mat pr = p0, qr = q0;
    BlockReflector ref(Representation::Sequential, m, sig);
    ASSERT_FALSE(ref.build(pr.view(), qr.view()).has_value()) << tag;
    Mat pt = p0, qt = q0;
    BlockReflector bref(rep, m, sig);
    ASSERT_FALSE(bref.build(pt.view(), qt.view()).has_value()) << tag;
    EXPECT_LT(la::max_diff(pt.view(), pr.view()), 1e-11) << tag;
    EXPECT_LT(la::max_diff(qt.view(), qr.view()), 1e-11) << tag;
    // Two-level build: panel applies to the pivot pair, panels with p0 > 0.
    if (m >= 2) {
      Mat p2 = p0, q2 = q0;
      BlockReflector two(rep, m, sig);
      ASSERT_FALSE(two.build(p2.view(), q2.view(), 0.0, std::max<index_t>(1, m / 3)).has_value());
      EXPECT_LT(la::max_diff(p2.view(), pr.view()), 1e-11) << tag << " inner_block";
      EXPECT_LT(la::max_diff(q2.view(), qr.view()), 1e-11) << tag << " inner_block";
    }

    for (index_t cols : widths) {
      const Mat a0 = random_generator(m, cols, rng), b0 = random_generator(m, cols, rng);
      expect_apply_matches(bref, ref, a0, b0, m, tag + " cols=" + std::to_string(cols));
    }
    // A panel: the reflectors of pivots [k0, k1), k0 > 0, aggregated alone.
    if (m >= 2) {
      const index_t k0 = std::max<index_t>(1, m / 3);
      const index_t k1 = std::min(m, k0 + std::max<index_t>(1, m / 2));
      const std::vector<Reflector> sub(bref.reflectors().begin() + k0,
                                       bref.reflectors().begin() + k1);
      const BlockReflector panel = BlockReflector::from_reflectors(rep, m, sig, sub);
      const BlockReflector panel_ref =
          BlockReflector::from_reflectors(Representation::Sequential, m, sig, sub);
      for (index_t cols : {index_t{1}, w + 1, 2 * w + 5}) {
        const Mat a0 = random_generator(m, cols, rng), b0 = random_generator(m, cols, rng);
        expect_apply_matches(panel, panel_ref, a0, b0, k1 - k0,
                             tag + " panel [" + std::to_string(k0) + "," + std::to_string(k1) +
                                 ") cols=" + std::to_string(cols));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FormsAndSizes, RepSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                                            ::testing::Values(1, 2, 3, 4, 5, 8, 16, 17, 32)));

// A column's bits never depend on how many columns come with it: one call
// over 3 chunks + 5 columns equals the same reflector applied in pieces of
// 1, 7, 12 (a multiple of the micro-kernel width) and the rest, bit for
// bit -- under the default blocking, under one that makes every chunk a
// single micro-panel, and with every multi-chunk call spread over the pool
// (the single-chunk pieces stay serial).
TEST(BlockReflector, ColumnResultsIndependentOfWidth) {
  la::KernelConfig tiny = la::KernelConfig::active();
  tiny.kc = 4;
  la::KernelConfig pooled = la::KernelConfig::active();
  pooled.parallel_min_flops = 1;
  for (const la::KernelConfig& cfg : {la::KernelConfig::active(), tiny, pooled}) {
    const la::KernelConfig saved = la::KernelConfig::active();
    la::KernelConfig::set_active(cfg);
    for (Representation rep : {Representation::AccumulatedU, Representation::VY1,
                               Representation::VY2, Representation::YTY}) {
      for (index_t m : {1, 2, 4, 5, 8, 16, 17, 32}) {
        const std::string tag = std::string(to_string(rep)) + " m=" + std::to_string(m) +
                                " kc=" + std::to_string(cfg.kc) +
                                " par_min=" + std::to_string(cfg.parallel_min_flops);
        util::Rng rng(static_cast<std::uint64_t>(77 + m));
        Mat p, q;
        random_pivot_pair(m, rng, p, q);
        BlockReflector bref(rep, m, spd_sig(m));
        ASSERT_FALSE(bref.build(p.view(), q.view()).has_value()) << tag;
        const index_t cols = 3 * chunk_width(m) + 5;
        const Mat a0 = random_generator(m, cols, rng), b0 = random_generator(m, cols, rng);
        Mat a1 = a0, b1 = b0;
        bref.apply(a1.view(), b1.view());
        Mat a2 = a0, b2 = b0;
        index_t j0 = 0;
        for (index_t piece : {index_t{1}, index_t{7}, index_t{12}, cols - 20}) {
          bref.apply(a2.block(0, j0, m, piece), b2.block(0, j0, m, piece));
          j0 += piece;
        }
        const auto bytes = static_cast<std::size_t>(m * cols) * sizeof(double);
        EXPECT_EQ(std::memcmp(a1.data(), a2.data(), bytes), 0) << tag;
        EXPECT_EQ(std::memcmp(b1.data(), b2.data(), bytes), 0) << tag;
      }
    }
    la::KernelConfig::set_active(saved);
  }
}

TEST(BlockReflector, PivotBecomesTriangularAndQZero) {
  util::Rng rng(7);
  const index_t m = 4;
  Mat p, q;
  random_pivot_pair(m, rng, p, q);
  BlockReflector bref(Representation::VY2, m, spd_sig(m));
  ASSERT_FALSE(bref.build(p.view(), q.view()).has_value());
  EXPECT_TRUE(la::is_upper_triangular(p.view(), 0.0));
  EXPECT_DOUBLE_EQ(la::max_abs(q.view()), 0.0);
  // Diagonal entries are -sigma_k, nonzero.
  for (index_t k = 0; k < m; ++k) EXPECT_GT(std::fabs(p(k, k)), 0.1);
}

TEST(BlockReflector, DenseCompositeIsWUnitary) {
  util::Rng rng(8);
  const index_t m = 3;
  Mat p, q;
  random_pivot_pair(m, rng, p, q);
  Signature w = spd_sig(m);
  BlockReflector bref(Representation::YTY, m, w);
  ASSERT_FALSE(bref.build(p.view(), q.view()).has_value());
  Mat u = bref.dense_u();
  EXPECT_LT(w_unitarity_error(u.view(), w), 1e-10);
}

TEST(BlockReflector, DenseCompositeMatchesAccumulatedU) {
  util::Rng rng(9);
  const index_t m = 4;
  Mat p, q;
  random_pivot_pair(m, rng, p, q);
  // AccumulatedU applied to the identity must reproduce dense_u().
  BlockReflector bref(Representation::AccumulatedU, m, spd_sig(m));
  ASSERT_FALSE(bref.build(p.view(), q.view()).has_value());
  Mat u = bref.dense_u();
  Mat eye_a(m, 2 * m), eye_b(m, 2 * m);
  for (index_t i = 0; i < m; ++i) {
    eye_a(i, i) = 1.0;
    eye_b(i, m + i) = 1.0;
  }
  bref.apply(eye_a.view(), eye_b.view());
  // Columns of [eye_a; eye_b] are now the columns of U.
  for (index_t j = 0; j < 2 * m; ++j)
    for (index_t i = 0; i < m; ++i) {
      EXPECT_NEAR(eye_a(i, j), u(i, j), 1e-11);
      EXPECT_NEAR(eye_b(i, j), u(m + i, j), 1e-11);
    }
}

TEST(BlockReflector, BreakdownReportedAtRightColumn) {
  const index_t m = 2;
  // Column 1's hyperbolic norm is exactly zero: p11 = q11 after the first
  // reflector does nothing to them (q column 0 is zero => U_1 = W on it...
  // construct directly: q(:,0) = 0 so step 0 succeeds trivially.
  Mat p{{2.0, 0.0}, {0.0, 1.0}};
  Mat q{{0.0, 0.0}, {0.0, 1.0}};
  BlockReflector bref(Representation::VY2, m, spd_sig(m));
  auto bd = bref.build(p.view(), q.view(), 1e-12);
  ASSERT_TRUE(bd.has_value());
  EXPECT_EQ(bd->column, 1);
  EXPECT_NEAR(bd->hnorm, 0.0, 1e-12);
}

TEST(BlockReflector, SplitQuadrantApplicationMatchesStacked) {
  // The A and B views handed to apply() live at different offsets of a
  // larger array (the in-place virtual shift); results must be identical
  // to the contiguous case.
  util::Rng rng(10);
  const index_t m = 3, cols = 6;
  Mat p, q;
  random_pivot_pair(m, rng, p, q);
  Mat big(2 * m, 12 * m);
  for (index_t j = 0; j < big.cols(); ++j)
    for (index_t i = 0; i < big.rows(); ++i) big(i, j) = rng.uniform(-1, 1);
  View a = big.block(0, 0, m, cols);
  View b = big.block(m, 5 * m, m, cols);
  Mat ac(m, cols), bc(m, cols);
  la::copy(a, ac.view());
  la::copy(b, bc.view());

  Mat p1(m, m), q1(m, m);
  la::copy(p.view(), p1.view());
  la::copy(q.view(), q1.view());
  BlockReflector bref(Representation::VY1, m, spd_sig(m));
  ASSERT_FALSE(bref.build(p1.view(), q1.view()).has_value());
  bref.apply(a, b);
  bref.apply(ac.view(), bc.view());
  EXPECT_LT(la::max_diff(a, ac.view()), 0.0 + 1e-15);
  EXPECT_LT(la::max_diff(b, bc.view()), 0.0 + 1e-15);
}

TEST(BlockReflector, GeneralSignatureFormsAgree) {
  // Signature with mixed signs in the upper half (indefinite leading block).
  util::Rng rng(11);
  const index_t m = 3;
  Signature w{1.0, -1.0, 1.0, -1.0, 1.0, -1.0};
  // Build a pivot pair consistent with the signature: huge diagonal keeps
  // each column's hyperbolic norm sign equal to sig[k].
  Mat p(m, m), q(m, m);
  for (index_t j = 0; j < m; ++j) {
    for (index_t i = 0; i <= j; ++i) p(i, j) = rng.uniform(-0.3, 0.3);
    p(j, j) = rng.uniform(5.0, 6.0);
    for (index_t i = 0; i < m; ++i) q(i, j) = rng.uniform(-0.3, 0.3);
  }
  const index_t cols = 2 * m;
  Mat a0 = random_generator(m, cols, rng), b0 = random_generator(m, cols, rng);

  Mat pr(m, m), qr(m, m), ar(m, cols), br(m, cols);
  la::copy(p.view(), pr.view());
  la::copy(q.view(), qr.view());
  la::copy(a0.view(), ar.view());
  la::copy(b0.view(), br.view());
  BlockReflector ref(Representation::Sequential, m, w);
  ASSERT_FALSE(ref.build(pr.view(), qr.view()).has_value());
  ref.apply(ar.view(), br.view());

  for (Representation rep : {Representation::AccumulatedU, Representation::VY1,
                             Representation::VY2, Representation::YTY}) {
    Mat pt(m, m), qt(m, m), at(m, cols), bt(m, cols);
    la::copy(p.view(), pt.view());
    la::copy(q.view(), qt.view());
    la::copy(a0.view(), at.view());
    la::copy(b0.view(), bt.view());
    BlockReflector bref(rep, m, w);
    ASSERT_FALSE(bref.build(pt.view(), qt.view()).has_value()) << to_string(rep);
    bref.apply(at.view(), bt.view());
    EXPECT_LT(la::max_diff(pt.view(), pr.view()), 1e-11) << to_string(rep);
    EXPECT_LT(la::max_diff(at.view(), ar.view()), 1e-10) << to_string(rep);
    EXPECT_LT(la::max_diff(bt.view(), br.view()), 1e-10) << to_string(rep);
  }
}

TEST(BlockReflector, ToStringNames) {
  EXPECT_STREQ(to_string(Representation::AccumulatedU), "U");
  EXPECT_STREQ(to_string(Representation::VY1), "VY1");
  EXPECT_STREQ(to_string(Representation::VY2), "VY2");
  EXPECT_STREQ(to_string(Representation::YTY), "YTY");
  EXPECT_STREQ(to_string(Representation::Sequential), "seq");
}

}  // namespace
}  // namespace bst::core
