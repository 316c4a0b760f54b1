#include "toeplitz/matvec.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "la/blas.h"
#include "util/trace.h"

namespace bst::toeplitz {
namespace {
const util::PhaseId kMatVecPhase = util::Tracer::phase("toeplitz_matvec");

void check_length(const char* what, std::size_t len, la::index_t order) {
  if (static_cast<la::index_t>(len) != order) {
    throw std::invalid_argument(std::string("MatVec: ") + what + " has length " +
                                std::to_string(len) + ", the order is " +
                                std::to_string(order));
  }
}

void check_views(const char* what, la::index_t rows, la::index_t cols, la::index_t order,
                 la::index_t want_cols) {
  if (rows != order || cols != want_cols) {
    throw std::invalid_argument(std::string("MatVec: ") + what + " is " + std::to_string(rows) +
                                " x " + std::to_string(cols) + ", expected " +
                                std::to_string(order) + " x " + std::to_string(want_cols));
  }
}
// Block row I (0-based) of T holds T_{J-I+1} for J >= I and T_{I-J+1}^T
// for J < I, so row a of it sums |T_k(a, :)| over k = 1 .. p - I plus
// |T_k(:, a)| over k = 2 .. I + 1.  One pass over the blocks and prefix
// sums over k make each of the n row sums O(1): O(p m^2) in all.
double toeplitz_norm_inf(const BlockToeplitz& t) {
  const la::index_t m = t.block_size(), p = t.num_blocks();
  // up[k m + a]: row a of T_1 .. T_k;  lo[k m + a]: column a of T_2 .. T_k.
  std::vector<double> up(static_cast<std::size_t>((p + 1) * m), 0.0);
  std::vector<double> lo(up.size(), 0.0);
  for (la::index_t k = 1; k <= p; ++k) {
    const la::CView blk = t.block(k);
    double* upk = up.data() + k * m;
    double* lok = lo.data() + k * m;
    for (la::index_t c = 0; c < m; ++c) {
      double col = 0.0;
      for (la::index_t a = 0; a < m; ++a) {
        const double v = std::fabs(blk(a, c));
        upk[a] += v;
        col += v;
      }
      if (k >= 2) lok[c] = col;
    }
  }
  const auto stride = static_cast<std::size_t>(m);
  for (std::size_t i = stride; i < up.size(); ++i) {
    up[i] += up[i - stride];
    lo[i] += lo[i - stride];
  }
  double best = 0.0;
  for (la::index_t i = 0; i < p; ++i) {
    for (la::index_t a = 0; a < m; ++a) {
      const double s = up[static_cast<std::size_t>((p - i) * m + a)] +
                       lo[static_cast<std::size_t>((i + 1) * m + a)];
      if (!(s <= best)) best = s;  // NaN propagates
    }
  }
  return best;
}
}  // namespace

MatVec::MatVec(const BlockToeplitz& t, MatVecMode mode)
    : t_(t), mode_(mode), norm_inf_(toeplitz_norm_inf(t)) {
  if (mode_ == MatVecMode::Fft) {
    fftmul_ = std::make_shared<const BlockCirculantMultiplier>(t_);
  }
}

void MatVec::apply(const std::vector<double>& x, std::vector<double>& y) const {
  check_length("x", x.size(), t_.order());
  util::TraceSpan span(kMatVecPhase);
  y.resize(static_cast<std::size_t>(t_.order()));
  if (mode_ == MatVecMode::Fft) {
    fftmul_->apply(x, y);
  } else {
    apply_direct(x.data(), y.data());
  }
}

void MatVec::apply(la::CView x, la::View y) const {
  check_views("x", x.rows(), x.cols(), t_.order(), x.cols());
  check_views("y", y.rows(), y.cols(), t_.order(), x.cols());
  util::TraceSpan span(kMatVecPhase);
  if (mode_ == MatVecMode::Fft) {
    fftmul_->apply(x, y);
    return;
  }
  for (la::index_t j = 0; j < x.cols(); ++j) {
    apply_direct(x.data() + j * x.ld(), y.data() + j * y.ld());
  }
}

// Block (i, j) of T is T_{j-i+1} above the diagonal and T_{i-j+1}^T below
// it, so with x and y viewed as m x p matrices (one block per column) every
// block diagonal d is two gemms over p - d columns: 2p - 1 calls in all,
// 2n^2 flops as the blockwise product.
void MatVec::apply_direct(const double* x, double* y) const {
  const la::index_t m = t_.block_size();
  const la::index_t p = t_.num_blocks();
  const la::CView xs(x, m, p, m);
  const la::View ys(y, m, p, m);
  la::gemm(la::Op::None, la::Op::None, 1.0, t_.block(1), xs, 0.0, ys);
  for (la::index_t d = 1; d < p; ++d) {
    const la::CView td = t_.block(d + 1);
    la::gemm(la::Op::None, la::Op::None, 1.0, td, xs.block(0, d, m, p - d), 1.0,
             ys.block(0, 0, m, p - d));
    la::gemm(la::Op::Trans, la::Op::None, 1.0, td, xs.block(0, 0, m, p - d), 1.0,
             ys.block(0, d, m, p - d));
  }
}

void MatVec::residual(const std::vector<double>& b, const std::vector<double>& x,
                      std::vector<double>& r) const {
  check_length("b", b.size(), t_.order());
  apply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
}

double MatVec::backward_error(const std::vector<double>& b, const std::vector<double>& x,
                              const std::vector<double>& r) const {
  check_length("b", b.size(), t_.order());
  check_length("x", x.size(), t_.order());
  check_length("r", r.size(), t_.order());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double nr = 0.0, nx = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (!std::isfinite(r[i]) || !std::isfinite(x[i])) return kInf;
    nr = std::max(nr, std::fabs(r[i]));
    nx = std::max(nx, std::fabs(x[i]));
    nb = std::max(nb, std::fabs(b[i]));
  }
  const double denom = norm_inf_ * nx + nb;
  if (!std::isfinite(denom)) return kInf;
  if (denom > 0.0) return nr / denom;
  return nr == 0.0 ? 0.0 : kInf;
}

void MatVec::residual(la::CView b, la::CView x, la::View r) const {
  check_views("b", b.rows(), b.cols(), t_.order(), x.cols());
  apply(x, r);
  for (la::index_t j = 0; j < b.cols(); ++j) {
    const double* bj = b.data() + j * b.ld();
    double* rj = r.data() + j * r.ld();
    for (la::index_t i = 0; i < t_.order(); ++i) rj[i] = bj[i] - rj[i];
  }
}

}  // namespace bst::toeplitz
