#include "toeplitz/generators.h"

#include <cmath>

#include "la/blas.h"
#include "la/norms.h"
#include "toeplitz/matvec.h"
#include "util/rng.h"

namespace bst::toeplitz {

BlockToeplitz kms(la::index_t n, double rho) {
  std::vector<double> row(static_cast<std::size_t>(n));
  double v = 1.0;
  for (la::index_t k = 0; k < n; ++k) {
    row[static_cast<std::size_t>(k)] = v;
    v *= rho;
  }
  return BlockToeplitz::scalar(row);
}

BlockToeplitz prolate(la::index_t n, double w) {
  std::vector<double> row(static_cast<std::size_t>(n));
  row[0] = 2.0 * w;
  for (la::index_t k = 1; k < n; ++k) {
    row[static_cast<std::size_t>(k)] =
        std::sin(2.0 * M_PI * w * static_cast<double>(k)) / (M_PI * static_cast<double>(k));
  }
  return BlockToeplitz::scalar(row);
}

BlockToeplitz random_spd_block(la::index_t m, la::index_t p, la::index_t q,
                               std::uint64_t seed, double ridge) {
  util::Rng rng(seed);
  // MA(q) coefficients C_0 .. C_q (m x m each).
  std::vector<la::Mat> c;
  c.reserve(static_cast<std::size_t>(q + 1));
  for (la::index_t j = 0; j <= q; ++j) {
    la::Mat cj(m, m);
    for (la::index_t b = 0; b < m; ++b)
      for (la::index_t a = 0; a < m; ++a) cj(a, b) = rng.normal() / std::sqrt(double(q + 1));
    c.push_back(std::move(cj));
  }
  // T_k = sum_j C_j C_{j+k-1}^T for k = 1..p  (zero when j+k-1 > q).
  la::Mat row(m, m * p);
  for (la::index_t k = 1; k <= p; ++k) {
    la::View tk = row.block(0, (k - 1) * m, m, m);
    for (la::index_t j = 0; j + (k - 1) <= q; ++j) {
      la::gemm(la::Op::None, la::Op::Trans, 1.0, c[static_cast<std::size_t>(j)].view(),
               c[static_cast<std::size_t>(j + k - 1)].view(), 1.0, tk);
    }
  }
  // Symmetrize T1 exactly (it is symmetric in exact arithmetic) + ridge.
  for (la::index_t i = 0; i < m; ++i) {
    for (la::index_t j = 0; j < i; ++j) {
      const double s = 0.5 * (row(i, j) + row(j, i));
      row(i, j) = row(j, i) = s;
    }
    row(i, i) += ridge;
  }
  return BlockToeplitz(m, std::move(row));
}

BlockToeplitz random_indefinite(la::index_t n, std::uint64_t seed, double diag) {
  util::Rng rng(seed);
  std::vector<double> row(static_cast<std::size_t>(n));
  row[0] = diag;
  for (la::index_t k = 1; k < n; ++k) row[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0);
  return BlockToeplitz::scalar(row);
}

BlockToeplitz paper_example_6x6() {
  return BlockToeplitz::scalar({1.0000, 1.0000, 0.5297, 0.6711, 0.0077, 0.3834});
}

BlockToeplitz singular_minor_family(la::index_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> row(static_cast<std::size_t>(n));
  row[0] = 1.0;
  row[1] = 1.0;  // leading minor [[1 1],[1 1]] is exactly singular
  for (la::index_t k = 2; k < n; ++k) row[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0);
  return BlockToeplitz::scalar(row);
}

BlockToeplitz fgn(la::index_t n, double hurst) {
  std::vector<double> row(static_cast<std::size_t>(n));
  const double h2 = 2.0 * hurst;
  auto pw = [h2](double x) { return std::pow(std::fabs(x), h2); };
  for (la::index_t k = 0; k < n; ++k) {
    const double kk = static_cast<double>(k);
    row[static_cast<std::size_t>(k)] = 0.5 * (pw(kk + 1.0) - 2.0 * pw(kk) + pw(kk - 1.0));
  }
  return BlockToeplitz::scalar(row);
}

BlockToeplitz ar1_block(la::index_t m, la::index_t p, std::uint64_t seed, double phi_scale) {
  util::Rng rng(seed);
  // Random Phi with spectral radius <= ~phi_scale (row-sum scaling bound).
  la::Mat phi(m, m);
  double max_row = 0.0;
  for (la::index_t i = 0; i < m; ++i) {
    double s = 0.0;
    for (la::index_t j = 0; j < m; ++j) {
      phi(i, j) = rng.uniform(-1.0, 1.0);
      s += std::fabs(phi(i, j));
    }
    max_row = std::max(max_row, s);
  }
  for (la::index_t j = 0; j < m; ++j)
    for (la::index_t i = 0; i < m; ++i) phi(i, j) *= phi_scale / max_row;

  // Stationary covariance: C0 = Phi C0 Phi^T + I, by fixed-point iteration
  // (converges geometrically since rho(Phi) < 1).
  la::Mat c0 = la::identity(m);
  la::Mat tmp(m, m), next(m, m);
  for (int it = 0; it < 200; ++it) {
    la::gemm(la::Op::None, la::Op::None, 1.0, phi.view(), c0.view(), 0.0, tmp.view());
    la::gemm(la::Op::None, la::Op::Trans, 1.0, tmp.view(), phi.view(), 0.0, next.view());
    for (la::index_t i = 0; i < m; ++i) next(i, i) += 1.0;
    if (la::max_diff(next.view(), c0.view()) < 1e-15) break;
    la::copy(next.view(), c0.view());
  }
  // Exact symmetry.
  for (la::index_t i = 0; i < m; ++i)
    for (la::index_t j = 0; j < i; ++j) {
      const double s = 0.5 * (c0(i, j) + c0(j, i));
      c0(i, j) = c0(j, i) = s;
    }
  // C_k = Phi^k C_0: with T(l, j) = C_{j-l} and C_d = E[y_t y_{t-d}^T],
  // block (1, k+1) of the first block row is C_k.
  la::Mat row(m, m * p);
  la::copy(c0.view(), row.block(0, 0, m, m));
  la::Mat ck(m, m);
  la::copy(c0.view(), ck.view());
  for (la::index_t k = 1; k < p; ++k) {
    la::gemm(la::Op::None, la::Op::None, 1.0, phi.view(), ck.view(), 0.0, tmp.view());
    la::copy(tmp.view(), ck.view());
    la::copy(ck.view(), row.block(0, k * m, m, m));
  }
  return BlockToeplitz(m, std::move(row));
}

std::vector<double> rhs_for_ones(const BlockToeplitz& t) {
  const std::vector<double> ones(static_cast<std::size_t>(t.order()), 1.0);
  std::vector<double> b;
  MatVec(t, MatVecMode::Direct).apply(ones, b);  // the reference product
  return b;
}

}  // namespace bst::toeplitz
