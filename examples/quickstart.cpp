// Quickstart: factor and solve a symmetric positive definite block
// Toeplitz system with the block Schur algorithm.
//
//   build/examples/quickstart
//
// Walks through the three core calls:
//   1. describe the matrix by its first block row (BlockToeplitz),
//   2. factor it, T = R^T R, in O(m n^2) flops (block_schur_factor),
//   3. solve T x = b through the factor (solve_spd).
#include <cmath>
#include <cstdio>

#include "bst.h"

using namespace bst;

int main() {
  // A 240 x 240 SPD block Toeplitz matrix with 3 x 3 blocks (p = 80 block
  // columns), generated as the autocovariance of a 3-channel moving-average
  // process -- the kind of matrix multichannel signal processing produces.
  const la::index_t m = 3, p = 80;
  toeplitz::BlockToeplitz t = toeplitz::random_spd_block(m, p, /*ma_order=*/4, /*seed=*/2024);
  std::printf("matrix: n = %td, block size m = %td, %td block columns\n", t.order(),
              t.block_size(), t.num_blocks());

  // Factor T = R^T R.  The options select the second VY representation of
  // the block hyperbolic Householder reflectors -- the cheapest to apply.
  core::SchurOptions opt;
  opt.rep = core::Representation::VY2;
  core::SchurFactor f = core::block_schur_factor(t, opt);
  std::printf("factored with %llu flops (dense Cholesky would need ~%.0f)\n",
              static_cast<unsigned long long>(f.flops),
              std::pow(static_cast<double>(t.order()), 3) / 3.0);

  // Solve T x = b for a right-hand side with known solution x = ones.
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  std::vector<double> x = core::solve_spd(f, b);

  double max_err = 0.0;
  for (double v : x) max_err = std::max(max_err, std::fabs(v - 1.0));
  std::printf("solve: max |x_i - 1| = %.3e\n", max_err);

  // The factor is reusable: solve for a second right-hand side at O(n^2).
  std::vector<double> b2(b.size(), 1.0);
  std::vector<double> x2 = core::solve_spd(f, b2);
  std::vector<double> check;
  toeplitz::MatVec(t, toeplitz::MatVecMode::Fft).apply(x2, check);
  double max_res = 0.0;
  for (std::size_t i = 0; i < b2.size(); ++i)
    max_res = std::max(max_res, std::fabs(check[i] - b2[i]));
  std::printf("second rhs: max |T x - b| = %.3e\n", max_res);

  // Treating the same matrix with a larger working block size trades flops
  // for level-3 locality (the paper's m_s device).
  core::SchurOptions wide;
  wide.block_size = 12;  // multiple of m = 3
  core::SchurFactor f12 = core::block_schur_factor(t, wide);
  std::printf("with m_s = 12: %llu flops (~linear growth in m_s)\n",
              static_cast<unsigned long long>(f12.flops));
  return 0;
}
