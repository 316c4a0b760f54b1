// The block Schur factorization of an SPD block Toeplitz matrix
// (paper sections 2, 5, 6): T = R^T R with R upper triangular, computed in
// O(m n^2) flops on the 2m x mp generator.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>

#include "core/block_reflector.h"
#include "core/generator.h"
#include "toeplitz/block_toeplitz.h"

namespace bst::core {

/// Options controlling the factorization.
struct SchurOptions {
  /// Aggregation scheme for each step's reflector product.
  Representation rep = Representation::VY2;
  /// Working block size m_s; 0 keeps the structural block size m.  Values
  /// larger than m forego part of the Toeplitz structure for better BLAS3
  /// shapes (paper section 6.5); must be a multiple of m dividing n.
  index_t block_size = 0;
  /// Relative breakdown tolerance on the hyperbolic norm of a pivot column.
  double breakdown_tol = 1e-13;
  /// Two-level blocking (paper section 6.2): aggregate the step's
  /// reflectors every `inner_block` columns and update the rest of the
  /// pivot block with the level-3 path.  0 = single-level.
  index_t inner_block = 0;
  /// Parallelize the reflector application across column chunks using the
  /// global thread pool (shared-memory mode, paper section 9).
  bool parallel = false;
};

/// Thrown when a pivot column has non-positive hyperbolic norm: the matrix
/// is not positive definite (or a principal minor is numerically singular).
class NotPositiveDefinite : public std::runtime_error {
 public:
  NotPositiveDefinite(index_t step, index_t column, double hnorm);
  index_t step, column;
  double hnorm;
};

/// Receives the factor row-block by row-block.  `step` is the block row
/// index (0-based); `rows` is the m_s x (p - step) * m_s strip that forms
/// R(step block row, step.. block columns).
using RowBlockSink = std::function<void(index_t step, CView rows)>;

/// Dense result of the factorization.
struct SchurFactor {
  Mat r;                   // n x n upper triangular, T = R^T R
  index_t block_size = 0;  // working block size m_s
  std::uint64_t flops = 0; // flops charged during the factorization
};

/// Factors T = R^T R, streaming the block rows of R into `sink`.
/// Throws NotPositiveDefinite on breakdown.  Returns the flop count.
std::uint64_t block_schur_stream(const toeplitz::BlockToeplitz& t, const SchurOptions& opt,
                                 const RowBlockSink& sink);

/// Factors T = R^T R and returns R densely.
SchurFactor block_schur_factor(const toeplitz::BlockToeplitz& t, const SchurOptions& opt = {});

/// One in-place factorization step on a prepared generator: builds the
/// reflector from (A block 0, B block `step`) and applies it to the
/// remaining active columns.  Exposed for the kernel benchmarks, which time
/// a single step.  Throws on breakdown.
void schur_step(Generator& g, index_t step, const SchurOptions& opt);

}  // namespace bst::core
