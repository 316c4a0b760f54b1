// BLAS-style dense kernels (levels 1-3), built from scratch.
//
// These are the computational primitives the paper assumes (its performance
// argument is entirely about trading level-1/2 operations for level-3 ones).
// Every kernel charges its flop count to util::FlopCounter so the paper's
// closed-form models (eqs. 25-32) can be validated against reality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace bst::la {

// ----- level 1 ------------------------------------------------------------

/// x . y for vectors of length n (stride 1).
double dot(index_t n, const double* x, const double* y);

/// y += alpha * x.
void axpy(index_t n, double alpha, const double* x, double* y);

/// x *= alpha.
void scal(index_t n, double alpha, double* x);

/// Euclidean norm of x.
double nrm2(index_t n, const double* x);

// ----- level 2 ------------------------------------------------------------

/// y := alpha * op(A) x + beta * y, op = A or A^T.
void gemv(bool trans, double alpha, CView a, const double* x, double beta, double* y);

/// A += alpha * x y^T (rank-1 update).
void ger(double alpha, const double* x, const double* y, View a);

// ----- level 3 ------------------------------------------------------------

enum class Op : std::uint8_t { None, Trans };

/// C := alpha * op(A) op(B) + beta * C.  A column of C is computed the
/// same way at every width of op(B): the packed/direct crossover reads
/// op(A)'s shape alone.
void gemm(Op ta, Op tb, double alpha, CView a, CView b, double beta, View c);

/// C := alpha * A A^T + beta * C, only the lower triangle of C referenced.
void syrk_lower(double alpha, CView a, double beta, View c);

enum class Side : std::uint8_t { Left, Right };
enum class Uplo : std::uint8_t { Lower, Upper };
enum class Diag : std::uint8_t { NonUnit, Unit };

/// Solves op(T) X = alpha B (Left) or X op(T) = alpha B (Right) in place,
/// where T is triangular; B is overwritten with X.  Left side: each column
/// of X is bitwise the same whether it is solved alone or among others.
void trsm(Side side, Uplo uplo, Op op, Diag diag, double alpha, CView t, View b);

/// Triangular matrix-vector solve: op(T) x = b in place (x := solution).
void trsv(Uplo uplo, Op op, Diag diag, CView t, double* x);

/// True when a kernel call of `flops` fans out to util::ThreadPool::global():
/// at least KernelConfig::parallel_min_flops, a pool of more than one
/// thread, and a caller not already inside a parallel region.
bool want_parallel(double flops);

// ----- packed left factors ------------------------------------------------
// A product that applies one small factor to many column chunks (a block
// reflector sweeping a wide generator) packs the factor once, into a
// PackedLeft; gemm(PackedLeft, B, ...) then runs the micro-kernel on B's
// columns in place.  Depth is never split, so each column of the product is
// computed the same way whatever chunk it comes in.  With packed = false the
// same calls run the seed kernels' direct loops on a plain copy of the
// factor; the caller makes that choice from the factor's size alone.

/// Grow-only 64-byte-aligned scratch (the micro-kernel loads A panels
/// aligned).
class PackBuffer {
 public:
  PackBuffer() = default;
  PackBuffer(const PackBuffer&) = delete;
  PackBuffer& operator=(const PackBuffer&) = delete;
  ~PackBuffer();
  /// At least `doubles` doubles; the contents survive only if it does not
  /// grow.
  double* get(std::size_t doubles);
  [[nodiscard]] const double* data() const noexcept { return buf_; }

 private:
  double* buf_ = nullptr;
  std::size_t cap_ = 0;
};

/// A left factor op(A) (rows x depth), or the lower triangle of one.
class PackedLeft {
 public:
  /// op(A), with depth index l scaled by scale[l] when `scale` is given.
  void pack(Op ta, CView a, bool packed, const double* scale = nullptr);
  /// The lower triangle of the square T, diagonal included.  T's strict
  /// upper triangle is never read, and the packed micro-panels stop at the
  /// diagonal, so the products skip the blocks above it.
  void pack_lower(CView t, bool packed);

 private:
  friend void gemm(const PackedLeft& a, CView b, double beta, View c);
  // Depth of micro-panel p: the columns of op(A) that can be nonzero in its
  // rows, [0, last(p)).
  [[nodiscard]] index_t last(index_t p) const noexcept;

  PackBuffer buf_;
  std::vector<index_t> offset_;  // packed: start of each micro-panel in buf_
  index_t rows_ = 0, depth_ = 0;
  bool packed_ = false;
  bool lower_ = false;
  Op op_ = Op::None;  // direct dense: the copy keeps A's orientation
};

/// Y += diag(d) X: row i of X scaled by d[i], added into Y.  Each entry is
/// one multiply and one add, rounded separately, whatever the SIMD width.
/// Charges nothing: callers charge closed-form totals.
void dgmm(const double* d, CView x, View y);

/// C := A B (beta = 0) or C += A B (beta = 1); C must not overlap B.
/// Charges nothing: callers charge closed-form totals.
void gemm(const PackedLeft& a, CView b, double beta, View c);

namespace detail {

/// The pre-kernel-stack scalar gemm (k-blocked loops with 4-column register
/// blocking), kept verbatim as the reference/baseline implementation: the
/// kernel tests compare the packed stack against it and bench_kernels times
/// it as the "seed" series.  Single-threaded; charges no flops/bytes.
void gemm_seed(Op ta, Op tb, double alpha, CView a, CView b, double beta, View c);

}  // namespace detail

}  // namespace bst::la
