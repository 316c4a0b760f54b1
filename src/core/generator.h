// Displacement generator of a symmetric block Toeplitz matrix.
//
// The Schur algorithm never touches the full matrix: it works on the
// 2m x mp generator  Gen = [A; B]  with
//   A = [T_1 T_2 ... T_p],  B = [0 T_2 ... T_p],  T_j = (L1 S)^{-1} That_j,
// where That_1 = L1 S L1^T is the (signature-)Cholesky factorization of the
// leading block (S = I in the SPD case), so that (paper eqs. 9-11)
//   T - Z^T T Z = Gen^T diag(S, -S) Gen .
//
// The generator is stored as the two m x mp row blocks A and B, plus the
// signature vector of length 2m.  During factorization the upper row block
// is shifted *virtually*: at step i, logical block column j of A lives at
// physical block column j - i, so no data movement is needed (the in-place
// scheme of paper section 6.4).
#pragma once

#include <vector>

#include "la/matrix.h"
#include "toeplitz/block_toeplitz.h"

namespace bst::core {

using la::CView;
using la::index_t;
using la::Mat;
using la::View;
using toeplitz::BlockToeplitz;

/// Signature vector: entries +/-1.
using Signature = std::vector<double>;

/// The 2m x mp displacement generator plus its signature.
struct Generator {
  index_t m = 0;  // working block size (m_s)
  index_t p = 0;  // number of block columns
  Mat a;          // upper row block, m x (m*p)
  Mat b;          // lower row block, m x (m*p)
  Signature sig;  // length 2m; initially (S, -S)
  double norm_g1 = 0.0;  // Frobenius norm of the initial generator, used to
                         // scale the singular-minor perturbation (sec. 8.2)

  [[nodiscard]] View a_block(index_t j) { return a.block(0, j * m, m, m); }
  [[nodiscard]] View b_block(index_t j) { return b.block(0, j * m, m, m); }
};

/// Builds the generator of an SPD block Toeplitz matrix (S = I).
/// Throws NotPositiveDefinite (step 0) if the leading block T1 is not
/// positive definite (use make_generator_indefinite then).
Generator make_generator_spd(const BlockToeplitz& t);

/// Builds the generator with a signature decomposition T1 = L S L^T
/// (paper eq. 11), valid whenever T1 has nonsingular leading principal
/// minors.  Throws SingularMinor (step 0) otherwise.
Generator make_generator_indefinite(const BlockToeplitz& t);

/// Test oracle: assembles Gen^T diag(sig) Gen (an n x n matrix) which must
/// equal the displacement T - Z^T T Z.
Mat generator_displacement(const Generator& g);

/// Test oracle: reconstructs T from the stacked triangular generators
/// G1, G2 of eq. 5: T = G1^T S_p G1 - G2^T S_p G2.
Mat generator_reconstruct(const Generator& g);

}  // namespace bst::core
