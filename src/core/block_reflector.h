// Block hyperbolic Householder representations (paper sections 4-6).
//
// A step of the block Schur algorithm eliminates the m x m lower pivot
// block Q against the upper-triangular pivot block P with a product of m
// hyperbolic reflectors U = U_m ... U_1.  The product can be represented:
//
//   AccumulatedU : U as a dense 2m x 2m matrix (the naive scheme),
//   VY1          : U = W^m + V Y^T, built with 2 matvecs / step (Lemma 4.0.1),
//   VY2          : U = W^m + V Y^T, built with 1 matvec + 1 rank-1 (Lemma 4.0.2),
//   YTY          : U = W^m + Y T Y^T W^{m-1} (Lemma 4.0.3; least build flops
//                  and half the storage/communication volume),
//   Sequential   : no aggregation; reflectors applied one by one (level-2).
//
// Applying the composite to the rest of the generator is done in split
// quadrant form (paper section 6.4): the upper and lower row blocks A and B
// of the generator live at different column offsets (the in-place virtual
// shift), so U's quadrants / the top and bottom halves of V, Y are used
// separately.  apply() packs those small factors once per call and sweeps
// [A; B] in L1-sized column chunks, running every product of the form on
// the level-3 micro-kernel -- the triangles packed without the blocks above
// the diagonal -- so each chunk is read and written once (docs/KERNELS.md).
#pragma once

#include <optional>
#include <vector>

#include "core/hyperbolic.h"
#include "la/matrix.h"

namespace bst::core {

/// Which aggregation scheme to use for the step's reflector product.
enum class Representation { AccumulatedU, VY1, VY2, YTY, Sequential };

/// Human-readable name (bench output).
const char* to_string(Representation rep);

/// Build breakdown: the column whose hyperbolic norm was (near-)zero or of
/// the wrong sign -- a singular or indefinite principal minor.
struct StepBreakdown {
  index_t column = 0;  // 0-based column inside the pivot block
  double hnorm = 0.0;  // the offending hyperbolic norm
};

/// The aggregated product of one step's m reflectors.
class BlockReflector {
 public:
  BlockReflector(Representation rep, index_t m, Signature sig);

  /// Builds the composite from the pivot pair (P upper triangular, Q dense),
  /// transforming P and Q in place (P gets the -sigma diagonal, Q becomes 0).
  /// On breakdown, P/Q hold the partially transformed state for columns
  /// < breakdown.column and the breakdown is returned; the SPD driver treats
  /// that as "not positive definite", the indefinite driver re-runs the step
  /// with pivoting / perturbation.
  ///
  /// `inner_block` enables the two-level blocking of paper section 6.2:
  /// reflectors are aggregated every `inner_block` columns into a panel
  /// whose application to the remaining pivot columns uses the level-3
  /// path (useful when m is large).  0 (default) updates the pivot pair
  /// reflector-by-reflector.
  [[nodiscard]] std::optional<StepBreakdown> build(View p, View q, double breakdown_tol = 0.0,
                                                   index_t inner_block = 0);

  /// Applies the composite to the active generator columns:
  /// [A; B] := U [A; B] with A, B each an m x L view (possibly at different
  /// physical offsets -- the split-quadrant application).  Each column's
  /// result is the same bits whatever L is and however the columns are
  /// split across calls; packed kernels or direct loops are chosen from m
  /// alone (KernelConfig::pack_min_m).  Charges the closed form
  /// application_flops_per_column (core/flop_model.h) per column.
  void apply(View a, View b) const;

  /// The scalar reflectors (Sequential application / tests).
  [[nodiscard]] const std::vector<Reflector>& reflectors() const noexcept { return refl_; }

  /// Rebuilds the aggregate from already-computed scalar reflectors (e.g.
  /// received over the network in the distributed implementation: the
  /// x-vectors are the compact wire format, each PE re-aggregates locally).
  static BlockReflector from_reflectors(Representation rep, index_t m, Signature sig,
                                        const std::vector<Reflector>& reflectors);

  /// Dense 2m x 2m composite (test oracle; independent of representation).
  [[nodiscard]] Mat dense_u() const;

  [[nodiscard]] Representation representation() const noexcept { return rep_; }
  [[nodiscard]] const Signature& signature() const noexcept { return sig_; }

 private:
  void accumulate(const Reflector& r, index_t k);
  // Builds reflectors for pivot columns [k0, k1), updating only the pivot
  // pair columns [k0, k1); used both for the whole step and per panel.
  [[nodiscard]] std::optional<StepBreakdown> build_panel(View p, View q, index_t k0, index_t k1,
                                                         double breakdown_tol,
                                                         BlockReflector* panel_agg);
  void apply_sequential(View a, View b) const;

  Representation rep_;
  index_t m_;
  Signature sig_;                // length 2m
  std::vector<Reflector> refl_;  // the m scalar reflectors, in order
  index_t built_ = 0;            // number of reflectors accumulated so far
  Mat u_;                        // AccumulatedU: 2m x 2m
  Mat v_, y_;                    // VY forms: 2m x m each
  Mat t_;                        // YTY: m x m lower triangular
};

/// Scales the rows of `g` by sig^k (i.e. multiplies by W^k): a no-op for
/// even k, a per-row sign flip for odd k.
void scale_rows_wk(View g, const Signature& sig, index_t row_offset, index_t k);

}  // namespace bst::core
