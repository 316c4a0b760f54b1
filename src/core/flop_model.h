// Closed-form flop models from the paper (section 6, eqs. 25-32).
//
// "Blocking flops" = cost of producing a representation of the product of
// k hyperbolic reflectors of order 2m; "application flops" = cost of
// applying it to the remaining 2m x mp generator.  The paper uses these
// models to argue that YTY^T is the cheapest to build and VY2 the cheapest
// to apply, with the naive accumulated-U scheme far more expensive.
#pragma once

#include <vector>

#include "core/block_reflector.h"
#include "util/attainment.h"

namespace bst::core {

/// Eq. 25: building U = U_k ... U_1 as a dense matrix; k = m specialization
/// gives 6m^3 + 1.5m^2 + 11.5m.
double blocking_flops_accumulated_u(index_t m, index_t k);

/// Eq. 26 (first VY form); k = m gives 2.333m^3 + 3.75m^2 + 8m.
double blocking_flops_vy1(index_t m, index_t k);

/// Eq. 27 (second VY form); k = m gives 2m^3 + 3m^2 + 8m.
double blocking_flops_vy2(index_t m, index_t k);

/// Eq. 28 (YTY^T form); k = m gives 1.333m^3 + 3.75m^2 + 8m - 1.
double blocking_flops_yty(index_t m, index_t k);

/// Eq. 29: applying dense U to a 2m x mp generator (k = m): 7m^3 p + m^2 p.
double application_flops_accumulated_u(index_t m, index_t p, index_t k);

/// Eq. 30: first VY form.
double application_flops_vy1(index_t m, index_t p, index_t k);

/// Eq. 31: second VY form.
double application_flops_vy2(index_t m, index_t p, index_t k);

/// Eq. 32: YTY^T form: 5m^3 p + 5m^2 p at k = m.
double application_flops_yty(index_t m, index_t p, index_t k);

/// Dispatch by representation (Sequential uses the per-reflector costs).
double blocking_flops(Representation rep, index_t m, index_t k);
double application_flops(Representation rep, index_t m, index_t p, index_t k);

/// As-implemented cost models: closed forms of exactly what the kernels
/// charge to util::FlopCounter (la/ BLAS conventions: gemm 2mnk, gemv/ger
/// 2mn; hyperbolic make_reflector 10m+8; pivot updates (5m+4) per entry).
/// For a single-level build() of k reflectors of block size m, measured
/// build-phase flops equal blocking_flops_impl *exactly*, and every
/// apply() over p trailing block columns charges application_flops_impl
/// exactly -- so measured/model ("model_ratio" in the attainment report
/// section) is ~1.0 and any drift flags an implementation change.  The
/// verbatim eq. 25-32 models above stay as the paper-idealized reference
/// ("paper_ratio"); the two differ by bookkeeping the paper drops (W-sign
/// scaling folded into axpys, reflector setup constants).  Two-level
/// builds (SchurOptions::inner_block > 0) do extra level-3 panel work the
/// single-level model does not count.
double blocking_flops_impl(Representation rep, index_t m, index_t k);
double application_flops_impl(Representation rep, index_t m, index_t p, index_t k);
/// application_flops_impl per generator column: what apply() charges for
/// each column of [A; B] with k aggregated reflectors.
double application_flops_per_column(Representation rep, index_t m, index_t k);

/// Per-phase modeled flop budget of a full block Schur factorization of
/// order n with working block size ms (the sequential single-level path of
/// block_schur_stream): "reflector_build" and "reflector_apply" entries
/// with both the as-implemented and the paper eq. 25-32 totals, ready for
/// util::attainment_section().  Empty when ms does not divide n.
std::vector<util::PhaseModel> schur_phase_models(Representation rep, index_t n, index_t ms);

/// Total factorization cost model ~ 4 m_s n^2 (paper section 6.5) --
/// the leading-order term used in the block-size tradeoff discussion.
double factorization_flops_model(index_t n, index_t ms);

/// As-charged cost of one power-of-two transform of length n through a
/// toeplitz::FftPlan: a complex transform charges the nominal 5 n log2 n,
/// plus 2n for the inverse's scaling pass; a real-input one (`real`)
/// charges its half-length complex transform plus the post-pass (forward)
/// or pre-pass (inverse) that splits or joins the two real halves.
double fft_flops_impl(std::size_t n, bool inverse, bool real = false);

/// As-charged cost of one transform of length n through a plan: fft for
/// powers of two, otherwise Bluestein's two core transforms and pointwise
/// product against the cached chirp spectrum plus the chirp passes.  The
/// plan's own build is fft_plan_flops_impl.
double dft_flops_impl(std::size_t n, bool inverse, bool real = false);

/// As-charged cost of building an FftPlan of length n: the cached chirp
/// spectrum (one core transform and its scaling) at Bluestein lengths, 0
/// at powers of two.  A one-shot fft()/dft() call costs this plus one
/// transform.
double fft_plan_flops_impl(std::size_t n);

/// Per-phase modeled flop budget of a *converged* circulant-preconditioned
/// CG solve (core/pcg.h) on a block Toeplitz system with block size m and
/// p block rows that spent `iterations` matvecs: "fft_setup" (the m^2
/// block-circulant half spectra of the operator), "pcg_setup" (the length-p
/// plan, the m^2 Strang half spectra and the per-frequency Cholesky over
/// frequencies 0 .. p/2) and "pcg" (the solve, inclusive of its nested
/// matvec/preconditioner spans and norms).  As-implemented models only --
/// the paper has no superfast tier, so paper_flops stays 0 and the
/// attainment join reports model_ratio alone for these phases.
std::vector<util::PhaseModel> pcg_phase_models(index_t m, index_t p, int iterations);

}  // namespace bst::core
