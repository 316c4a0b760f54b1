// Blocking/threading parameters of the level-3 kernel stack (la/blas3.cc).
//
// The packed gemm/syrk/trsm kernels follow the classic BLIS decomposition:
// an mr x nr register micro-kernel at the bottom, KC-deep panels of A and B
// packed into contiguous aligned buffers, and MC/NC outer blocking chosen so
// the packed A block stays L2-resident and one B panel stays L1-resident
// while a C tile streams through registers.  The numbers below control that
// decomposition; they are process-wide (set once at startup, read by every
// kernel call) and come from three sources, in increasing precedence:
//
//   1. compiled-in defaults (safe for any 32K-L1 / 512K+-L2 x86 core),
//   2. the machine calibration profile (util/calibrate.h measures cache
//      capacities with a STREAM-triad size sweep; apply_kernel_tuning()
//      derives MC/KC/NC from them),
//   3. BST_KERNEL_* environment variables (always win; see from_env()).
//
// docs/KERNELS.md documents the scheme and every knob.
#pragma once

#include "la/matrix.h"

namespace bst::la {

/// Register micro-tile dimensions: fixed at compile time by the built
/// micro-kernels (portable C and AVX2/FMA share the same tile so packing
/// is identical); exposed so callers can align partitions to tile edges.
inline constexpr index_t kMicroRows = 8;  // mr
inline constexpr index_t kMicroCols = 6;  // nr

struct KernelConfig {
  // Cache blocking (doubles, not bytes): A blocks are mc x kc, B panels
  // kc x nc.  kc * (mr + nr) * 8 bytes should fit L1 with room to spare;
  // mc * kc * 8 about half of L2; nc bounds the packed-B footprint.
  index_t mc = 128;
  index_t kc = 256;
  index_t nc = 2048;

  // Size-based crossover: gemm calls whose one NR-wide micro-panel costs
  // fewer than pack_min_flops flops (2 m k nr; the width n does not count)
  // or with fewer than pack_min_m rows of op(A) use the direct
  // register-blocked loops instead of packing.  The block reflector apply
  // decides from pack_min_m alone (the factor's order).  Either way a
  // column's result never depends on how many columns share the call.
  // The Schur hot shapes -- 2m-row generator panels with m in {1..8} --
  // produce C tiles narrower than the micro-kernel's mr rows, where
  // zero-padded micro-tiles would waste a large fraction of the SIMD lanes
  // and the packing traffic is pure overhead.
  index_t pack_min_flops = 1 << 15;
  index_t pack_min_m = 5;

  // Threading: a kernel, or a block reflector apply's chunk sweep, fans
  // out to util::ThreadPool::global() only when its flop count reaches
  // parallel_min_flops (pool dispatch costs a few microseconds; small calls
  // are faster inline) and the calling thread is not already inside a
  // parallel region (no nested pools): la::want_parallel.
  index_t parallel_min_flops = 2 << 20;

  // Use the AVX2/FMA micro-kernel when the CPU supports it (runtime
  // dispatch; the portable kernel is always available as fallback).
  bool simd = true;

  /// Compiled-in defaults (the values above).
  static KernelConfig defaults() { return KernelConfig{}; }

  /// Applies the BST_KERNEL_{MC,KC,NC,PACK_MIN_FLOPS,PACK_MIN_M,
  /// PAR_MIN_FLOPS,SIMD} variables that are set on top of `base`, read
  /// through util/env.h: the sizes are integers >= 1, BST_KERNEL_SIMD is a
  /// 0/1 switch, and a bad value throws std::runtime_error naming the
  /// variable.  mc and nc are then rounded down to tile multiples and kc
  /// raised to at least 4, whatever their source.
  static KernelConfig from_env(KernelConfig base);

  /// Derives blocking from measured cache capacities (KiB; pass 0 for
  /// "unknown" to keep the default for that level).  Results are clamped to
  /// sane ranges and rounded to micro-tile multiples.
  static KernelConfig tuned(double l1d_kib, double l2_kib, double lshared_kib);

  /// The process-wide active configuration.  Initialized on first use from
  /// from_env(defaults()); replace with set_active() at startup (e.g. after
  /// loading a calibration profile).  Not synchronized: do not call
  /// set_active() while kernels may be running on other threads.
  static const KernelConfig& active();
  static void set_active(const KernelConfig& cfg);
};

/// True when this CPU supports the AVX2+FMA micro-kernel (independent of
/// KernelConfig::simd; the dispatcher uses `active().simd && cpu_has...`).
bool cpu_has_avx2_fma();

}  // namespace bst::la
