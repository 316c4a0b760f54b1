#include "la/kernel_config.h"

#include <algorithm>

#include "util/env.h"

namespace bst::la {
namespace {

// Rounds `v` down to a positive multiple of `unit`.
index_t round_to(index_t v, index_t unit) {
  return std::max(unit, (v / unit) * unit);
}

KernelConfig& active_slot() {
  static KernelConfig cfg = KernelConfig::from_env(KernelConfig::defaults());
  return cfg;
}

}  // namespace

KernelConfig KernelConfig::from_env(KernelConfig base) {
  util::env::read("BST_KERNEL_MC", base.mc);
  util::env::read("BST_KERNEL_KC", base.kc);
  util::env::read("BST_KERNEL_NC", base.nc);
  util::env::read("BST_KERNEL_PACK_MIN_FLOPS", base.pack_min_flops);
  util::env::read("BST_KERNEL_PACK_MIN_M", base.pack_min_m);
  util::env::read("BST_KERNEL_PAR_MIN_FLOPS", base.parallel_min_flops);
  util::env::read("BST_KERNEL_SIMD", base.simd);
  // Keep the invariants the packing code relies on.
  base.mc = round_to(base.mc, kMicroRows);
  base.nc = round_to(base.nc, kMicroCols);
  base.kc = std::max<index_t>(4, base.kc);
  return base;
}

KernelConfig KernelConfig::tuned(double l1d_kib, double l2_kib, double lshared_kib) {
  KernelConfig cfg;  // start from the defaults
  // One mr-wide A slice plus one nr-wide B slice of depth kc live in L1
  // while a micro-tile runs; budget half of L1 for them.
  if (l1d_kib > 0) {
    const double doubles = l1d_kib * 1024.0 / 8.0;
    const auto kc = static_cast<index_t>(0.5 * doubles / static_cast<double>(kMicroRows + kMicroCols));
    cfg.kc = std::clamp<index_t>(kc, 64, 1024);
  }
  // The packed mc x kc A block should occupy about half of L2 so B panel
  // slices and C tiles do not evict it.
  if (l2_kib > 0) {
    const double doubles = l2_kib * 1024.0 / 8.0;
    const auto mc = static_cast<index_t>(0.5 * doubles / static_cast<double>(cfg.kc));
    cfg.mc = round_to(std::clamp<index_t>(mc, kMicroRows, 1024), kMicroRows);
  }
  // The kc x nc packed B panel is reused across every A block of a column
  // sweep; keep it within about a third of the shared cache.
  if (lshared_kib > 0) {
    const double doubles = lshared_kib * 1024.0 / 8.0;
    const auto nc = static_cast<index_t>(doubles / 3.0 / static_cast<double>(cfg.kc));
    cfg.nc = round_to(std::clamp<index_t>(nc, kMicroCols * 8, 8192), kMicroCols);
  }
  return cfg;
}

const KernelConfig& KernelConfig::active() { return active_slot(); }

void KernelConfig::set_active(const KernelConfig& cfg) { active_slot() = cfg; }

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace bst::la
