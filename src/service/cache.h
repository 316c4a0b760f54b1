// Factorization cache for the batched solver service (docs/SERVICE.md).
//
// The paper's block Schur factorization pays off precisely when one
// factorization is reused across many right-hand sides: the factor costs
// O(m_s n^2) flops, the marginal solve O(n^2) -- and in the solve-many
// regime the factor is *the* expensive object (same structural point as
// Kanhouche's inverse-factorization papers, PAPERS.md).  This cache holds
// recently used factors keyed by problem_key(): a hash of the first block
// row's bytes and every numerically relevant SchurOptions knob, the m_s the
// factor is built at included.
//
// Eviction is LRU by *resident bytes* (an n x n factor is n^2 doubles; a
// thousand cached n = 512 systems is 2 GiB -- entry counts are the wrong
// budget).  Hits, misses and evictions land in util::Metrics counters
// (service_cache_{hits,misses,evictions}) so any profiled run reports
// them, plus per-instance CacheStats for programmatic use.
//
// Thread safety: all methods may be called concurrently.  Concurrent
// misses on one key factor once -- the first caller runs the factory, the
// rest block on a shared future (no thundering herd).  Evicted factors
// stay alive while any solve still holds the shared_ptr.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/schur.h"
#include "toeplitz/block_toeplitz.h"

namespace bst::service {

using FactorPtr = std::shared_ptr<const core::SchurFactor>;

/// Canonical cache key of a problem: a 64-bit hash, in hex, of the matrix
/// content (m, p and the first block row) and the numerically relevant
/// factorization options (rep, inner_block, breakdown_tol, and the m_s the
/// factor is built at: opt.block_size, or core::choose_block_size(t) when
/// it is 0), folded 8 bytes per step.
std::string problem_key(const toeplitz::BlockToeplitz& t, const core::SchurOptions& opt);

/// Copied-out cache counters.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t resident_bytes = 0;
  std::size_t entries = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// LRU-by-bytes cache of Schur factors.
class FactorCache {
 public:
  /// `max_bytes` caps the resident factor storage; the most recently
  /// inserted entry is never evicted, so a single factor larger than the
  /// budget still caches (and evicts everything else).
  explicit FactorCache(std::size_t max_bytes);

  using Factory = std::function<core::SchurFactor()>;

  /// Returns the cached factor for `key`, or runs `factory` (outside the
  /// lock), caches and returns its result.  `was_hit`, when non-null, is
  /// set to whether the factor was already present (or being built by
  /// another thread).  A throwing factory propagates to every waiter and
  /// leaves no entry behind.
  FactorPtr get_or_factor(const std::string& key, const Factory& factory,
                          bool* was_hit = nullptr);

  /// True when `key` is resident (no LRU touch, no counter update).
  [[nodiscard]] bool contains(const std::string& key) const;

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t max_bytes() const noexcept { return max_bytes_; }

  /// Drops every resident entry (in-flight factorizations finish normally).
  void clear();

 private:
  struct Entry {
    FactorPtr factor;                      // null while the factory runs
    std::shared_future<FactorPtr> pending; // valid while the factory runs
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru;  // valid once factor != null
  };

  void evict_locked(const std::string& keep_key);

  const std::size_t max_bytes_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  std::list<std::string> lru_;  // most recently used at the front
  std::size_t resident_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

}  // namespace bst::service
