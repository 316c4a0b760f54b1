#include "service/cache.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>

#include "core/solver.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace bst::service {
namespace {

const util::PhaseId kFactorPhase = util::Tracer::phase("service_factor");
const util::CtrId kHits = util::Metrics::counter("service_cache_hits");
const util::CtrId kMisses = util::Metrics::counter("service_cache_misses");
const util::CtrId kEvictions = util::Metrics::counter("service_cache_evictions");
// Live cache occupancy for the telemetry exporter: set under the cache
// lock wherever resident_ changes.
const util::GaugeId kResident = util::Metrics::gauge("service_cache_resident_bytes");

// xxHash64's primes, round and avalanche, one 64-bit word per round.  The
// multiply spreads a word's low bits up and the rotate brings the high bits
// down, so unlike an FNV-1a fold of whole words, two flipped sign bits
// cannot cancel out.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;

std::uint64_t fold_words(std::uint64_t h, const void* data, std::size_t words) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i * sizeof w, sizeof w);
    h = std::rotl(h + w * kP2, 31) * kP1;
  }
  return h;
}

std::uint64_t avalanche(std::uint64_t h) {
  h = (h ^ (h >> 33)) * kP2;
  h = (h ^ (h >> 29)) * kP3;
  return h ^ (h >> 32);
}

std::size_t factor_bytes(const core::SchurFactor& f) {
  const auto n = static_cast<std::size_t>(f.r.rows());
  return n * static_cast<std::size_t>(f.r.cols()) * sizeof(double) + sizeof(core::SchurFactor);
}

}  // namespace

std::string problem_key(const toeplitz::BlockToeplitz& t, const core::SchurOptions& opt) {
  const std::int64_t head[] = {
      t.block_size(),
      t.num_blocks(),
      opt.block_size != 0 ? opt.block_size : core::choose_block_size(t),
      static_cast<std::int64_t>(opt.rep),
      opt.inner_block,
      std::bit_cast<std::int64_t>(opt.breakdown_tol),
  };
  std::uint64_t h = fold_words(kP1, head, std::size(head));
  const la::CView row = t.first_row();
  for (la::index_t j = 0; j < row.cols(); ++j) {
    h = fold_words(h, row.col(j), static_cast<std::size_t>(row.rows()));
  }
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(avalanche(h)));
  return hex;
}

FactorCache::FactorCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

FactorPtr FactorCache::get_or_factor(const std::string& key, const Factory& factory,
                                     bool* was_hit) {
  std::unique_lock lock(mu_);
  if (auto it = map_.find(key); it != map_.end()) {
    ++hits_;
    util::Metrics::add(kHits);
    if (was_hit != nullptr) *was_hit = true;
    if (it->second.factor != nullptr) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.factor;
    }
    // Another thread is factoring this key right now: wait on its result
    // (counted as a hit -- this caller pays a wait, not a factorization).
    std::shared_future<FactorPtr> pending = it->second.pending;
    lock.unlock();
    return pending.get();
  }
  ++misses_;
  util::Metrics::add(kMisses);
  if (was_hit != nullptr) *was_hit = false;
  std::promise<FactorPtr> promise;
  {
    Entry building;
    building.pending = promise.get_future().share();
    map_.emplace(key, std::move(building));
  }
  lock.unlock();

  FactorPtr ptr;
  try {
    util::TraceSpan span(kFactorPhase);
    util::Fault::fire("cache_fill");
    ptr = std::make_shared<const core::SchurFactor>(factory());
  } catch (...) {
    std::exception_ptr err = std::current_exception();
    promise.set_exception(err);
    lock.lock();
    map_.erase(key);
    std::rethrow_exception(err);
  }
  promise.set_value(ptr);

  lock.lock();
  Entry& entry = map_[key];
  entry.factor = ptr;
  entry.bytes = factor_bytes(*ptr);
  entry.pending = {};
  lru_.push_front(key);
  entry.lru = lru_.begin();
  resident_ += entry.bytes;
  evict_locked(key);
  util::Metrics::gauge_set(kResident, static_cast<std::int64_t>(resident_));
  return ptr;
}

void FactorCache::evict_locked(const std::string& keep_key) {
  while (resident_ > max_bytes_ && !lru_.empty()) {
    const std::string& victim = lru_.back();
    if (victim == keep_key) break;  // never evict the entry just inserted
    auto it = map_.find(victim);
    resident_ -= it->second.bytes;
    ++evictions_;
    util::Metrics::add(kEvictions);
    map_.erase(it);
    lru_.pop_back();
  }
  util::Metrics::gauge_set(kResident, static_cast<std::int64_t>(resident_));
}

bool FactorCache::contains(const std::string& key) const {
  std::lock_guard lock(mu_);
  auto it = map_.find(key);
  return it != map_.end() && it->second.factor != nullptr;
}

CacheStats FactorCache::stats() const {
  std::lock_guard lock(mu_);
  CacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.resident_bytes = resident_;
  s.entries = lru_.size();
  return s;
}

void FactorCache::clear() {
  std::lock_guard lock(mu_);
  for (const std::string& key : lru_) map_.erase(key);
  lru_.clear();
  resident_ = 0;
  util::Metrics::gauge_set(kResident, 0);
}

}  // namespace bst::service
