#include "service/cache.h"

#include <cstdio>
#include <utility>

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

// FNV-1a 64 over raw bytes.
std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::size_t factor_bytes(const core::SchurFactor& f) {
  const auto n = static_cast<std::size_t>(f.r.rows());
  return n * static_cast<std::size_t>(f.r.cols()) * sizeof(double) + sizeof(core::SchurFactor);
}

}  // namespace

std::string problem_key(const toeplitz::BlockToeplitz& t, const core::SchurOptions& opt) {
  const la::index_t m = t.block_size(), p = t.num_blocks();
  const auto rep = static_cast<std::int64_t>(opt.rep);
  std::uint64_t h = 14695981039346656037ull;
  h = fnv1a_bytes(h, &m, sizeof m);
  h = fnv1a_bytes(h, &p, sizeof p);
  h = fnv1a_bytes(h, &opt.block_size, sizeof opt.block_size);
  h = fnv1a_bytes(h, &rep, sizeof rep);
  h = fnv1a_bytes(h, &opt.inner_block, sizeof opt.inner_block);
  h = fnv1a_bytes(h, &opt.breakdown_tol, sizeof opt.breakdown_tol);
  const la::CView row = t.first_row();
  for (la::index_t j = 0; j < row.cols(); ++j) {
    h = fnv1a_bytes(h, row.col(j), static_cast<std::size_t>(row.rows()) * sizeof(double));
  }
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
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
