#include "core/near_cache.h"

namespace iq {

NearCache::NearCache(std::size_t capacity, const Clock& clock)
    : capacity_(capacity > 0 ? capacity : 1), clock_(clock) {}

std::optional<NearCache::Hit> NearCache::Get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  const Nanos now = clock_.Now();
  if (now >= it->second->second.expires_at) {
    // Self-invalidation: the granted interval lapsed locally.
    lru_.erase(it->second);
    index_.erase(it);
    ++stats_.expired;
    ++stats_.misses;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return Hit{it->second->second.value, it->second->second.expires_at - now};
}

void NearCache::Insert(const std::string& key, std::string value,
                       Nanos validity) {
  if (validity <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const Nanos expires_at = SaturatingAdd(clock_.Now(), validity);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = Entry{std::move(value), expires_at};
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.inserts;
    ++stats_.replaced;
    return;
  }
  if (index_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.emplace_front(key, Entry{std::move(value), expires_at});
  index_[key] = lru_.begin();
  ++stats_.inserts;
}

bool NearCache::Invalidate(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  lru_.erase(it->second);
  index_.erase(it);
  ++stats_.invalidated;
  return true;
}

std::size_t NearCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

NearCache::Stats NearCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace iq
