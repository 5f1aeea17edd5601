#include "kvs/kvs.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <functional>
#include <utility>

namespace iq {

namespace {

/// val_len sentinel: the live value exceeds the mirror cap, so only the
/// locked path can serve it.
constexpr std::uint32_t kOptOversize = 0xFFFFFFFFu;
/// Optimistic readers give up after this many slots and fall back.
constexpr std::size_t kOptMaxProbes = 32;
constexpr std::size_t kOptInitialCapacity = 256;

/// splitmix64 finalizer. Shard selection consumes the raw hash modulo the
/// shard count, so within one shard every key agrees on those low bits;
/// probe positions must come from an independent mix or the open-addressing
/// table would only ever use one residue class of its slots.
std::uint64_t MixHash(std::uint64_t h) {
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// The open-addressing tombstone. A template so the (private) entry type
/// can be named from CacheStore's member functions only.
template <typename E>
E* Tomb() {
  return reinterpret_cast<E*>(static_cast<std::uintptr_t>(1));
}

/// Seqlock writer brackets (see the OptEntry comment in kvs.h). SeqBegin on
/// an already-odd (dead) entry keeps it odd, so kill-then-recycle never
/// passes back through an even value mid-write.
template <typename E>
void SeqBegin(E& e) {
  std::uint64_t v = e.version.load(std::memory_order_relaxed);
  if ((v & 1) == 0) e.version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
}

template <typename E>
void SeqEnd(E& e) {
  e.version.store(e.version.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
}

void StoreWords(std::atomic<std::uint64_t>* words, std::string_view src) {
  for (std::size_t i = 0; i < src.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, src.data() + i, std::min<std::size_t>(8, src.size() - i));
    words[i / 8].store(w, std::memory_order_relaxed);
  }
}

void LoadWords(const std::atomic<std::uint64_t>* words, char* dst,
               std::size_t n) {
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t w = words[i / 8].load(std::memory_order_relaxed);
    std::memcpy(dst + i, &w, std::min<std::size_t>(8, n - i));
  }
}

}  // namespace

const char* ToString(StoreResult r) {
  switch (r) {
    case StoreResult::kStored: return "STORED";
    case StoreResult::kNotStored: return "NOT_STORED";
    case StoreResult::kExists: return "EXISTS";
    case StoreResult::kNotFound: return "NOT_FOUND";
    case StoreResult::kTransportError: return "TRANSPORT_ERROR";
  }
  return "?";
}

CacheStore::CacheStore() : CacheStore(Config{}) {}

CacheStore::CacheStore(Config config)
    : clock_(config.clock != nullptr ? *config.clock : SteadyClock::Instance()),
      per_shard_budget_(config.shard_count > 0 && config.memory_budget_bytes > 0
                            ? config.memory_budget_bytes / config.shard_count
                            : 0),
      opt_val_cap_(config.optimistic_value_cap),
      opt_key_words_((kOptKeyCap + 7) / 8),
      opt_val_words_((config.optimistic_value_cap + 7) / 8),
      shards_(config.shard_count > 0 ? config.shard_count : 1),
      opt_counters_(std::make_unique<OptCounters[]>(kCounterSlots)) {
  if (opt_val_cap_ > 0) {
    for (auto& s : shards_) {
      s.opt_tables.push_back(std::make_unique<OptTable>(kOptInitialCapacity));
      s.opt_table.store(s.opt_tables.back().get(), std::memory_order_release);
    }
  }
}

CacheStore::~CacheStore() = default;

CacheStore::Shard& CacheStore::ShardFor(std::string_view key) {
  return shards_[ShardIndexFor(key)];
}

CacheStore::ShardGuard CacheStore::LockKey(std::string_view key) {
  std::size_t idx = ShardIndexFor(key);
  return ShardGuard(std::unique_lock(shards_[idx].mu), idx);
}

CacheStore::ShardGuard CacheStore::LockShard(std::size_t index) const {
  return ShardGuard(std::unique_lock(shards_[index].mu), index);
}

std::size_t CacheStore::ItemBytes(std::string_view key, std::string_view value) {
  // Key + value + fixed per-item overhead approximating Twemcache's item
  // header and hash/LRU linkage.
  return key.size() + value.size() + 64;
}

bool CacheStore::ExpiredLocked(Shard&, const Item& item) const {
  return item.expires_at != 0 && clock_.Now() >= item.expires_at;
}

// ---- optimistic-mirror maintenance (all under the shard lock) --------------

void CacheStore::OptUpsertLocked(Shard& s, const std::string& key, Item& item) {
  if (opt_val_cap_ == 0 || key.size() > kOptKeyCap) return;
  OptEntry* e = item.opt;
  const bool fresh = (e == nullptr);
  if (fresh) {
    if (!s.opt_free.empty()) {
      e = s.opt_free.back();
      s.opt_free.pop_back();
    } else {
      s.opt_pool.push_back(std::make_unique<OptEntry>());
      e = s.opt_pool.back().get();
      e->words = std::make_unique<std::atomic<std::uint64_t>[]>(opt_key_words_ +
                                                                opt_val_words_);
    }
    e->referenced.store(false, std::memory_order_relaxed);  // last key's bit
    item.opt = e;
  }
  const std::uint64_t h = HashKey(key);
  SeqBegin(*e);
  e->key_hash.store(h, std::memory_order_relaxed);
  e->key_len.store(static_cast<std::uint32_t>(key.size()),
                   std::memory_order_relaxed);
  StoreWords(e->words.get(), key);
  if (item.value.size() <= opt_val_cap_) {
    e->val_len.store(static_cast<std::uint32_t>(item.value.size()),
                     std::memory_order_relaxed);
    StoreWords(e->words.get() + opt_key_words_, item.value);
  } else {
    e->val_len.store(kOptOversize, std::memory_order_relaxed);
  }
  e->flags.store(item.flags, std::memory_order_relaxed);
  e->cas.store(item.cas, std::memory_order_relaxed);
  e->expires_at.store(item.expires_at, std::memory_order_relaxed);
  SeqEnd(*e);
  if (fresh) {
    OptEnsureCapacityLocked(s);
    OptTable* t = s.opt_table.load(std::memory_order_relaxed);
    OptEntry* tomb = Tomb<OptEntry>();
    for (std::uint64_t i = MixHash(h);; ++i) {
      auto& slot = t->slots[i & t->mask];
      OptEntry* cur = slot.load(std::memory_order_relaxed);
      if (cur == nullptr || cur == tomb) {
        if (cur == tomb) --s.opt_tombs;
        slot.store(e, std::memory_order_release);
        break;
      }
    }
    ++s.opt_live;
  }
}

void CacheStore::OptEraseLocked(Shard& s, Item& item) {
  OptEntry* e = item.opt;
  if (e == nullptr) return;
  item.opt = nullptr;
  // Leave the version odd: a reader holding this pointer (directly or via a
  // retired table) can never validate, even after the entry is recycled.
  SeqBegin(*e);
  OptTable* t = s.opt_table.load(std::memory_order_relaxed);
  OptEntry* tomb = Tomb<OptEntry>();
  const std::uint64_t h = e->key_hash.load(std::memory_order_relaxed);
  for (std::uint64_t i = MixHash(h), n = 0; n < t->capacity; ++i, ++n) {
    auto& slot = t->slots[i & t->mask];
    OptEntry* cur = slot.load(std::memory_order_relaxed);
    if (cur == e) {
      slot.store(tomb, std::memory_order_release);
      ++s.opt_tombs;
      break;
    }
    if (cur == nullptr) break;  // defensive; CheckInvariants would flag this
  }
  --s.opt_live;
  s.opt_free.push_back(e);
}

void CacheStore::OptEnsureCapacityLocked(Shard& s) {
  OptTable* old = s.opt_table.load(std::memory_order_relaxed);
  if ((s.opt_live + s.opt_tombs + 1) * 4 <= old->capacity * 3) return;
  std::size_t cap = old->capacity;
  if ((s.opt_live + 1) * 4 > cap * 3) cap *= 2;  // genuinely full: grow
  // else: tombstone-dominated; rebuild at the same capacity.
  auto fresh = std::make_unique<OptTable>(cap);
  OptEntry* tomb = Tomb<OptEntry>();
  for (std::size_t j = 0; j < old->capacity; ++j) {
    OptEntry* e = old->slots[j].load(std::memory_order_relaxed);
    if (e == nullptr || e == tomb) continue;
    std::uint64_t h = e->key_hash.load(std::memory_order_relaxed);
    for (std::uint64_t i = MixHash(h);; ++i) {
      auto& slot = fresh->slots[i & fresh->mask];
      if (slot.load(std::memory_order_relaxed) == nullptr) {
        slot.store(e, std::memory_order_relaxed);
        break;
      }
    }
  }
  s.opt_tombs = 0;
  // Publish, retiring the old table in place (readers holding it stay
  // memory-safe; they just may not see fresh keys and fall back).
  s.opt_tables.push_back(std::move(fresh));
  s.opt_table.store(s.opt_tables.back().get(), std::memory_order_release);
}

// ---- locked core -----------------------------------------------------------

void CacheStore::EraseLocked(Shard& s, ItemMap::iterator it) {
  OptEraseLocked(s, it->second);
  s.bytes -= ItemBytes(it->first, it->second.value);
  s.items.erase(it);
}

void CacheStore::EvictIfNeededLocked(Shard& s, ItemMap::iterator written) {
  if (per_shard_budget_ == 0 || s.bytes <= per_shard_budget_) return;
  // The written item starts referenced, so the sweep would take other items
  // until its hand reached it; one that cannot fit goes at once, alone.
  if (ItemBytes(written->first, written->second.value) > per_shard_budget_) {
    EraseLocked(s, written);
    ++s.stats.evictions;
  }
  // One lap of second chances per eviction run: without a bound, readers
  // re-setting bits during the sweep could keep every item referenced.
  std::size_t chances = s.items.size();
  while (s.bytes > per_shard_budget_ && !s.items.empty()) {
    EraseLocked(s, ClockVictimLocked(s, chances));
    ++s.stats.evictions;
  }
}

CacheStore::ItemMap::iterator CacheStore::ClockVictimLocked(
    Shard& s, std::size_t& chances) {
  for (;; ++s.clock_hand) {
    const std::size_t b = s.clock_hand % s.items.bucket_count();
    for (auto it = s.items.begin(b); it != s.items.end(b); ++it) {
      Item& item = it->second;
      bool referenced = std::exchange(item.referenced, false);
      if (item.opt != nullptr &&
          item.opt->referenced.exchange(false, std::memory_order_relaxed)) {
        referenced = true;
      }
      if (referenced && chances > 0) {
        --chances;
        continue;
      }
      ++s.clock_hand;  // the bucket's later items wait for the next lap
      return s.items.find(it->first);
    }
  }
}

CacheStore::ItemMap::iterator CacheStore::FindLive(Shard& s,
                                                   std::string_view key) {
  auto it = s.items.find(key);  // heterogeneous: no std::string temporary
  if (it == s.items.end()) return s.items.end();
  if (ExpiredLocked(s, it->second)) {
    EraseLocked(s, it);
    ++s.stats.expirations;
    return s.items.end();
  }
  return it;
}

void CacheStore::StoreLocked(Shard& s, std::string_view key,
                             std::string_view value, std::uint32_t flags,
                             Nanos ttl) {
  auto it = s.items.find(key);
  if (it == s.items.end()) {
    it = s.items.emplace(std::string(key), Item{}).first;
  } else {
    s.bytes -= ItemBytes(it->first, it->second.value);
  }
  Item& item = it->second;
  item.value.assign(value);
  item.flags = flags;
  item.cas = cas_counter_.fetch_add(1, std::memory_order_relaxed);
  item.expires_at = ttl > 0 ? SaturatingAdd(clock_.Now(), ttl) : 0;
  s.bytes += ItemBytes(it->first, item.value);
  FinishWriteLocked(s, it);
}

void CacheStore::FinishWriteLocked(Shard& s, ItemMap::iterator it) {
  // A write counts as an access, and an insert is referenced from birth
  // because it may land just ahead of the hand.
  it->second.referenced = true;
  OptUpsertLocked(s, it->first, it->second);
  EvictIfNeededLocked(s, it);
}

// ---- public command set ----------------------------------------------------

std::optional<CacheItem> CacheStore::Get(std::string_view key) {
  const std::uint64_t h = HashKey(key);
  if (auto hit = OptimisticGet(key, h)) return hit;
  Shard& s = shards_[h % shards_.size()];
  std::lock_guard lock(s.mu);
  ++s.stats.gets;
  auto it = FindLive(s, key);
  if (it == s.items.end()) {
    ++s.stats.get_misses;
    return std::nullopt;
  }
  ++s.stats.get_hits;
  it->second.referenced = true;
  return CacheItem{it->second.value, it->second.flags, it->second.cas};
}

CacheStore::OptCounters& CacheStore::ThreadOptCounters() {
  static std::atomic<std::size_t> next_thread{0};
  thread_local const std::size_t index =
      next_thread.fetch_add(1, std::memory_order_relaxed);
  return opt_counters_[index % kCounterSlots];
}

std::optional<CacheItem> CacheStore::OptimisticGet(std::string_view key) {
  return OptimisticGet(key, HashKey(key));
}

std::optional<CacheItem> CacheStore::OptimisticGet(std::string_view key,
                                                   std::uint64_t h) {
  if (opt_val_cap_ == 0 || key.size() > kOptKeyCap) return std::nullopt;
  Shard& s = shards_[h % shards_.size()];
  OptTable* t = s.opt_table.load(std::memory_order_acquire);
  OptEntry* tomb = Tomb<OptEntry>();
  const std::size_t probe_cap = std::min(kOptMaxProbes, t->capacity);
  for (std::uint64_t i = MixHash(h), n = 0; n < probe_cap; ++i, ++n) {
    OptEntry* e = t->slots[i & t->mask].load(std::memory_order_acquire);
    if (e == nullptr) break;  // not indexed: the locked path decides hit/miss
    if (e == tomb) continue;
    const std::uint64_t v1 = e->version.load(std::memory_order_acquire);
    if (v1 & 1) {  // writer mid-update or dead entry: bounce, never spin
      ThreadOptCounters().fallbacks.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    // Pre-validation loads below may be torn; any decision they feed ends in
    // "keep probing" or "fall back to the locked path", never a wrong answer.
    if (e->key_hash.load(std::memory_order_relaxed) != h) continue;
    const std::uint32_t klen = e->key_len.load(std::memory_order_relaxed);
    if (klen != key.size()) continue;
    char kbuf[kOptKeyCap];
    LoadWords(e->words.get(), kbuf, klen);
    if (std::memcmp(kbuf, key.data(), klen) != 0) continue;
    const std::uint32_t vlen = e->val_len.load(std::memory_order_relaxed);
    const std::uint32_t flags = e->flags.load(std::memory_order_relaxed);
    const std::uint64_t cas = e->cas.load(std::memory_order_relaxed);
    const Nanos expires = e->expires_at.load(std::memory_order_relaxed);
    const bool oversize = vlen > opt_val_cap_;  // covers kOptOversize + tears
    CacheItem out;
    if (!oversize) {
      out.value.resize(vlen);
      LoadWords(e->words.get() + opt_key_words_, out.value.data(), vlen);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (e->version.load(std::memory_order_relaxed) != v1) {
      ThreadOptCounters().fallbacks.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;  // raced a writer; the locked path settles it
    }
    // Snapshot is consistent as of v1.
    if (oversize || (expires != 0 && clock_.Now() >= expires)) {
      // Big values and TTL hits are served (and expired) by the locked path.
      ThreadOptCounters().fallbacks.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    out.flags = flags;
    out.cas = cas;
    // CLOCK recency, written only when clear (memcached's
    // ITEM_UPDATE_INTERVAL idea), so a hot entry's line stays clean until a
    // sweep clears the bit. A set racing an erase at worst spares the
    // entry's next owner once.
    if (!e->referenced.load(std::memory_order_relaxed)) {
      e->referenced.store(true, std::memory_order_relaxed);
    }
    ThreadOptCounters().hits.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  return std::nullopt;  // genuine miss or overlong probe chain: locked path
                        // gives the authoritative answer either way
}

StoreResult CacheStore::Set(std::string_view key, std::string_view value,
                            std::uint32_t flags, Nanos ttl) {
  Shard& s = ShardFor(key);
  std::lock_guard lock(s.mu);
  ++s.stats.sets;
  StoreLocked(s, key, value, flags, ttl);
  return StoreResult::kStored;
}

StoreResult CacheStore::Add(std::string_view key, std::string_view value,
                            std::uint32_t flags, Nanos ttl) {
  Shard& s = ShardFor(key);
  std::lock_guard lock(s.mu);
  ++s.stats.sets;
  if (FindLive(s, key) != s.items.end()) return StoreResult::kNotStored;
  StoreLocked(s, key, value, flags, ttl);
  return StoreResult::kStored;
}

StoreResult CacheStore::Replace(std::string_view key, std::string_view value,
                                std::uint32_t flags, Nanos ttl) {
  Shard& s = ShardFor(key);
  std::lock_guard lock(s.mu);
  ++s.stats.sets;
  if (FindLive(s, key) == s.items.end()) return StoreResult::kNotStored;
  StoreLocked(s, key, value, flags, ttl);
  return StoreResult::kStored;
}

StoreResult CacheStore::Cas(std::string_view key, std::string_view value,
                            std::uint64_t cas, std::uint32_t flags, Nanos ttl) {
  Shard& s = ShardFor(key);
  std::lock_guard lock(s.mu);
  ++s.stats.cas_ops;
  auto it = FindLive(s, key);
  if (it == s.items.end()) return StoreResult::kNotFound;
  if (it->second.cas != cas) {
    ++s.stats.cas_mismatches;
    return StoreResult::kExists;
  }
  StoreLocked(s, key, value, flags, ttl);
  return StoreResult::kStored;
}

bool CacheStore::Delete(std::string_view key) {
  Shard& s = ShardFor(key);
  std::lock_guard lock(s.mu);
  ++s.stats.deletes;
  auto it = FindLive(s, key);
  if (it == s.items.end()) return false;
  EraseLocked(s, it);
  ++s.stats.delete_hits;
  return true;
}

StoreResult CacheStore::Append(std::string_view key, std::string_view suffix) {
  Shard& s = ShardFor(key);
  std::lock_guard lock(s.mu);
  ++s.stats.appends;
  auto it = FindLive(s, key);
  if (it == s.items.end()) return StoreResult::kNotStored;
  s.bytes -= ItemBytes(it->first, it->second.value);
  it->second.value.append(suffix);
  it->second.cas = cas_counter_.fetch_add(1, std::memory_order_relaxed);
  s.bytes += ItemBytes(it->first, it->second.value);
  FinishWriteLocked(s, it);
  return StoreResult::kStored;
}

StoreResult CacheStore::Prepend(std::string_view key, std::string_view prefix) {
  Shard& s = ShardFor(key);
  std::lock_guard lock(s.mu);
  ++s.stats.prepends;
  auto it = FindLive(s, key);
  if (it == s.items.end()) return StoreResult::kNotStored;
  s.bytes -= ItemBytes(it->first, it->second.value);
  it->second.value.insert(0, prefix);
  it->second.cas = cas_counter_.fetch_add(1, std::memory_order_relaxed);
  s.bytes += ItemBytes(it->first, it->second.value);
  FinishWriteLocked(s, it);
  return StoreResult::kStored;
}

namespace {

std::optional<std::uint64_t> ParseUint(std::string_view v) {
  std::uint64_t out = 0;
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size()) return std::nullopt;
  return out;
}

}  // namespace

std::optional<std::uint64_t> CacheStore::Incr(std::string_view key,
                                              std::uint64_t delta) {
  Shard& s = ShardFor(key);
  std::lock_guard lock(s.mu);
  ++s.stats.incr_decrs;
  auto it = FindLive(s, key);
  if (it == s.items.end()) return std::nullopt;
  auto cur = ParseUint(it->second.value);
  if (!cur) return std::nullopt;
  std::uint64_t next = *cur + delta;
  s.bytes -= ItemBytes(it->first, it->second.value);
  it->second.value = std::to_string(next);
  it->second.cas = cas_counter_.fetch_add(1, std::memory_order_relaxed);
  s.bytes += ItemBytes(it->first, it->second.value);
  FinishWriteLocked(s, it);
  return next;
}

std::optional<std::uint64_t> CacheStore::Decr(std::string_view key,
                                              std::uint64_t delta) {
  Shard& s = ShardFor(key);
  std::lock_guard lock(s.mu);
  ++s.stats.incr_decrs;
  auto it = FindLive(s, key);
  if (it == s.items.end()) return std::nullopt;
  auto cur = ParseUint(it->second.value);
  if (!cur) return std::nullopt;
  std::uint64_t next = *cur >= delta ? *cur - delta : 0;  // saturate at 0
  s.bytes -= ItemBytes(it->first, it->second.value);
  it->second.value = std::to_string(next);
  it->second.cas = cas_counter_.fetch_add(1, std::memory_order_relaxed);
  s.bytes += ItemBytes(it->first, it->second.value);
  FinishWriteLocked(s, it);
  return next;
}

void CacheStore::Flush() {
  for (auto& s : shards_) {
    std::lock_guard lock(s.mu);
    if (opt_val_cap_ > 0) {
      // Kill every mirror before dropping items.
      for (auto& [key, item] : s.items) {
        if (item.opt != nullptr) {
          SeqBegin(*item.opt);  // leave odd = dead
          s.opt_free.push_back(item.opt);
          item.opt = nullptr;
        }
      }
      OptTable* t = s.opt_table.load(std::memory_order_relaxed);
      for (std::size_t i = 0; i < t->capacity; ++i) {
        t->slots[i].store(nullptr, std::memory_order_relaxed);
      }
      s.opt_live = 0;
      s.opt_tombs = 0;
    }
    s.items.clear();
    s.bytes = 0;
    // Count the flush once, not once per shard.
    if (&s == &shards_.front()) ++s.stats.flushes;
  }
}

CacheStats CacheStore::Stats() const {
  CacheStats total;
  for (std::size_t i = 0; i < kCounterSlots; ++i) {
    total.opt_hits += opt_counters_[i].hits.load(std::memory_order_relaxed);
    total.opt_fallbacks +=
        opt_counters_[i].fallbacks.load(std::memory_order_relaxed);
  }
  // Optimistic hits bypass the locked counters; fold them in so gets/
  // get_hits keep meaning "every get / every hit" regardless of path.
  total.gets = total.get_hits = total.opt_hits;
  for (const auto& s : shards_) {
    std::lock_guard lock(s.mu);
    total.gets += s.stats.gets;
    total.get_hits += s.stats.get_hits;
    total.get_misses += s.stats.get_misses;
    total.sets += s.stats.sets;
    total.deletes += s.stats.deletes;
    total.delete_hits += s.stats.delete_hits;
    total.cas_ops += s.stats.cas_ops;
    total.cas_mismatches += s.stats.cas_mismatches;
    total.appends += s.stats.appends;
    total.prepends += s.stats.prepends;
    total.incr_decrs += s.stats.incr_decrs;
    total.evictions += s.stats.evictions;
    total.expirations += s.stats.expirations;
    total.flushes += s.stats.flushes;
    total.bytes_used += s.bytes;
    total.item_count += s.items.size();
  }
  return total;
}

std::string CacheStore::CheckInvariants() {
  OptEntry* tomb = Tomb<OptEntry>();
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& s = shards_[si];
    std::lock_guard lock(s.mu);
    const std::string where = "shard " + std::to_string(si) + ": ";
    std::size_t bytes = 0;
    for (const auto& [key, item] : s.items) bytes += ItemBytes(key, item.value);
    if (bytes != s.bytes) {
      return where + "bytes accounting drift: counted " + std::to_string(bytes) +
             " recorded " + std::to_string(s.bytes);
    }
    if (opt_val_cap_ > 0) {
      std::size_t mirrored = 0;
      for (const auto& [key, item] : s.items) {
        if (key.size() > kOptKeyCap) {
          if (item.opt != nullptr) return where + "long key has a mirror";
          continue;
        }
        const OptEntry* e = item.opt;
        if (e == nullptr) return where + "short key '" + key + "' lacks mirror";
        ++mirrored;
        if (e->version.load(std::memory_order_relaxed) & 1) {
          return where + "mirror for '" + key + "' is dead/odd";
        }
        if (e->key_hash.load(std::memory_order_relaxed) != HashKey(key)) {
          return where + "mirror hash mismatch for '" + key + "'";
        }
        if (e->cas.load(std::memory_order_relaxed) != item.cas) {
          return where + "mirror cas drift for '" + key + "'";
        }
        const std::uint32_t vlen = e->val_len.load(std::memory_order_relaxed);
        if (item.value.size() <= opt_val_cap_) {
          if (vlen != item.value.size()) {
            return where + "mirror length drift for '" + key + "'";
          }
          std::string mirror(vlen, '\0');
          LoadWords(e->words.get() + opt_key_words_, mirror.data(), vlen);
          if (mirror != item.value) {
            return where + "mirror value drift for '" + key + "'";
          }
        } else if (vlen != kOptOversize) {
          return where + "oversize value not flagged for '" + key + "'";
        }
      }
      if (mirrored != s.opt_live) {
        return where + "opt_live " + std::to_string(s.opt_live) +
               " != mirrored items " + std::to_string(mirrored);
      }
      OptTable* t = s.opt_table.load(std::memory_order_relaxed);
      std::size_t slots_live = 0, slots_tomb = 0;
      for (std::size_t i = 0; i < t->capacity; ++i) {
        OptEntry* e = t->slots[i].load(std::memory_order_relaxed);
        if (e == tomb) {
          ++slots_tomb;
        } else if (e != nullptr) {
          ++slots_live;
        }
      }
      if (slots_live != s.opt_live || slots_tomb != s.opt_tombs) {
        return where + "index slot counts drift: live " +
               std::to_string(slots_live) + "/" + std::to_string(s.opt_live) +
               " tombs " + std::to_string(slots_tomb) + "/" +
               std::to_string(s.opt_tombs);
      }
    }
  }
  return "";
}

// ---- Locked extension API --------------------------------------------------

std::optional<CacheItem> CacheStore::GetLocked(const ShardGuard& g,
                                               std::string_view key) {
  Shard& s = shards_[g.shard_index()];
  ++s.stats.gets;
  auto it = FindLive(s, key);
  if (it == s.items.end()) {
    ++s.stats.get_misses;
    return std::nullopt;
  }
  ++s.stats.get_hits;
  it->second.referenced = true;
  return CacheItem{it->second.value, it->second.flags, it->second.cas};
}

StoreResult CacheStore::SetLocked(const ShardGuard& g, std::string_view key,
                                  std::string_view value, std::uint32_t flags,
                                  Nanos ttl) {
  Shard& s = shards_[g.shard_index()];
  ++s.stats.sets;
  StoreLocked(s, key, value, flags, ttl);
  return StoreResult::kStored;
}

bool CacheStore::DeleteLocked(const ShardGuard& g, std::string_view key) {
  Shard& s = shards_[g.shard_index()];
  ++s.stats.deletes;
  auto it = FindLive(s, key);
  if (it == s.items.end()) return false;
  EraseLocked(s, it);
  ++s.stats.delete_hits;
  return true;
}

bool CacheStore::ContainsLocked(const ShardGuard& g, std::string_view key) {
  Shard& s = shards_[g.shard_index()];
  return FindLive(s, key) != s.items.end();
}

}  // namespace iq
