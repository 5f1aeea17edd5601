#include "kvs/kvs.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <utility>

namespace iq {

namespace {

constexpr std::size_t kInitialIndexCapacity = 256;

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

/// Seqlock writer brackets (see the Entry comment in kvs.h). SeqBegin on
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

/// Words that hold `n` bytes.
constexpr std::size_t WordsFor(std::size_t n) { return (n + 7) / 8; }

/// Stores `src` from the first byte of `words`; the bytes after it in its
/// last word are zero.
void StoreWords(std::atomic<std::uint64_t>* words, std::string_view src) {
  std::size_t i = 0;
  for (; i + 8 <= src.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, src.data() + i, 8);
    words[i / 8].store(w, std::memory_order_relaxed);
  }
  if (i < src.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, src.data() + i, src.size() - i);
    words[i / 8].store(w, std::memory_order_relaxed);
  }
}

/// Copies the first `n` bytes of `words` to `dst`, whole words as 8-byte
/// copies the compiler inlines.
void LoadWords(const std::atomic<std::uint64_t>* words, char* dst,
               std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = words[i / 8].load(std::memory_order_relaxed);
    std::memcpy(dst + i, &w, 8);
  }
  if (i < n) {
    const std::uint64_t w = words[i / 8].load(std::memory_order_relaxed);
    std::memcpy(dst + i, &w, n - i);
  }
}

/// Whether `words` begin with `key`'s bytes.
bool WordsStartWith(const std::atomic<std::uint64_t>* words,
                    std::string_view key) {
  std::size_t i = 0;
  for (; i + 8 <= key.size(); i += 8) {
    std::uint64_t k;
    std::memcpy(&k, key.data() + i, 8);
    if (words[i / 8].load(std::memory_order_relaxed) != k) return false;
  }
  if (i == key.size()) return true;
  const std::uint64_t w = words[i / 8].load(std::memory_order_relaxed);
  return std::memcmp(&w, key.data() + i, key.size() - i) == 0;
}

/// Word counts of the inline size classes for items of up to `max_bytes`
/// of key and value words, then the out-of-line class's one word. Odd counts put
/// an entry (a 48-byte header plus its words) at 8 mod 16 bytes, the size
/// glibc's malloc serves without padding; classes grow by half from 7.
std::vector<std::uint32_t> SizeClasses(std::size_t max_bytes) {
  const std::size_t max_words = WordsFor(max_bytes);
  std::vector<std::uint32_t> words;
  for (std::size_t w = 1;; w = w < 7 ? w + 2 : (w * 3 / 2) | 1) {
    if (w >= max_words) {
      words.push_back(static_cast<std::uint32_t>(max_words | 1));
      break;
    }
    words.push_back(static_cast<std::uint32_t>(w));
  }
  words.push_back(1);
  return words;
}

char* Block(const std::atomic<std::uint64_t>* words) {
  return reinterpret_cast<char*>(static_cast<std::uintptr_t>(
      words[0].load(std::memory_order_relaxed)));
}

}  // namespace

bool ApplyDelta(std::string& value, const DeltaOp& delta,
                std::uint64_t* count) {
  switch (delta.kind) {
    case DeltaOp::Kind::kAppend:
      value.append(delta.blob);
      return true;
    case DeltaOp::Kind::kPrepend:
      value.insert(0, delta.blob);
      return true;
    case DeltaOp::Kind::kIncr:
    case DeltaOp::Kind::kDecr:
      break;
  }
  std::uint64_t n = 0;
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, n);
  if (ec != std::errc{} || ptr != end) return false;
  n = delta.kind == DeltaOp::Kind::kIncr ? n + delta.amount
      : n >= delta.amount                ? n - delta.amount
                                         : 0;
  value = std::to_string(n);
  if (count != nullptr) *count = n;
  return true;
}

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
      opt_val_cap_(std::min<std::size_t>(
          config.optimistic_value_cap,
          std::numeric_limits<std::uint32_t>::max() - kOptKeyCap)),
      class_words_(SizeClasses(kOptKeyCap + 8 * WordsFor(opt_val_cap_))),
      out_of_line_(static_cast<std::uint8_t>(class_words_.size() - 1)),
      shards_(config.shard_count > 0 ? config.shard_count : 1),
      opt_counters_(std::make_unique<OptCounters[]>(kCounterSlots)) {
  for (auto& s : shards_) {
    s.free.resize(class_words_.size());
    s.indexes.push_back(std::make_unique<Index>(kInitialIndexCapacity));
    s.index.store(s.indexes.back().get(), std::memory_order_release);
  }
}

CacheStore::~CacheStore() {
  // Every entry is either in its shard's current index or on a free list.
  for (auto& s : shards_) {
    Index* t = s.index.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < t->capacity; ++i) {
      Entry* e = t->slots[i].load(std::memory_order_relaxed);
      if (e == nullptr) continue;
      if (OutOfLine(*e)) delete[] Block(e->words());
      ::operator delete(e);
    }
    for (auto& free : s.free) {
      for (Entry* e : free) ::operator delete(e);
    }
  }
}

CacheStore::ShardGuard CacheStore::LockKey(std::string_view key) {
  std::size_t idx = ShardIndexFor(key);
  return ShardGuard(std::unique_lock(shards_[idx].mu), idx);
}

CacheStore::ShardGuard CacheStore::LockShard(std::size_t index) const {
  return ShardGuard(std::unique_lock(shards_[index].mu), index);
}

std::size_t CacheStore::ItemBytes(const Entry& e) {
  return ItemBytes(e.key_len.load(std::memory_order_relaxed),
                   e.val_len.load(std::memory_order_relaxed));
}

// ---- entries (all under the shard lock) -------------------------------------

std::uint8_t CacheStore::ClassFor(std::size_t key_len,
                                  std::size_t value_len) const {
  if (key_len > kOptKeyCap || value_len > opt_val_cap_) return out_of_line_;
  const std::size_t words = WordsFor(key_len) + WordsFor(value_len);
  std::uint8_t cls = 0;
  while (class_words_[cls] < words) ++cls;
  return cls;
}

CacheStore::Entry* CacheStore::NewEntryLocked(Shard& s, std::uint8_t cls) {
  std::vector<Entry*>& free = s.free[cls];
  if (!free.empty()) {
    Entry* e = free.back();
    free.pop_back();
    return e;
  }
  const std::size_t words = class_words_[cls];
  auto* raw = static_cast<std::byte*>(
      ::operator new(sizeof(Entry) + words * sizeof(std::uint64_t)));
  Entry* e = new (raw) Entry;
  e->cls = cls;
  for (std::size_t i = 0; i < words; ++i) {
    new (raw + sizeof(Entry) + i * sizeof(std::uint64_t))
        std::atomic<std::uint64_t>(0);
  }
  return e;
}

void CacheStore::KillLocked(Shard& s, Entry* e) {
  // Left odd: a reader holding this pointer (directly or through a retired
  // index) can never validate, even after the entry is recycled.
  SeqBegin(*e);
  if (OutOfLine(*e)) {
    delete[] Block(e->words());
    e->words()[0].store(0, std::memory_order_relaxed);
  }
  s.free[e->cls].push_back(e);
}

std::string CacheStore::KeyOf(const Entry& e) const {
  std::string key(e.key_len.load(std::memory_order_relaxed), '\0');
  if (OutOfLine(e)) {
    std::memcpy(key.data(), Block(e.words()), key.size());
  } else {
    LoadWords(e.words(), key.data(), key.size());
  }
  return key;
}

std::string CacheStore::ValueOf(const Entry& e) const {
  const std::size_t key_len = e.key_len.load(std::memory_order_relaxed);
  std::string value(e.val_len.load(std::memory_order_relaxed), '\0');
  if (OutOfLine(e)) {
    std::memcpy(value.data(), Block(e.words()) + key_len, value.size());
  } else {
    LoadWords(e.words() + WordsFor(key_len), value.data(), value.size());
  }
  return value;
}

bool CacheStore::KeyEquals(const Entry& e, std::string_view key) const {
  if (e.key_len.load(std::memory_order_relaxed) != key.size()) return false;
  if (OutOfLine(e)) {
    return std::memcmp(Block(e.words()), key.data(), key.size()) == 0;
  }
  return WordsStartWith(e.words(), key);
}

bool CacheStore::ExpiredLocked(const Entry& e) const {
  const Nanos expires = e.expires_at.load(std::memory_order_relaxed);
  return expires != 0 && clock_.Now() >= expires;
}

// ---- the index (all under the shard lock) ------------------------------------

std::size_t CacheStore::FindLocked(Shard& s, std::string_view key,
                                   std::uint64_t h) const {
  Index* t = s.index.load(std::memory_order_relaxed);
  for (std::uint64_t i = MixHash(h);; ++i) {
    const std::size_t slot = i & t->mask;
    const Entry* e = t->slots[slot].load(std::memory_order_relaxed);
    if (e == nullptr) return kNoSlot;
    if (e->hash.load(std::memory_order_relaxed) == h && KeyEquals(*e, key)) {
      return slot;
    }
  }
}

std::size_t CacheStore::FindLive(Shard& s, std::string_view key,
                                 std::uint64_t h) {
  const std::size_t slot = FindLocked(s, key, h);
  if (slot == kNoSlot) return kNoSlot;
  if (ExpiredLocked(EntryAt(s, slot))) {
    EraseLocked(s, slot);
    ++s.stats.expirations;
    return kNoSlot;
  }
  return slot;
}

void CacheStore::GrowIfFullLocked(Shard& s) {
  Index* t = s.index.load(std::memory_order_relaxed);
  if ((s.live + 1) * 4 <= t->capacity * 3) return;
  auto grown = std::make_unique<Index>(t->capacity * 2);
  for (std::size_t j = 0; j < t->capacity; ++j) {
    Entry* x = t->slots[j].load(std::memory_order_relaxed);
    if (x == nullptr) continue;
    for (std::uint64_t i = MixHash(x->hash.load(std::memory_order_relaxed));;
         ++i) {
      auto& slot = grown->slots[i & grown->mask];
      if (slot.load(std::memory_order_relaxed) == nullptr) {
        slot.store(x, std::memory_order_relaxed);
        break;
      }
    }
  }
  // Publish, retiring the old index in place: a reader holding it stays
  // memory-safe and at worst misses a fresh key and falls back.
  s.indexes.push_back(std::move(grown));
  s.index.store(s.indexes.back().get(), std::memory_order_release);
}

std::size_t CacheStore::InsertLocked(Shard& s, Entry* e, std::uint64_t h) {
  Index* t = s.index.load(std::memory_order_relaxed);
  for (std::uint64_t i = MixHash(h);; ++i) {
    const std::size_t slot = i & t->mask;
    if (t->slots[slot].load(std::memory_order_relaxed) == nullptr) {
      t->slots[slot].store(e, std::memory_order_release);
      ++s.live;
      return slot;
    }
  }
}

void CacheStore::EraseLocked(Shard& s, std::size_t slot) {
  Index* t = s.index.load(std::memory_order_relaxed);
  Entry* e = t->slots[slot].load(std::memory_order_relaxed);
  s.bytes -= ItemBytes(*e);
  --s.live;
  KillLocked(s, e);
  // Backward-shift deletion: pull each later entry of the probe run that
  // may sit in the hole (its home is not between the hole and it) back
  // into it, then empty the last hole. Each move is a release store of an
  // already-published entry; a reader that passes the hole before a move
  // and the entry's old slot after it misses the key and falls back.
  std::size_t hole = slot;
  for (std::size_t j = (slot + 1) & t->mask;; j = (j + 1) & t->mask) {
    Entry* x = t->slots[j].load(std::memory_order_relaxed);
    if (x == nullptr) break;
    const std::size_t home =
        MixHash(x->hash.load(std::memory_order_relaxed)) & t->mask;
    if (((j - hole) & t->mask) <= ((j - home) & t->mask)) {
      t->slots[hole].store(x, std::memory_order_release);
      hole = j;
    }
  }
  t->slots[hole].store(nullptr, std::memory_order_release);
}

// ---- writes and eviction ------------------------------------------------------

void CacheStore::WriteLocked(Shard& s, std::uint64_t h, std::size_t slot,
                             std::string_view key, std::string_view value,
                             std::uint32_t flags, Nanos expires_at) {
  // Everything that allocates comes first, so a failed allocation leaves
  // the shard as it was.
  const std::uint8_t cls = ClassFor(key.size(), value.size());
  std::unique_ptr<char[]> block;
  if (cls == out_of_line_) {
    block = std::make_unique_for_overwrite<char[]>(key.size() + value.size());
    std::copy(key.begin(), key.end(), block.get());
    std::copy(value.begin(), value.end(), block.get() + key.size());
  }
  if (slot == kNoSlot) GrowIfFullLocked(s);
  Index* t = s.index.load(std::memory_order_relaxed);
  Entry* old =
      slot == kNoSlot ? nullptr : t->slots[slot].load(std::memory_order_relaxed);
  Entry* e = old != nullptr && old->cls == cls ? old : NewEntryLocked(s, cls);
  if (old != nullptr) s.bytes -= ItemBytes(*old);
  SeqBegin(*e);
  e->hash.store(h, std::memory_order_relaxed);
  e->cas.store(cas_counter_.fetch_add(1, std::memory_order_relaxed),
               std::memory_order_relaxed);
  e->expires_at.store(expires_at, std::memory_order_relaxed);
  e->flags.store(flags, std::memory_order_relaxed);
  e->key_len.store(static_cast<std::uint32_t>(key.size()),
                   std::memory_order_relaxed);
  e->val_len.store(static_cast<std::uint32_t>(value.size()),
                   std::memory_order_relaxed);
  if (block != nullptr) {
    delete[] Block(e->words());  // the overwritten item's, if in place
    e->words()[0].store(reinterpret_cast<std::uintptr_t>(block.release()),
                        std::memory_order_relaxed);
  } else {
    StoreWords(e->words(), key);
    StoreWords(e->words() + WordsFor(key.size()), value);
  }
  SeqEnd(*e);
  // A write counts as an access, and an insert is referenced from birth
  // because it may land just ahead of the hand.
  e->referenced.store(true, std::memory_order_relaxed);
  if (old == nullptr) {
    slot = InsertLocked(s, e, h);
  } else if (e != old) {
    t->slots[slot].store(e, std::memory_order_release);
    KillLocked(s, old);
  }
  s.bytes += ItemBytes(key.size(), value.size());
  EvictIfNeededLocked(s, slot);
}

void CacheStore::StoreLocked(Shard& s, std::uint64_t h, std::size_t slot,
                             std::string_view key, std::string_view value,
                             std::uint32_t flags, Nanos ttl) {
  WriteLocked(s, h, slot, key, value, flags,
              ttl > 0 ? SaturatingAdd(clock_.Now(), ttl) : 0);
}

void CacheStore::EvictIfNeededLocked(Shard& s, std::size_t written) {
  if (per_shard_budget_ == 0 || s.bytes <= per_shard_budget_) return;
  // The written item starts referenced, so the sweep would take other items
  // until its hand reached it; one that cannot fit goes at once, alone.
  if (ItemBytes(EntryAt(s, written)) > per_shard_budget_) {
    EraseLocked(s, written);
    ++s.stats.evictions;
  }
  // One lap of second chances per eviction run: without a bound, readers
  // re-setting bits during the sweep could keep every item referenced.
  std::size_t chances = s.live;
  while (s.bytes > per_shard_budget_ && s.live > 0) {
    EraseLocked(s, ClockVictimLocked(s, chances));
    ++s.stats.evictions;
  }
}

std::size_t CacheStore::ClockVictimLocked(Shard& s, std::size_t& chances) {
  const Index* t = s.index.load(std::memory_order_relaxed);
  for (;; ++s.clock_hand) {
    const std::size_t slot = s.clock_hand & t->mask;
    Entry* e = t->slots[slot].load(std::memory_order_relaxed);
    if (e == nullptr) continue;
    if (e->referenced.exchange(false, std::memory_order_relaxed) &&
        chances > 0) {
      --chances;
      continue;
    }
    // The hand stays on the victim's slot: erasing it may shift the next
    // entry of its probe run into it.
    return slot;
  }
}

// ---- public command set ----------------------------------------------------

std::optional<CacheItem> CacheStore::Get(std::string_view key) {
  const std::uint64_t h = HashKey(key);
  if (auto hit = OptimisticGet(key, h)) return hit;
  Shard& s = shards_[h % shards_.size()];
  std::lock_guard lock(s.mu);
  return GetLocked(s, key, h);
}

std::optional<CacheItem> CacheStore::GetLocked(Shard& s, std::string_view key,
                                               std::uint64_t h) {
  ++s.stats.gets;
  const std::size_t slot = FindLive(s, key, h);
  if (slot == kNoSlot) {
    ++s.stats.get_misses;
    return std::nullopt;
  }
  ++s.stats.get_hits;
  Entry& e = EntryAt(s, slot);
  e.referenced.store(true, std::memory_order_relaxed);
  return CacheItem{ValueOf(e), e.flags.load(std::memory_order_relaxed),
                   e.cas.load(std::memory_order_relaxed)};
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
  const Index* t = s.index.load(std::memory_order_acquire);
  // The probe ends where the locked one does, at an empty slot, which an
  // index at most 3/4 full always has; the capacity bound only stops a
  // probe that races writers moving entries.
  for (std::uint64_t i = MixHash(h), n = 0; n < t->capacity; ++i, ++n) {
    Entry* e = t->slots[i & t->mask].load(std::memory_order_acquire);
    if (e == nullptr) break;  // not indexed: the locked path decides hit/miss
    // An entry's hash changes only when it is recycled, which a version
    // change reveals, so this unvalidated load only skips other keys.
    if (e->hash.load(std::memory_order_relaxed) != h) continue;
    const std::uint64_t v1 = e->version.load(std::memory_order_acquire);
    if (v1 & 1) {  // writer mid-update or dead entry: bounce, never spin
      ThreadOptCounters().fallbacks.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    // The loads below may be torn until the version is validated; any
    // decision they feed ends in "keep probing" or "fall back to the locked
    // path", never a wrong answer, and every copy stays inside the entry's
    // class capacity.
    const std::uint32_t klen = e->key_len.load(std::memory_order_relaxed);
    if (klen != key.size()) continue;
    if (OutOfLine(*e)) {  // a value the lock-free path does not serve
      ThreadOptCounters().fallbacks.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    const std::size_t capacity = class_words_[e->cls];  // in words
    const std::size_t key_words = WordsFor(klen);
    if (key_words > capacity || !WordsStartWith(e->words(), key)) continue;
    const std::uint32_t vlen = e->val_len.load(std::memory_order_relaxed);
    const std::uint32_t flags = e->flags.load(std::memory_order_relaxed);
    const std::uint64_t cas = e->cas.load(std::memory_order_relaxed);
    const Nanos expires = e->expires_at.load(std::memory_order_relaxed);
    const bool fits = WordsFor(vlen) <= capacity - key_words;  // else torn
    CacheItem out;
    if (fits) {
      out.value.resize(vlen);
      LoadWords(e->words() + key_words, out.value.data(), vlen);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (!fits || e->version.load(std::memory_order_relaxed) != v1) {
      ThreadOptCounters().fallbacks.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;  // raced a writer; the locked path settles it
    }
    // Snapshot is consistent as of v1.
    if (expires != 0 && clock_.Now() >= expires) {
      // TTL hits are served (and expired) by the locked path.
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
  return std::nullopt;  // not indexed, or raced: the locked path decides
}

StoreResult CacheStore::Set(std::string_view key, std::string_view value,
                            std::uint32_t flags, Nanos ttl) {
  const std::uint64_t h = HashKey(key);
  Shard& s = shards_[h % shards_.size()];
  std::lock_guard lock(s.mu);
  ++s.stats.sets;
  StoreLocked(s, h, FindLocked(s, key, h), key, value, flags, ttl);
  return StoreResult::kStored;
}

StoreResult CacheStore::Add(std::string_view key, std::string_view value,
                            std::uint32_t flags, Nanos ttl) {
  const std::uint64_t h = HashKey(key);
  Shard& s = shards_[h % shards_.size()];
  std::lock_guard lock(s.mu);
  ++s.stats.sets;
  if (FindLive(s, key, h) != kNoSlot) return StoreResult::kNotStored;
  StoreLocked(s, h, kNoSlot, key, value, flags, ttl);
  return StoreResult::kStored;
}

StoreResult CacheStore::Replace(std::string_view key, std::string_view value,
                                std::uint32_t flags, Nanos ttl) {
  const std::uint64_t h = HashKey(key);
  Shard& s = shards_[h % shards_.size()];
  std::lock_guard lock(s.mu);
  ++s.stats.sets;
  const std::size_t slot = FindLive(s, key, h);
  if (slot == kNoSlot) return StoreResult::kNotStored;
  StoreLocked(s, h, slot, key, value, flags, ttl);
  return StoreResult::kStored;
}

StoreResult CacheStore::Cas(std::string_view key, std::string_view value,
                            std::uint64_t cas, std::uint32_t flags, Nanos ttl) {
  const std::uint64_t h = HashKey(key);
  Shard& s = shards_[h % shards_.size()];
  std::lock_guard lock(s.mu);
  ++s.stats.cas_ops;
  const std::size_t slot = FindLive(s, key, h);
  if (slot == kNoSlot) return StoreResult::kNotFound;
  const Entry& e = EntryAt(s, slot);
  if (e.cas.load(std::memory_order_relaxed) != cas) {
    ++s.stats.cas_mismatches;
    return StoreResult::kExists;
  }
  StoreLocked(s, h, slot, key, value, flags, ttl);
  return StoreResult::kStored;
}

bool CacheStore::Delete(std::string_view key) {
  const std::uint64_t h = HashKey(key);
  Shard& s = shards_[h % shards_.size()];
  std::lock_guard lock(s.mu);
  ++s.stats.deletes;
  const std::size_t slot = FindLive(s, key, h);
  if (slot == kNoSlot) return false;
  EraseLocked(s, slot);
  ++s.stats.delete_hits;
  return true;
}

// Append, Prepend, Incr and Decr rewrite the whole item through
// UpdateLocked.

StoreResult CacheStore::Append(std::string_view key, std::string_view suffix) {
  return UpdateLocked(LockKey(key), key,
                      {DeltaOp::Kind::kAppend, std::string(suffix), 0})
             ? StoreResult::kStored
             : StoreResult::kNotStored;
}

StoreResult CacheStore::Prepend(std::string_view key, std::string_view prefix) {
  return UpdateLocked(LockKey(key), key,
                      {DeltaOp::Kind::kPrepend, std::string(prefix), 0})
             ? StoreResult::kStored
             : StoreResult::kNotStored;
}

std::optional<std::uint64_t> CacheStore::Incr(std::string_view key,
                                              std::uint64_t delta) {
  return Count(key, {DeltaOp::Kind::kIncr, {}, delta});
}

std::optional<std::uint64_t> CacheStore::Decr(std::string_view key,
                                              std::uint64_t delta) {
  return Count(key, {DeltaOp::Kind::kDecr, {}, delta});
}

std::optional<std::uint64_t> CacheStore::Count(std::string_view key,
                                               const DeltaOp& delta) {
  std::uint64_t count = 0;
  if (!UpdateLocked(LockKey(key), key, delta, &count)) return std::nullopt;
  return count;
}

void CacheStore::Flush() {
  for (auto& s : shards_) {
    std::lock_guard lock(s.mu);
    Index* t = s.index.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < t->capacity; ++i) {
      Entry* e = t->slots[i].load(std::memory_order_relaxed);
      if (e == nullptr) continue;
      KillLocked(s, e);
      t->slots[i].store(nullptr, std::memory_order_release);
    }
    s.live = 0;
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
    total.item_count += s.live;
  }
  return total;
}

std::string CacheStore::CheckInvariants() {
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& s = shards_[si];
    std::lock_guard lock(s.mu);
    const std::string where = "shard " + std::to_string(si) + ": ";
    const Index* t = s.index.load(std::memory_order_relaxed);
    std::size_t live = 0;
    std::size_t bytes = 0;
    for (std::size_t slot = 0; slot < t->capacity; ++slot) {
      const Entry* e = t->slots[slot].load(std::memory_order_relaxed);
      if (e == nullptr) continue;
      ++live;
      if (e->version.load(std::memory_order_relaxed) & 1) {
        return where + "dead entry in index slot " + std::to_string(slot);
      }
      const std::string key = KeyOf(*e);
      const std::uint64_t h = e->hash.load(std::memory_order_relaxed);
      if (h != HashKey(key)) return where + "hash mismatch for '" + key + "'";
      if (FindLocked(s, key, h) != slot) {
        return where + "a probe for '" + key + "' does not reach its entry";
      }
      const std::size_t vlen = e->val_len.load(std::memory_order_relaxed);
      if (e->cls != ClassFor(key.size(), vlen)) {
        return where + "'" + key + "' is in size class " +
               std::to_string(e->cls) + ", not " +
               std::to_string(ClassFor(key.size(), vlen));
      }
      bytes += ItemBytes(*e);
    }
    if (live != s.live) {
      return where + "live count drift: counted " + std::to_string(live) +
             " recorded " + std::to_string(s.live);
    }
    if (bytes != s.bytes) {
      return where + "bytes accounting drift: counted " + std::to_string(bytes) +
             " recorded " + std::to_string(s.bytes);
    }
    for (std::size_t cls = 0; cls < s.free.size(); ++cls) {
      for (const Entry* e : s.free[cls]) {
        if (e->cls != cls || !(e->version.load(std::memory_order_relaxed) & 1)) {
          return where + "free list " + std::to_string(cls) +
                 " holds a live or misfiled entry";
        }
      }
    }
  }
  return "";
}

// ---- Locked extension API --------------------------------------------------

std::optional<CacheItem> CacheStore::GetLocked(const ShardGuard& g,
                                               std::string_view key) {
  return GetLocked(shards_[g.shard_index()], key, HashKey(key));
}

StoreResult CacheStore::SetLocked(const ShardGuard& g, std::string_view key,
                                  std::string_view value, std::uint32_t flags,
                                  Nanos ttl) {
  Shard& s = shards_[g.shard_index()];
  ++s.stats.sets;
  const std::uint64_t h = HashKey(key);
  StoreLocked(s, h, FindLocked(s, key, h), key, value, flags, ttl);
  return StoreResult::kStored;
}

bool CacheStore::DeleteLocked(const ShardGuard& g, std::string_view key) {
  Shard& s = shards_[g.shard_index()];
  ++s.stats.deletes;
  const std::size_t slot = FindLive(s, key, HashKey(key));
  if (slot == kNoSlot) return false;
  EraseLocked(s, slot);
  ++s.stats.delete_hits;
  return true;
}

bool CacheStore::UpdateLocked(const ShardGuard& g, std::string_view key,
                              const DeltaOp& delta, std::uint64_t* count) {
  Shard& s = shards_[g.shard_index()];
  ++(delta.kind == DeltaOp::Kind::kAppend    ? s.stats.appends
     : delta.kind == DeltaOp::Kind::kPrepend ? s.stats.prepends
                                             : s.stats.incr_decrs);
  const std::uint64_t h = HashKey(key);
  const std::size_t slot = FindLive(s, key, h);
  if (slot == kNoSlot) return false;
  const Entry& e = EntryAt(s, slot);
  std::string value = ValueOf(e);
  if (!ApplyDelta(value, delta, count)) return false;
  WriteLocked(s, h, slot, key, value, e.flags.load(std::memory_order_relaxed),
              e.expires_at.load(std::memory_order_relaxed));
  return true;
}

bool CacheStore::ContainsLocked(const ShardGuard& g, std::string_view key) {
  Shard& s = shards_[g.shard_index()];
  return FindLive(s, key, HashKey(key)) != kNoSlot;
}

}  // namespace iq
