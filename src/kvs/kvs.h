// An in-process key-value store equivalent to Twitter memcached
// (Twemcache 2.5.3) as used by the paper: get/set/add/replace/cas/delete/
// append/prepend/incr/decr over byte-string values, with CLOCK (approximate
// LRU) eviction under a byte budget, optional TTLs, and per-op statistics.
//
// The store is sharded; each shard owns a mutex, an index of its items, and
// a CLOCK hand. The IQ-Server (src/core/iq_server.h) composes on top of this
// class through the Locked* API: it takes the shard lock once, consults its
// lease table, and manipulates items under the same critical section —
// exactly how the paper's lease code is woven into Twemcache's item module.
//
// Each item is stored once, in a seqlock-versioned entry that a lock-free
// open-addressing index reaches (DESIGN.md §4.6). Writers and the locked
// path work on the entries and the index under the shard lock; read hits
// additionally have a mutex-free path (OptimisticGet) that copies the value
// under seqlock validation and falls back to the locked path whenever
// validation fails.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"
#include "util/counters.h"

namespace iq {

/// Result of a mutating KVS command, mirroring memcached reply semantics.
enum class StoreResult {
  kStored,     // value written
  kNotStored,  // add on existing key / replace-append-prepend on missing key
  kExists,     // cas version mismatch
  kNotFound,   // cas/delete/incr on missing key
  kTransportError,  // remote backend only: the command may or may not have
                    // reached the server (CacheStore never returns this)
};

const char* ToString(StoreResult r);

/// A cached item as returned to callers.
struct CacheItem {
  std::string value;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;  // unique version; changes on every write
};

/// An append, prepend, incr or decr: memcached's delta verbs, as
/// CacheStore applies them and as the IQ server buffers them under a
/// Q(refresh) lease (the paper's IQ-delta command).
struct DeltaOp {
  enum class Kind { kAppend, kPrepend, kIncr, kDecr };
  Kind kind;
  std::string blob;          // kAppend / kPrepend payload
  std::uint64_t amount = 0;  // kIncr / kDecr amount
};

/// memcached's arithmetic for `delta`, applied to `value` in place. Append
/// and prepend add the blob. Incr and decr read the value as an ASCII
/// unsigned integer and write back the sum or difference (decr saturates at
/// 0), also into `*count` when given; they leave a value that is not such a
/// number alone and return false.
bool ApplyDelta(std::string& value, const DeltaOp& delta,
                std::uint64_t* count = nullptr);

/// Aggregate statistics (monotonic counters). Optimistic (mutex-free) read
/// hits are folded into gets/get_hits and also reported separately.
struct CacheStats {
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t get_misses = 0;
  std::uint64_t sets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t delete_hits = 0;
  std::uint64_t cas_ops = 0;
  std::uint64_t cas_mismatches = 0;
  std::uint64_t appends = 0;
  std::uint64_t prepends = 0;
  std::uint64_t incr_decrs = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expirations = 0;
  std::uint64_t flushes = 0;
  std::uint64_t opt_hits = 0;       // read hits served without the shard lock
  std::uint64_t opt_fallbacks = 0;  // optimistic attempts that bounced to the
                                    // locked path (contention/oversize/expiry)
  std::uint64_t bytes_used = 0;  // snapshot, not monotonic
  std::uint64_t item_count = 0;  // snapshot, not monotonic
};

inline constexpr CounterField<CacheStats> kCacheStatsFields[] = {
    {"gets", &CacheStats::gets},
    {"get_hits", &CacheStats::get_hits},
    {"get_misses", &CacheStats::get_misses},
    {"sets", &CacheStats::sets},
    {"deletes", &CacheStats::deletes},
    {"delete_hits", &CacheStats::delete_hits},
    {"cas_ops", &CacheStats::cas_ops},
    {"cas_mismatches", &CacheStats::cas_mismatches},
    {"appends", &CacheStats::appends},
    {"prepends", &CacheStats::prepends},
    {"incr_decrs", &CacheStats::incr_decrs},
    {"evictions", &CacheStats::evictions},
    {"expirations", &CacheStats::expirations},
    {"flushes", &CacheStats::flushes},
    {"opt_hits", &CacheStats::opt_hits},
    {"opt_fallbacks", &CacheStats::opt_fallbacks},
    {"bytes_used", &CacheStats::bytes_used},
    {"item_count", &CacheStats::item_count},
};
static_assert(CoversEveryField(kCacheStatsFields));

class CacheStore {
 public:
  /// Keys longer than this are never served by optimistic reads; their
  /// items are stored out of line and read by the locked path.
  static constexpr std::size_t kOptKeyCap = 64;

  struct Config {
    std::size_t shard_count = 16;
    /// Total memory budget across shards; 0 disables eviction. A write
    /// whose item alone exceeds its shard's share is evicted at once, and
    /// nothing else is.
    std::size_t memory_budget_bytes = 0;
    /// Clock used for TTL expiry. Defaults to the process steady clock.
    const Clock* clock = nullptr;
    /// Largest value (bytes) served by the mutex-free optimistic read path;
    /// larger values are stored out of line and always go through the
    /// locked path. 0 disables optimistic reads entirely (A/B baseline).
    std::size_t optimistic_value_cap = 256;
  };

  CacheStore();
  explicit CacheStore(Config config);
  ~CacheStore();

  CacheStore(const CacheStore&) = delete;
  CacheStore& operator=(const CacheStore&) = delete;

  // ---- memcached command set -------------------------------------------

  /// get: returns the item, or nullopt on miss/expiry. Tries the
  /// optimistic mutex-free path first, then the locked path.
  std::optional<CacheItem> Get(std::string_view key);

  /// Mutex-free read hit: locate `key` through the lock-free index, copy
  /// its entry's value under seqlock validation, and return it. Returns
  /// nullopt whenever the answer must come from the locked path instead —
  /// true miss, oversize value, long key, concurrent write, TTL expiry, or
  /// optimistic reads disabled. Never blocks and never takes the shard
  /// mutex. A hit sets the entry's CLOCK bit, only when it is clear, and
  /// counts itself in the calling thread's own counter slot.
  std::optional<CacheItem> OptimisticGet(std::string_view key);
  std::optional<CacheItem> OptimisticGet(std::string_view key,
                                         std::uint64_t hash);

  /// set: unconditional store.
  StoreResult Set(std::string_view key, std::string_view value,
                  std::uint32_t flags = 0, Nanos ttl = 0);

  /// add: store only if the key does not exist.
  StoreResult Add(std::string_view key, std::string_view value,
                  std::uint32_t flags = 0, Nanos ttl = 0);

  /// replace: store only if the key exists.
  StoreResult Replace(std::string_view key, std::string_view value,
                      std::uint32_t flags = 0, Nanos ttl = 0);

  /// cas: store only if the caller's version matches the current one.
  StoreResult Cas(std::string_view key, std::string_view value,
                  std::uint64_t cas, std::uint32_t flags = 0, Nanos ttl = 0);

  /// delete: returns true if the key existed.
  bool Delete(std::string_view key);

  /// append/prepend: extend an existing value; kNotStored on miss.
  StoreResult Append(std::string_view key, std::string_view suffix);
  StoreResult Prepend(std::string_view key, std::string_view prefix);

  /// incr/decr: treat the value as an ASCII unsigned integer. Returns the
  /// new value, or nullopt if the key is missing or non-numeric. decr
  /// saturates at 0 (memcached semantics). Counts as an access for CLOCK,
  /// and re-checks the byte budget (a growing counter can evict).
  std::optional<std::uint64_t> Incr(std::string_view key, std::uint64_t delta);
  std::optional<std::uint64_t> Decr(std::string_view key, std::uint64_t delta);

  /// flush_all: drop every item.
  void Flush();

  CacheStats Stats() const;

  /// Structural self-check, taking each shard lock in turn: per-shard byte
  /// and item accounting (shard.bytes == Σ ItemBytes over live items), every
  /// indexed entry live, found by a probe for its own key and stored in the
  /// size class its key and value need, and every free entry dead.
  /// Returns an empty string when consistent, else a description of the
  /// first violation. Meant for tests and debug assertions, not the hot path.
  std::string CheckInvariants();

  bool optimistic_enabled() const { return opt_val_cap_ > 0; }

  // ---- extension API for the IQ server ---------------------------------
  //
  // LockKey returns a guard holding the shard mutex for `key`; the Locked*
  // calls below require that guard and run without further locking. Two
  // keys on the same shard are serialized by construction.

  class ShardGuard {
   public:
    ShardGuard(ShardGuard&&) = default;
    std::size_t shard_index() const { return index_; }

   private:
    friend class CacheStore;
    ShardGuard(std::unique_lock<std::mutex> lock, std::size_t index)
        : lock_(std::move(lock)), index_(index) {}
    std::unique_lock<std::mutex> lock_;
    std::size_t index_;
  };

  ShardGuard LockKey(std::string_view key);
  /// Lock a shard directly by index (maintenance sweeps, stats
  /// aggregation). const: locking mutates only the mutable shard mutex.
  ShardGuard LockShard(std::size_t index) const;
  /// The hash used for shard selection and the item index.
  static std::uint64_t HashKey(std::string_view key) {
    return std::hash<std::string_view>{}(key);
  }
  std::size_t ShardIndexFor(std::string_view key) const {
    return HashKey(key) % shards_.size();
  }
  std::size_t ShardIndexForHash(std::uint64_t hash) const {
    return hash % shards_.size();
  }
  std::size_t shard_count() const { return shards_.size(); }

  std::optional<CacheItem> GetLocked(const ShardGuard& g, std::string_view key);
  StoreResult SetLocked(const ShardGuard& g, std::string_view key,
                        std::string_view value, std::uint32_t flags = 0,
                        Nanos ttl = 0);
  bool DeleteLocked(const ShardGuard& g, std::string_view key);
  bool ContainsLocked(const ShardGuard& g, std::string_view key);
  /// append/prepend/incr/decr under the shard lock, the one body of all
  /// four verbs: rewrites key's item with `delta` applied (ApplyDelta) and
  /// a fresh cas, keeping its flags and expiry, and counts the verb. Returns
  /// false, changing nothing, on a miss or a non-numeric incr/decr.
  bool UpdateLocked(const ShardGuard& g, std::string_view key,
                    const DeltaOp& delta, std::uint64_t* count = nullptr);

 private:
  // ---- item storage (see DESIGN.md §4.6) ---------------------------------
  //
  // Each item is one Entry: the header below followed by its size class's
  // atomic 64-bit words, which hold the key bytes and then, from the next
  // word on, the value bytes. An item the lock-free path refuses anyway
  // (key longer than kOptKeyCap, value longer than optimistic_value_cap) is
  // out of line: its one word holds the address of a heap block of key and
  // value bytes that only the locked path reads, and that dies with the
  // item. Lengths are 32-bit.
  //
  // Entries are allocated per shard and NEVER freed while the store lives:
  // a dead entry goes to its class's free list and is recycled, so a
  // lock-free reader can always dereference a pointer it loaded from the
  // index. At worst the entry now holds a different key or a write in
  // progress, which the version validation rejects. Every field a reader
  // loads is an atomic accessed relaxed under the seqlock fences, keeping
  // the protocol TSan-clean (same idiom as util/trace_ring.h).
  //
  // Version protocol: even = stable, odd = writer in progress or dead.
  //   writer (under the shard lock): version -> odd; release fence; store
  //     fields relaxed; version -> even (release).
  //   reader: v1 = version (acquire); if odd give up; load fields relaxed;
  //     acquire fence; v2 = version (relaxed); accept iff v1 == v2.
  // Death just leaves the version odd; reuse continues the same counter, so
  // a reader holding a stale pointer can never validate across a recycle.
  // A write that needs another class fills a fresh entry, swings the index
  // slot to it, then kills the old one.
  struct Entry {
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> hash{0};  // HashKey(key)
    std::atomic<std::uint64_t> cas{0};
    std::atomic<std::int64_t> expires_at{0};  // 0 = never
    std::atomic<std::uint32_t> flags{0};
    std::atomic<std::uint32_t> key_len{0};
    std::atomic<std::uint32_t> val_len{0};
    /// The CLOCK bit: set by writes and locked hits, and by lock-free hits
    /// while it is clear.
    std::atomic<bool> referenced{false};
    std::uint8_t cls = 0;  // size class, fixed for the entry's lifetime

    std::atomic<std::uint64_t>* words() {
      return std::launder(reinterpret_cast<std::atomic<std::uint64_t>*>(
          reinterpret_cast<std::byte*>(this) + sizeof(Entry)));
    }
    const std::atomic<std::uint64_t>* words() const {
      return const_cast<Entry*>(this)->words();
    }
  };
  static_assert(sizeof(Entry) == 48);

  /// Per-shard open-addressing index, hash -> Entry*, probed linearly from
  /// a mixed hash. Writers mutate slots under the shard lock and erase by
  /// shifting the rest of a probe run back (no tombstones); readers probe
  /// with acquire loads, and one that misses an entry while it moves just
  /// falls back to the locked path. A grown index is published with a
  /// release store; retired ones are kept until destruction so a reader
  /// holding the old pointer stays memory-safe.
  struct Index {
    explicit Index(std::size_t cap)
        : capacity(cap),
          mask(cap - 1),
          slots(std::make_unique<std::atomic<Entry*>[]>(cap)) {}
    std::size_t capacity;
    std::uint64_t mask;
    std::unique_ptr<std::atomic<Entry*>[]> slots;
  };

  struct Shard {
    mutable std::mutex mu;
    std::size_t live = 0;        // entries in the index
    std::size_t clock_hand = 0;  // index slot the CLOCK sweep resumes at
    std::size_t bytes = 0;
    CacheStats stats;  // guarded by mu

    // The index pointer and its slots are read lock-free; everything is
    // written only under mu.
    std::atomic<Index*> index{nullptr};
    std::vector<std::unique_ptr<Index>> indexes;  // current + retired
    std::vector<std::vector<Entry*>> free;        // dead entries, per class
  };

  /// Per-thread blocks for the lock-free path's opt_hits and opt_fallbacks
  /// (masstree's threadinfo counters); Stats() sums them. Threads take
  /// slots in the order of their first count, so the first kCounterSlots
  /// threads (a server's workers) each own one; the atomic add (Bump) keeps
  /// a slot exact when a later thread wraps onto it.
  static constexpr std::size_t kCounterSlots = 64;
  CacheStats& ThreadOptCounters();

  /// The smallest class whose words hold key and value, or the out-of-line
  /// class when the lock-free path would refuse the item.
  std::uint8_t ClassFor(std::size_t key_len, std::size_t value_len) const;
  bool OutOfLine(const Entry& e) const { return e.cls == out_of_line_; }
  /// A dead entry of class `cls`, recycled or newly allocated.
  Entry* NewEntryLocked(Shard& s, std::uint8_t cls);
  /// Leaves `e` dead (odd), frees its out-of-line block and files it on
  /// its class's free list. Does not touch the index.
  void KillLocked(Shard& s, Entry* e);
  std::string KeyOf(const Entry& e) const;
  std::string ValueOf(const Entry& e) const;
  bool KeyEquals(const Entry& e, std::string_view key) const;
  bool ExpiredLocked(const Entry& e) const;

  static Entry& EntryAt(const Shard& s, std::size_t slot) {
    return *s.index.load(std::memory_order_relaxed)->slots[slot].load(
        std::memory_order_relaxed);
  }
  /// Index slot of key's entry, or kNoSlot.
  std::size_t FindLocked(Shard& s, std::string_view key, std::uint64_t h) const;
  /// FindLocked, erasing the item first if it has expired.
  std::size_t FindLive(Shard& s, std::string_view key, std::uint64_t h);
  /// get under the shard lock: counts the lookup and sets the hit's bit.
  std::optional<CacheItem> GetLocked(Shard& s, std::string_view key,
                                     std::uint64_t h);
  /// Removes the item in `slot` from the index and kills its entry.
  void EraseLocked(Shard& s, std::size_t slot);
  /// Doubles the index if one more entry would fill it past 3/4.
  void GrowIfFullLocked(Shard& s);
  /// Publishes a new entry in the index, which GrowIfFullLocked has made
  /// room in; returns its slot.
  std::size_t InsertLocked(Shard& s, Entry* e, std::uint64_t h);

  /// incr or decr: the new count, or nullopt.
  std::optional<std::uint64_t> Count(std::string_view key,
                                     const DeltaOp& delta);
  /// Every write (store, append/prepend, incr/decr): writes key's item in
  /// place of the entry in `slot` (kNoSlot: a new item) with a fresh cas,
  /// sets the reference bit, and re-checks the byte budget.
  void WriteLocked(Shard& s, std::uint64_t h, std::size_t slot,
                   std::string_view key, std::string_view value,
                   std::uint32_t flags, Nanos expires_at);
  /// set/add/replace/cas: WriteLocked with an expiry `ttl` from now.
  void StoreLocked(Shard& s, std::uint64_t h, std::size_t slot,
                   std::string_view key, std::string_view value,
                   std::uint32_t flags, Nanos ttl);
  /// Evicts until the shard fits its budget. `written` is the slot of the
  /// item the caller just wrote: one that alone exceeds the budget is the
  /// only victim.
  void EvictIfNeededLocked(Shard& s, std::size_t written);
  /// Sweeps the CLOCK hand to a victim's slot, clearing set bits and
  /// sparing their items while `chances` lasts. Requires a non-empty shard.
  std::size_t ClockVictimLocked(Shard& s, std::size_t& chances);
  /// Nominal bytes an item holds against the budget: key + value + 64, a
  /// fixed overhead for Twemcache's item header and hash/LRU linkage. This
  /// store's measured overhead is about 78 bytes per BG-sized item (122.7
  /// live bytes for 45.2 of key and value in alloc_test's CacheItemBytes):
  /// the entry header, the unused part of its class's words and the index
  /// slots, retired ones included.
  static std::size_t ItemBytes(std::size_t key_len, std::size_t value_len) {
    return key_len + value_len + 64;
  }
  static std::size_t ItemBytes(const Entry& e);

  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  const Clock& clock_;
  std::size_t per_shard_budget_;
  std::size_t opt_val_cap_;  // 0 = optimistic reads disabled
  /// Words of each size class; the last class is out of line.
  std::vector<std::uint32_t> class_words_;
  std::uint8_t out_of_line_;
  std::vector<Shard> shards_;
  std::unique_ptr<CounterBlock<CacheStats>[]> opt_counters_;  // kCounterSlots
  std::atomic<std::uint64_t> cas_counter_{1};
};

}  // namespace iq
