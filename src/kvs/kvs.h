// An in-process key-value store equivalent to Twitter memcached
// (Twemcache 2.5.3) as used by the paper: get/set/add/replace/cas/delete/
// append/prepend/incr/decr over byte-string values, with CLOCK (approximate
// LRU) eviction under a byte budget, optional TTLs, and per-op statistics.
//
// The store is sharded; each shard owns a mutex, a hash table, and a CLOCK
// hand. The IQ-Server (src/core/iq_server.h) composes on top of this class
// through the Locked* API: it takes the shard lock once, consults its lease
// table, and manipulates items under the same critical section — exactly
// how the paper's lease code is woven into Twemcache's item module.
//
// Read hits additionally have a mutex-free path (OptimisticGet): every live
// item with a short key keeps a seqlock-versioned mirror record (OptEntry)
// reachable through a lock-free open-addressing index, so the common
// lease-free read copies the value without touching the shard mutex and
// falls back to the locked path whenever validation fails. Writers maintain
// the mirrors under the existing shard lock. See DESIGN.md §4.6.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/clock.h"

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

/// Transparent (heterogeneous) hash so the shard maps can be probed with a
/// string_view without materializing a std::string per lookup.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  std::size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

class CacheStore {
 public:
  /// Keys longer than this are never mirrored for optimistic reads (they
  /// are served by the locked path, exactly as before).
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
    /// larger values always go through the locked path. 0 disables
    /// optimistic reads entirely (A/B baseline).
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
  /// the mirrored value under seqlock validation, and return it. Returns
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

  /// flush_all: drop every item, including the optimistic-read index.
  void Flush();

  CacheStats Stats() const;

  /// Structural self-check, taking each shard lock in turn: per-shard byte
  /// accounting (shard.bytes == Σ ItemBytes over live items) and every
  /// short-key item owning a live, value-consistent optimistic mirror.
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
  /// The hash used for shard selection and the optimistic index.
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

 private:
  // ---- optimistic-read machinery (see DESIGN.md §4.6) -------------------
  //
  // OptEntry is the seqlock-versioned mirror of one live item. Entries are
  // pool-allocated per shard and NEVER freed while the store lives (erased
  // entries go to a free list and are recycled), so a lock-free reader can
  // always dereference a pointer it loaded from the index: at worst the
  // entry now describes a different key or a write in progress, which the
  // version validation rejects. Every field is an atomic accessed relaxed
  // under the seqlock fences, keeping the protocol TSan-clean (same idiom
  // as util/trace_ring.h).
  //
  // Version protocol: even = stable, odd = writer in progress or dead.
  //   writer (under the shard lock): version -> odd; release fence; store
  //     fields relaxed; version -> even (release).
  //   reader: v1 = version (acquire); if odd give up; load fields relaxed;
  //     acquire fence; v2 = version (relaxed); accept iff v1 == v2.
  // Erase just leaves the version odd; reuse continues the same counter, so
  // a reader holding a stale pointer can never validate across a recycle.
  struct OptEntry {
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> key_hash{0};
    std::atomic<std::uint32_t> key_len{0};
    std::atomic<std::uint32_t> val_len{0};  // kOptOversize: value > cap
    std::atomic<std::uint32_t> flags{0};
    std::atomic<std::uint64_t> cas{0};
    std::atomic<std::int64_t> expires_at{0};
    std::atomic<bool> referenced{false};  // CLOCK bit of lock-free hits
    /// Key bytes then value bytes, packed into 64-bit words so the copy is
    /// a handful of relaxed word ops instead of per-byte atomics.
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
  };

  /// Lock-free-readable open-addressing index: hash -> OptEntry*. Writers
  /// mutate slots under the shard lock; readers probe with acquire loads.
  /// Slots hold nullptr (empty, probe stops), a tombstone (probe
  /// continues), or an entry pointer. Grown tables are published with a
  /// release store; retired tables are kept until destruction so a reader
  /// holding the old pointer stays memory-safe (it may miss fresh keys and
  /// simply falls back to the locked path).
  struct OptTable {
    explicit OptTable(std::size_t cap)
        : capacity(cap),
          mask(cap - 1),
          slots(std::make_unique<std::atomic<OptEntry*>[]>(cap)) {}
    std::size_t capacity;
    std::uint64_t mask;
    std::unique_ptr<std::atomic<OptEntry*>[]> slots;
  };

  struct Item {
    std::string value;
    std::uint32_t flags = 0;
    std::uint64_t cas = 0;
    Nanos expires_at = 0;  // 0 = never
    bool referenced = false;  // CLOCK bit set by locked hits and writes
    OptEntry* opt = nullptr;  // mirror, or nullptr (long key / disabled)
  };

  using ItemMap = std::unordered_map<std::string, Item, TransparentStringHash,
                                     std::equal_to<>>;

  struct Shard {
    mutable std::mutex mu;
    ItemMap items;
    std::size_t clock_hand = 0;  // bucket of `items` the CLOCK sweep resumes at
    std::size_t bytes = 0;
    CacheStats stats;  // guarded by mu

    // Optimistic-read state. The table pointer and slot contents are read
    // lock-free; everything is written only under mu.
    std::atomic<OptTable*> opt_table{nullptr};
    std::vector<std::unique_ptr<OptTable>> opt_tables;  // current + retired
    std::vector<std::unique_ptr<OptEntry>> opt_pool;    // owns every entry
    std::vector<OptEntry*> opt_free;                    // recycled entries
    std::size_t opt_live = 0;   // entries reachable through the index
    std::size_t opt_tombs = 0;  // tombstoned slots in the current table
  };

  /// Per-thread lock-free hit/fallback counts, a cache line per slot
  /// (masstree's threadinfo counters); Stats() sums them. Threads take
  /// slots in the order of their first count, so the first kCounterSlots
  /// threads (a server's workers) each own one; the atomic add keeps a slot
  /// exact when a later thread wraps onto it.
  struct alignas(64) OptCounters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fallbacks{0};
  };
  static constexpr std::size_t kCounterSlots = 64;
  OptCounters& ThreadOptCounters();

  Shard& ShardFor(std::string_view key);

  bool ExpiredLocked(Shard& s, const Item& item) const;
  void EraseLocked(Shard& s, ItemMap::iterator it);
  void StoreLocked(Shard& s, std::string_view key, std::string_view value,
                   std::uint32_t flags, Nanos ttl);
  /// Shared tail of every write (store, append/prepend, incr/decr): set the
  /// reference bit, refresh the optimistic mirror, and re-check the byte
  /// budget.
  void FinishWriteLocked(Shard& s, ItemMap::iterator it);
  /// Evicts until the shard fits its budget. `written` is the item the
  /// caller just wrote: one that alone exceeds the budget is the only
  /// victim.
  void EvictIfNeededLocked(Shard& s, ItemMap::iterator written);
  /// Sweeps the CLOCK hand to a victim, clearing set bits and sparing their
  /// items while `chances` lasts. Requires a non-empty shard.
  ItemMap::iterator ClockVictimLocked(Shard& s, std::size_t& chances);
  static std::size_t ItemBytes(std::string_view key, std::string_view value);

  /// Looks up key, erasing it first if expired. Returns items.end() on miss.
  ItemMap::iterator FindLive(Shard& s, std::string_view key);

  // Optimistic-mirror maintenance; all run under the shard lock.
  void OptUpsertLocked(Shard& s, const std::string& key, Item& item);
  void OptEraseLocked(Shard& s, Item& item);
  void OptEnsureCapacityLocked(Shard& s);

  const Clock& clock_;
  std::size_t per_shard_budget_;
  std::size_t opt_val_cap_;    // 0 = optimistic reads disabled
  std::size_t opt_key_words_;  // words reserved for the key mirror
  std::size_t opt_val_words_;  // words reserved for the value mirror
  std::vector<Shard> shards_;
  std::unique_ptr<OptCounters[]> opt_counters_;  // kCounterSlots entries
  std::atomic<std::uint64_t> cas_counter_{1};
};

}  // namespace iq
