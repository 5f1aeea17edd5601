// IQ-Server: the Twemcache-equivalent CacheStore extended with I and Q
// leases — the paper's Section 5 server, with the Section 3.3 deferred-
// delete optimization and the Section 4.2.2 own-update visibility rules.
//
// Command set (paper numbering):
//   1. IQget(key, session)        read; may grant an I lease on a miss
//   2. IQset(key, value, token)   install a value under a valid I lease
//   3. QaRead(key, session)       Q(refresh) lease + current value
//   4. SaR(key, v_new, token)     swap value, release Q(refresh) lease
//   5. GenID()                    new session/transaction id
//   6. QaReg(tid, key)            Q(invalidate) lease ("QaR" in the paper)
//   7. DaR(tid)                   delete quarantined keys, release leases
//   8. IQDelta(tid, key, delta)   buffer an incremental update under Q
//   9. Commit(tid)                apply buffered deltas / deletes, release
//  10. Abort(tid)                 discard buffered changes, release
//
// Thread safety: every command takes the CacheStore shard lock for its key,
// so lease state and item state mutate atomically per key. Lease expiry is
// enforced lazily on access; an expired Q lease deletes the key-value pair
// (safe: the KVS holds a subset of the RDB), an expired I lease vacates.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/iq_stats.h"
#include "core/kvs_backend.h"
#include "kvs/kvs.h"
#include "leases/lease_table.h"
#include "util/histogram.h"
#include "util/trace_ring.h"

namespace iq {

/// Coarse command classes for server-side latency accounting. The wire
/// dispatcher (net/server.h) records one observation per request into the
/// server's StripedLatencyRecorder under the matching class; FormatStats
/// renders the percentiles as "STAT cmd_*" lines. Defined here (not in net/)
/// so the recorder can live on the IQServer and be shared by every
/// connection's dispatcher.
enum class CommandClass : std::size_t {
  kGet,       // get/gets
  kStore,     // set/add/replace/cas/append/prepend
  kDelete,
  kIncrDecr,
  kIQget,
  kIQset,
  kQaRead,
  kSaR,
  kQaReg,
  kDaR,
  kIQDelta,   // iqappend/iqprepend/iqincr/iqdecr
  kCommit,
  kAbort,
  kOther,     // stats/flush_all/genid/quit/...
};
inline constexpr std::size_t kCommandClassCount =
    static_cast<std::size_t>(CommandClass::kOther) + 1;

const char* ToString(CommandClass c);

class IQServer final : public KvsBackend {
 public:
  struct Config {
    /// Lease lifetime; 0 = leases never expire (tests drive ManualClock).
    Nanos lease_lifetime = 10 * kNanosPerSec;
    /// Section 3.3 optimization: keep the old value visible while a
    /// Q(invalidate) lease is pending, deleting only at DaR/Commit.
    /// When false, QaReg deletes the key immediately.
    bool deferred_delete = true;
    /// Lease-event trace ring capacity per CacheStore shard (rounded up to
    /// a power of two). 0 disables tracing entirely.
    std::size_t trace_capacity = 1024;
    /// Near-cache validity interval granted with each lease-free IQget hit
    /// (DESIGN.md §4.10). 0 = near caching off (the default). When on, the
    /// server tracks the newest outstanding grant per key and an
    /// invalidating commit does not take effect as "fresh" until every
    /// granted interval on the key has lapsed. Grants are only issued on
    /// clean hits (no lease entry), so the server's lock-free optimistic
    /// read path is disabled while this is nonzero.
    Nanos near_validity = 0;
    const Clock* clock = nullptr;

    // -- TEST-ONLY fault injection (mutation hooks for iqcheck) -----------
    // Both flags deliberately re-introduce historical bugs so the offline
    // history checker can prove it has teeth. NEVER set outside tests /
    // iqcached --mutate.

    /// Re-introduce the PR 5 own-update visibility bug: the Q(refresh)
    /// holder's own reads (QaRead re-acquisition, IQget) return the stored
    /// value WITHOUT replaying the session's buffered deltas (a session
    /// stops seeing its own writes — the Section 4.2.2 violation iqcheck
    /// flags as non_monotonic_session).
    bool mutate_own_update_invisible = false;
    /// Violate Q exclusivity: a Q(refresh) request (QaRead, IQDelta) steals
    /// the key from another session's live Q(refresh) lease instead of
    /// rejecting (Figure 5b), so two write sessions proceed on one key
    /// (iqcheck flags overlap_q).
    bool mutate_overlap_q = false;
  };

  /// The server owns its CacheStore.
  explicit IQServer(CacheStore::Config store_config, Config config);
  IQServer();

  CacheStore& store() { return store_; }
  const CacheStore& store() const { return store_; }
  const Clock& clock() const override { return clock_; }

  // ---- commands ---------------------------------------------------------

  /// Command 5: unique session/transaction identifier — unique across
  /// incarnations too: session ids and lease tokens start at a base no
  /// earlier incarnation of a server reached (see NextIncarnationBase in
  /// iq_server.cpp), because clients keep both across a reconnect.
  SessionId GenID() override {
    return next_session_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Command 1. `session` identifies the caller so it can observe its own
  /// updates (0 = anonymous read).
  GetReply IQget(std::string_view key, SessionId session = 0) override;

  /// Command 2. Applies only when `token` matches the live I lease.
  StoreResult IQset(std::string_view key, std::string_view value,
                    LeaseToken token) override;

  /// Command 3. Acquire Q(refresh) and read (R of R-M-W).
  QaReadReply QaRead(std::string_view key, SessionId session) override;

  /// Command 4. Swap value and release Q(refresh) (W of R-M-W). A nullopt
  /// value releases the lease leaving the current value in place.
  StoreResult SaR(std::string_view key, std::optional<std::string_view> v_new,
                  LeaseToken token) override;

  /// Command 6 (QaR in the paper). Always granted: voids I leases and
  /// shares with other Q(invalidate) holders.
  QuarantineResult QaReg(SessionId tid, std::string_view key) override;

  /// Command 7. Deletes every key quarantined by `tid` and releases its
  /// Q(invalidate) leases.
  void DaR(SessionId tid) override;

  /// Command 8. Buffer an incremental update under a Q(refresh) lease.
  QuarantineResult IQDelta(SessionId tid, std::string_view key,
                           DeltaOp delta) override;

  /// Command 9. Apply `tid`'s buffered deltas, delete its quarantined
  /// (invalidate) keys, release all its leases.
  void Commit(SessionId tid) override;

  /// Command 10. Discard `tid`'s buffered changes, release its leases,
  /// leave current values intact.
  void Abort(SessionId tid) override;

  /// Release a session's leases on one key without applying changes (used
  /// by clients when a multi-key acquisition fails midway).
  void ReleaseKey(SessionId tid, std::string_view key) override;

  /// Facebook-memcached-style delete used by the lease-only baseline: the
  /// value is removed and any outstanding I lease on the key is voided (a
  /// subsequent IQset with that token is ignored). Q leases are untouched.
  bool DeleteVoid(std::string_view key) override;

  // ---- plain memcached operations (KvsBackend; delegate to the store) ----
  std::optional<CacheItem> Get(std::string_view key) override {
    return store_.Get(key);
  }
  StoreResult Set(std::string_view key, std::string_view value) override {
    return store_.Set(key, value);
  }
  StoreResult Add(std::string_view key, std::string_view value) override {
    return store_.Add(key, value);
  }
  StoreResult Cas(std::string_view key, std::string_view value,
                  std::uint64_t cas) override {
    return store_.Cas(key, value, cas);
  }
  StoreResult Append(std::string_view key, std::string_view blob) override {
    return store_.Append(key, blob);
  }
  StoreResult Prepend(std::string_view key, std::string_view blob) override {
    return store_.Prepend(key, blob);
  }
  std::optional<std::uint64_t> Incr(std::string_view key,
                                    std::uint64_t amount) override {
    return store_.Incr(key, amount);
  }
  std::optional<std::uint64_t> Decr(std::string_view key,
                                    std::uint64_t amount) override {
    return store_.Decr(key, amount);
  }

  // ---- introspection ------------------------------------------------------

  /// Aggregated counter snapshot (relaxed reads; no lock taken).
  IQServerStats Stats() const;
  /// The newest (up to) `max_events` lease-trace events across all shard
  /// rings, merged oldest first. Safe against concurrent commands.
  std::vector<TraceEvent> TraceSnapshot(std::size_t max_events) const;
  bool trace_enabled() const { return !trace_rings_.empty(); }
  /// Drain-completeness accounting summed across all shard rings: lifetime
  /// records, events lost to ring wrap, and total capacity. dropped == 0
  /// means TraceSnapshot(big enough) is the complete lease history.
  TraceInfo TraceInfoTotal() const;
  /// Live (unexpired) lease on `key`, if any (testing).
  std::optional<LeaseKind> LeaseOn(std::string_view key);
  /// Live lease entries, aggregated shard by shard under each shard's lock
  /// (safe against concurrent commands; momentarily stale as a total).
  std::size_t LeaseCount() const;

  /// Per-command latency recorder shared by all connection dispatchers.
  StripedLatencyRecorder& command_latencies() { return cmd_latencies_; }
  const StripedLatencyRecorder& command_latencies() const {
    return cmd_latencies_;
  }

  /// Proactively expire overdue leases across all shards (expiry is
  /// otherwise enforced lazily on access). Returns the number of leases
  /// reclaimed. Suitable for a periodic maintenance task.
  std::size_t SweepExpired();

 private:
  /// One key's critical section: its shard lock, the key, the operation's
  /// shared lazy timestamp and the key's lease (nullptr: none). The
  /// helpers below take it, so each lease transition is written once.
  struct Locked {
    CacheStore::ShardGuard g;
    std::string key;
    const LazyNow& now;
    LeaseEntry* entry;
  };

  /// The prelude of every per-key command: lock `key`'s shard, expire an
  /// overdue lease on it (MaybeExpire) and find the live one. `now` is the
  /// operation's shared lazy timestamp: lease-free fast paths never read
  /// the clock, and paths that expire + grant + trace read it once.
  Locked Lock(std::string_view key, const LazyNow& now);

  /// Expire the lease on `key` if due as of `now`: Q leases delete the key
  /// value. Returns true if the entry was removed. Caller holds the shard
  /// lock.
  bool MaybeExpire(const CacheStore::ShardGuard& g, const std::string& key,
                   const LazyNow& now);

  /// Drop k's lease entry.
  void Erase(Locked& k);
  /// Void k's I lease, so its holder's IQset is dropped.
  void VoidI(Locked& k);
  /// A Q(refresh) request by `tid` (Figure 5b): the holder re-acquires its
  /// lease (a touch), an I lease is voided, another session's Q lease
  /// rejects the request (nullptr), and a free key is granted.
  LeaseEntry* GrantQRefresh(Locked& k, SessionId tid);
  /// The Q(refresh) holder's own view of the key (Section 4.2.2): the
  /// cached value with its buffered deltas replayed, or nullopt on a miss.
  /// A holder touch.
  std::optional<std::string> OwnRead(Locked& k);
  /// IQset and SaR: install `value` (nullopt: keep the current one) under
  /// k's `kind` lease with `token` and release it. False, counting a stale
  /// set, when that lease is not live.
  bool Install(Locked& k, LeaseKind kind, LeaseToken token,
               std::optional<std::string_view> value);
  /// `tid` leaves k's lease, committing or not: a Q(refresh) commit applies
  /// its buffered deltas; a Q(invalidate) holder follows the one holdover
  /// rule of DESIGN.md §4.10.
  void Leave(Locked& k, SessionId tid, bool commit);
  /// Commit/DaR (commit) and Abort: leave every lease `tid` holds.
  void EndSession(SessionId tid, bool commit);

  /// Record a near-cache validity grant on `key` (shard lock held): the
  /// horizon advances to the server-clock instant the new interval lapses.
  void RecordNearGrant(const CacheStore::ShardGuard& g, const std::string& key,
                       const LazyNow& now);
  /// Consume `key`'s outstanding grant horizon (0 = none). Shard lock held.
  Nanos TakeNearHorizon(const CacheStore::ShardGuard& g,
                        const std::string& key);

  LeaseToken NewToken() { return next_token_.fetch_add(1, std::memory_order_relaxed); }
  Nanos Deadline(const LazyNow& now) const {
    return config_.lease_lifetime == 0 ? 0 : now() + config_.lease_lifetime;
  }

  /// Counter block for the shard whose lock `g` holds.
  IQServerStats& StatsFor(const CacheStore::ShardGuard& g) {
    return shard_stats_[g.shard_index()];
  }
  /// Counter block for session-scoped commands (Commit/Abort) that hold no
  /// single shard lock; spread by session id to keep contention low.
  IQServerStats& StatsFor(SessionId tid) {
    return shard_stats_[tid % shard_stats_.size()];
  }

  /// Record one lease transition in the shard's trace ring. Called with the
  /// shard lock already held, so the ring sees one writer at a time; the
  /// empty-vector check keeps the disabled case to a single branch. `now`
  /// is the operation's shared lazy timestamp, so tracing reuses a clock
  /// read the lease transition usually already paid for.
  void Trace(const CacheStore::ShardGuard& g, LeaseTraceKind kind,
             SessionId session, std::string_view key, const LazyNow& now) {
    if (trace_rings_.empty()) return;
    trace_rings_[g.shard_index()]->Record(
        kind, static_cast<std::uint32_t>(g.shard_index()), session,
        TraceKeyHash(key), now());
  }

  Config config_;
  CacheStore store_;
  const Clock& clock_;
  LeaseTable leases_;
  SessionRegistry registry_;
  /// Per-shard key → near-grant horizon (latest lapse of a granted validity
  /// interval, server-clock scale). Guarded by the CacheStore shard locks,
  /// like the lease table. Empty when near_validity == 0; entries are
  /// consumed by QaReg and pruned by SweepExpired.
  std::vector<std::unordered_map<std::string, Nanos>> near_horizons_;
  std::atomic<LeaseToken> next_token_;
  std::atomic<SessionId> next_session_;

  /// One live counter block per CacheStore shard, bumped (Bump) under its
  /// lock; Stats() sums without one, and Commit/Abort count outside one.
  std::vector<CounterBlock<IQServerStats>> shard_stats_;
  /// One trace ring per CacheStore shard (empty when tracing is disabled);
  /// unique_ptr because TraceRing is immovable (atomics).
  std::vector<std::unique_ptr<TraceRing>> trace_rings_;
  StripedLatencyRecorder cmd_latencies_{kCommandClassCount};
};

}  // namespace iq
