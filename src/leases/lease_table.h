// Lease bookkeeping for the IQ framework (paper Sections 3-5).
//
// Three lease flavors exist on a key:
//   kInhibit    - "I" lease: granted to one read session on a KVS miss so it
//                 alone recomputes the value from the RDBMS. At most one per
//                 key; voided by any Q request.
//   kQInvalidate- "Q" lease taken by invalidate-technique write sessions
//                 (QaReg/DaR). Multiple sessions may share it (deletes are
//                 idempotent, Figure 5a).
//   kQRefresh   - "Q" lease taken by refresh (QaRead/SaR) and incremental-
//                 update (IQ-delta/Commit) write sessions. Exclusive: a
//                 second session's request is rejected and that session
//                 aborts (Figure 5b). Buffers pending deltas server-side.
//
// LeaseTable stores entries sharded identically to the CacheStore so the
// IQ-Server can examine/modify the lease and the cached item under one
// shard lock. LeaseTable itself performs no locking.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kvs/kvs.h"
#include "util/clock.h"

namespace iq {

/// Unique, unguessable-enough lease identity. 0 is "no token".
using LeaseToken = std::uint64_t;

/// Session / transaction identity handed out by GenID(). 0 is "anonymous".
using SessionId = std::uint64_t;

enum class LeaseKind { kInhibit, kQInvalidate, kQRefresh };

const char* ToString(LeaseKind k);

struct LeaseEntry {
  LeaseKind kind;
  /// Valid for kInhibit and kQRefresh. 0 for kQInvalidate.
  LeaseToken token = 0;
  /// Owner for kInhibit/kQRefresh.
  SessionId holder = 0;
  /// Sharing owners for kQInvalidate.
  std::unordered_set<SessionId> inv_holders{};
  /// Expiration (Clock::Now() scale).
  Nanos expires_at = 0;
  /// kQRefresh only: deltas queued by IQ-delta, applied at Commit.
  std::vector<DeltaOp> pending_deltas{};
  /// kQInvalidate only: latest lapse of a near-cache validity interval
  /// granted on this key before the Q arrived (Clock::Now() scale, 0 =
  /// none). The invalidating commit must not take effect as "fresh" before
  /// this instant — near caches may serve the old value until then.
  Nanos hold_until = 0;
  /// kQInvalidate only: a commit emptied the holder set while hold_until
  /// was still in the future; the delete is pending until the grants lapse.
  bool pending_delete = false;

  bool HeldBy(SessionId s) const {
    if (kind == LeaseKind::kQInvalidate) return inv_holders.contains(s);
    return holder == s;
  }
};

/// Sharded key -> LeaseEntry map. Callers (the IQ-Server) are responsible
/// for holding the corresponding CacheStore shard lock around every call
/// that touches a given shard.
class LeaseTable {
 public:
  explicit LeaseTable(std::size_t shard_count)
      : shards_(shard_count > 0 ? shard_count : 1),
        counts_(std::make_unique<std::atomic<std::size_t>[]>(shards_.size())) {}

  /// Lease on `key`, or nullptr. Does NOT check expiry (see Expired()).
  LeaseEntry* Find(std::size_t shard, const std::string& key);
  const LeaseEntry* Find(std::size_t shard, const std::string& key) const;

  /// Insert or overwrite.
  LeaseEntry& Put(std::size_t shard, const std::string& key, LeaseEntry entry);

  void Erase(std::size_t shard, const std::string& key);

  static bool Expired(const LeaseEntry& e, Nanos now) {
    return e.expires_at != 0 && now >= e.expires_at;
  }

  /// Entries in one shard. Caller must hold that shard's CacheStore lock
  /// when commands may be running concurrently.
  std::size_t ShardSize(std::size_t shard) const { return shards_[shard].size(); }

  /// Lock-free entry count for one shard, maintained by Put/Erase with
  /// relaxed atomics. Powers the mutex-free read fast path: a reader that
  /// observes 0 here knows no key in this shard carried a lease at some
  /// point during its read, which is all the optimistic hit needs to
  /// linearize (see DESIGN.md §4.6). May be momentarily stale — stale-
  /// nonzero just costs a locked fallback, and a concurrent grant after the
  /// load races the read exactly as it would race a locked read.
  std::size_t ShardSizeRelaxed(std::size_t shard) const {
    return counts_[shard].load(std::memory_order_relaxed);
  }

  /// Count of live entries across all shards WITHOUT locking: safe only on
  /// a quiescent table (single-threaded tests). Concurrent use must
  /// aggregate ShardSize() under each shard's lock instead — see
  /// IQServer::LeaseCount().
  std::size_t Size() const;

  std::size_t shard_count() const { return shards_.size(); }

  /// Visit every (key, entry) of one shard.
  template <typename Fn>
  void ForEach(std::size_t shard, Fn&& fn) {
    for (auto& [key, entry] : shards_[shard]) fn(key, entry);
  }

 private:
  std::vector<std::unordered_map<std::string, LeaseEntry>> shards_;
  /// Mirrors shards_[i].size(); the only member written without the caller
  /// holding the shard lock being read lock-free (writes still happen under
  /// it, via Put/Erase).
  std::unique_ptr<std::atomic<std::size_t>[]> counts_;
};

/// Per-session registry of quarantined keys, needed so Commit/Abort/DaR can
/// find everything a session holds. Thread-safe; striped by session id so
/// concurrent write sessions do not funnel through one mutex (every QaRead/
/// QaReg touches the registry while holding a CacheStore shard lock).
///
/// Lock order: CacheStore shard lock, then a registry stripe mutex. Never
/// acquire a shard lock while holding a stripe mutex.
class SessionRegistry {
 public:
  explicit SessionRegistry(std::size_t stripe_count = 16)
      : stripes_(stripe_count > 0 ? stripe_count : 1) {}

  void AddKey(SessionId session, const std::string& key);
  void RemoveKey(SessionId session, const std::string& key);
  /// All keys registered to `session` (copy), in registration order.
  std::vector<std::string> Keys(SessionId session) const;
  /// Drop the whole session entry.
  void Drop(SessionId session);
  /// Sessions currently registered, aggregated stripe by stripe.
  std::size_t SessionCount() const;

 private:
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::unordered_map<SessionId, std::vector<std::string>> sessions;
  };

  Stripe& StripeFor(SessionId s) { return stripes_[s % stripes_.size()]; }
  const Stripe& StripeFor(SessionId s) const {
    return stripes_[s % stripes_.size()];
  }

  std::vector<Stripe> stripes_;
};

}  // namespace iq
