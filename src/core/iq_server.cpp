#include "core/iq_server.h"

#include <algorithm>
#include <charconv>
#include <chrono>

namespace iq {
namespace {

std::optional<std::uint64_t> ParseUint(std::string_view v) {
  std::uint64_t out = 0;
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size()) return std::nullopt;
  return out;
}

/// Apply one delta to an in-memory value (memcached semantics; incr/decr on
/// non-numeric values are ignored, decr saturates at zero).
void ApplyDeltaToValue(std::string& value, const DeltaOp& delta) {
  switch (delta.kind) {
    case DeltaOp::Kind::kAppend:
      value.append(delta.blob);
      return;
    case DeltaOp::Kind::kPrepend:
      value.insert(0, delta.blob);
      return;
    case DeltaOp::Kind::kIncr: {
      auto cur = ParseUint(value);
      if (cur) value = std::to_string(*cur + delta.amount);
      return;
    }
    case DeltaOp::Kind::kDecr: {
      auto cur = ParseUint(value);
      if (cur) value = std::to_string(*cur >= delta.amount ? *cur - delta.amount : 0);
      return;
    }
  }
}

/// Distance between the id bases of two incarnations in one process.
constexpr std::uint64_t kIncarnationStride = std::uint64_t{1} << 32;

/// First session id and lease token of a new server incarnation. Clients
/// keep session ids and tokens across a reconnect, so a restarted server
/// must never hand out one an earlier incarnation issued: an old session id
/// would pass as the holder of a new session's Q lease, an old token would
/// install into a new I lease. The base is the wall clock in nanoseconds —
/// no server issues ids faster than one a nanosecond, so a later process
/// starts past everything an earlier one issued — and within one process
/// each incarnation starts at least kIncarnationStride past the previous
/// one, whatever the clock does.
std::uint64_t NextIncarnationBase() {
  static std::atomic<std::uint64_t> last{0};
  const auto wall = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::uint64_t prev = last.load(std::memory_order_relaxed);
  std::uint64_t base = 0;
  do {
    base = std::max(wall, prev + kIncarnationStride);
  } while (!last.compare_exchange_weak(prev, base, std::memory_order_relaxed));
  return base;
}

}  // namespace

const char* ToString(CommandClass c) {
  switch (c) {
    case CommandClass::kGet: return "get";
    case CommandClass::kStore: return "store";
    case CommandClass::kDelete: return "delete";
    case CommandClass::kIncrDecr: return "incr_decr";
    case CommandClass::kIQget: return "iqget";
    case CommandClass::kIQset: return "iqset";
    case CommandClass::kQaRead: return "qaread";
    case CommandClass::kSaR: return "sar";
    case CommandClass::kQaReg: return "qareg";
    case CommandClass::kDaR: return "dar";
    case CommandClass::kIQDelta: return "iqdelta";
    case CommandClass::kCommit: return "commit";
    case CommandClass::kAbort: return "abort";
    case CommandClass::kOther: return "other";
  }
  return "?";
}

IQServer::IQServer(CacheStore::Config store_config, Config config)
    : config_(config),
      store_([&] {
        if (store_config.clock == nullptr) store_config.clock = config.clock;
        return store_config;
      }()),
      clock_(config.clock != nullptr ? *config.clock : SteadyClock::Instance()),
      leases_(store_.shard_count()),
      next_token_(NextIncarnationBase()),
      next_session_(next_token_.load(std::memory_order_relaxed)),
      shard_stats_(store_.shard_count()) {
  if (config_.trace_capacity > 0) {
    trace_rings_.reserve(store_.shard_count());
    for (std::size_t i = 0; i < store_.shard_count(); ++i) {
      trace_rings_.push_back(
          std::make_unique<TraceRing>(config_.trace_capacity));
    }
  }
  if (config_.near_validity > 0) near_horizons_.resize(store_.shard_count());
}

void IQServer::RecordNearGrant(const CacheStore::ShardGuard& g,
                               const std::string& key, const LazyNow& now) {
  Nanos& horizon = near_horizons_[g.shard_index()][key];
  horizon = std::max(horizon, now() + config_.near_validity);
  StatsFor(g).near_grants.fetch_add(1, std::memory_order_relaxed);
}

Nanos IQServer::TakeNearHorizon(const CacheStore::ShardGuard& g,
                                const std::string& key) {
  if (near_horizons_.empty()) return 0;
  auto& horizons = near_horizons_[g.shard_index()];
  auto it = horizons.find(key);
  if (it == horizons.end()) return 0;
  const Nanos horizon = it->second;
  horizons.erase(it);
  return horizon;
}

IQServer::IQServer() : IQServer(CacheStore::Config{}, Config{}) {}

bool IQServer::MaybeExpire(const CacheStore::ShardGuard& g,
                           const std::string& key, const LazyNow& now) {
  LeaseEntry* entry = leases_.Find(g.shard_index(), key);
  if (entry == nullptr || !LeaseTable::Expired(*entry, now())) {
    return false;
  }
  if (entry->kind == LeaseKind::kQInvalidate && entry->pending_delete &&
      entry->inv_holders.empty()) {
    // Silent holdover reclaim (DESIGN.md §4.10): every holder's commit or
    // abort was already traced and counted — this entry only existed to
    // keep the committed delete from taking effect before the granted
    // near-cache validity intervals lapsed. No trace event, no expiry
    // counters: to the lease history this session ended at its commit.
    store_.DeleteLocked(g, key);
    leases_.Erase(g.shard_index(), key);
    return true;
  }
  // An expired Q lease deletes the key-value pair: the lease holder may be
  // a failed application node mid-session, and a deleted key is always safe
  // (the next read recomputes from the RDBMS).
  bool deleted = false;
  if (entry->kind != LeaseKind::kInhibit) {
    deleted = store_.DeleteLocked(g, key);
  }
  if (entry->kind == LeaseKind::kQInvalidate) {
    for (SessionId s : entry->inv_holders) registry_.RemoveKey(s, key);
  } else if (entry->holder != 0) {
    registry_.RemoveKey(entry->holder, key);
  }
  SessionId holder = entry->kind == LeaseKind::kQInvalidate ? 0 : entry->holder;
  leases_.Erase(g.shard_index(), key);
  IQShardStats& st = StatsFor(g);
  st.leases_expired.fetch_add(1, std::memory_order_relaxed);
  if (deleted) st.expiry_deletes.fetch_add(1, std::memory_order_relaxed);
  Trace(g, deleted ? LeaseTraceKind::kExpireDelete : LeaseTraceKind::kExpire,
        holder, key, now);
  return true;
}

GetReply IQServer::IQget(std::string_view key, SessionId session) {
  // Mutex-free fast path (DESIGN.md §4.6): when the key's shard holds no
  // lease at all, a read hit is just a plain cache hit — serve it from the
  // seqlock mirror without taking the shard lock. The shard-level count is
  // conservative: any lease anywhere in the shard sends us to the locked
  // path, which also preserves own-update visibility (a session that holds
  // a lease on this key observes its own grant in program order, so the
  // count it reads here is nonzero). Disabled while near-cache validity
  // grants are on: every hit must record its grant horizon under the shard
  // lock so QaReg can hold the Q until the newest grant lapses.
  if (store_.optimistic_enabled() && config_.near_validity == 0) {
    const std::uint64_t h = CacheStore::HashKey(key);
    if (leases_.ShardSizeRelaxed(store_.ShardIndexForHash(h)) == 0) {
      if (auto item = store_.OptimisticGet(key, h)) {
        return {GetReply::Status::kHit, std::move(item->value), 0};
      }
    }
  }
  std::string skey(key);
  auto g = store_.LockKey(key);
  const LazyNow now(clock_);
  MaybeExpire(g, skey, now);
  LeaseEntry* entry = leases_.Find(g.shard_index(), skey);

  if (entry != nullptr) {
    switch (entry->kind) {
      case LeaseKind::kQInvalidate: {
        if (session != 0 && entry->inv_holders.contains(session)) {
          // The quarantining session must observe a miss so it re-queries
          // the RDBMS and sees its own update (Section 3.3). No lease: it
          // must not install the recomputed value either.
          return {GetReply::Status::kMissNoLease, {}, 0};
        }
        if (config_.deferred_delete) {
          // Old version stays visible until DaR: readers serialize before
          // the in-flight write session (the re-arrangement window).
          auto item = store_.GetLocked(g, key);
          if (item) return {GetReply::Status::kHit, std::move(item->value), 0};
        }
        StatsFor(g).backoffs.fetch_add(1, std::memory_order_relaxed);
        return {GetReply::Status::kMissBackoff, {}, 0};
      }
      case LeaseKind::kQRefresh: {
        if (session != 0 && entry->holder == session) {
          // Own-update visibility (Section 4.2.2): the holder sees its
          // buffered deltas applied. A holder touch also extends the lease:
          // the session is demonstrably alive, and letting the lease lapse
          // mid-session would delete the key and no-op the coming SaR.
          entry->expires_at = Deadline(now);
          auto item = store_.GetLocked(g, key);
          if (item) {
            std::string value = std::move(item->value);
            for (const auto& d : entry->pending_deltas) ApplyDeltaToValue(value, d);
            return {GetReply::Status::kHit, std::move(value), 0};
          }
          return {GetReply::Status::kMissNoLease, {}, 0};
        }
        if (config_.deferred_delete) {
          auto item = store_.GetLocked(g, key);
          if (item) return {GetReply::Status::kHit, std::move(item->value), 0};
        }
        StatsFor(g).backoffs.fetch_add(1, std::memory_order_relaxed);
        return {GetReply::Status::kMissBackoff, {}, 0};
      }
      case LeaseKind::kInhibit: {
        auto item = store_.GetLocked(g, key);
        if (item) return {GetReply::Status::kHit, std::move(item->value), 0};
        StatsFor(g).backoffs.fetch_add(1, std::memory_order_relaxed);
        return {GetReply::Status::kMissBackoff, {}, 0};
      }
    }
  }

  auto item = store_.GetLocked(g, key);
  if (item) {
    GetReply reply{GetReply::Status::kHit, std::move(item->value), 0};
    if (config_.near_validity > 0) {
      // Clean hit (no lease entry on the key): grant a validity interval
      // so the caller may serve this value from its near cache without
      // further round trips. Hits under a live lease (deferred delete,
      // own-update replay) never grant — a value already being written out
      // must not gain new validity.
      reply.validity = config_.near_validity;
      RecordNearGrant(g, skey, now);
    }
    return reply;
  }

  // Miss with no pending lease: grant an I lease so exactly one session
  // queries the RDBMS (also Facebook's thundering-herd protection).
  LeaseEntry lease;
  lease.kind = LeaseKind::kInhibit;
  lease.token = NewToken();
  lease.holder = session;
  lease.expires_at = Deadline(now);
  LeaseToken token = lease.token;
  leases_.Put(g.shard_index(), skey, std::move(lease));
  StatsFor(g).i_granted.fetch_add(1, std::memory_order_relaxed);
  Trace(g, LeaseTraceKind::kIGrant, session, key, now);
  return {GetReply::Status::kMissGrantedI, {}, token};
}

StoreResult IQServer::IQset(std::string_view key, std::string_view value,
                            LeaseToken token) {
  std::string skey(key);
  auto g = store_.LockKey(key);
  const LazyNow now(clock_);
  MaybeExpire(g, skey, now);
  LeaseEntry* entry = leases_.Find(g.shard_index(), skey);
  if (entry != nullptr && entry->kind == LeaseKind::kInhibit &&
      entry->token == token && token != 0) {
    SessionId holder = entry->holder;
    store_.SetLocked(g, key, value);
    leases_.Erase(g.shard_index(), skey);
    Trace(g, LeaseTraceKind::kRelease, holder, key, now);
    return StoreResult::kStored;
  }
  // The I lease was voided by a Q request, expired, or never existed: the
  // computed value may be stale, so the set is ignored (Section 3.2).
  StatsFor(g).stale_sets_dropped.fetch_add(1, std::memory_order_relaxed);
  return StoreResult::kNotStored;
}

QaReadReply IQServer::QaRead(std::string_view key, SessionId session) {
  std::string skey(key);
  auto g = store_.LockKey(key);
  const LazyNow now(clock_);
  MaybeExpire(g, skey, now);
  LeaseEntry* entry = leases_.Find(g.shard_index(), skey);

  if (entry != nullptr) {
    if (entry->kind == LeaseKind::kInhibit) {
      // A writer preempts a reader's I lease: the RDBMS ordering between
      // them is unknown, so the reader's eventual IQset must be dropped.
      SessionId reader = entry->holder;
      leases_.Erase(g.shard_index(), skey);
      entry = nullptr;
      StatsFor(g).i_voided.fetch_add(1, std::memory_order_relaxed);
      Trace(g, LeaseTraceKind::kIVoid, reader, key, now);
    } else if (entry->kind == LeaseKind::kQRefresh && entry->holder == session) {
      // Idempotent re-acquisition by the same session: a holder touch, so
      // the deadline extends (the session is alive; an expiry here would
      // delete the key and silently no-op the coming SaR/Commit), and the
      // reply must show the session's own buffered deltas — the same
      // own-update visibility rule (Section 4.2.2) IQget applies. Without
      // the replay, an IQDelta'd update would be visible through IQget but
      // vanish from the very QaRead that re-reads the key.
      entry->expires_at = Deadline(now);
      auto item = store_.GetLocked(g, key);
      if (!item) {
        return {QaReadReply::Status::kGranted, std::nullopt, entry->token};
      }
      std::string value = std::move(item->value);
      // TEST-ONLY mutation (Config::mutate_own_update_invisible): skip the
      // replay so iqcheck can prove it catches the historical bug.
      if (!config_.mutate_own_update_invisible) {
        for (const auto& d : entry->pending_deltas) ApplyDeltaToValue(value, d);
      }
      return {QaReadReply::Status::kGranted, std::move(value), entry->token};
    } else if (config_.mutate_overlap_q &&
               entry->kind == LeaseKind::kQRefresh) {
      // TEST-ONLY mutation (Config::mutate_overlap_q): steal the key from
      // the live foreign Q(refresh) holder instead of rejecting, then fall
      // through to a fresh grant — two write sessions now race on one key
      // and the trace shows a q_ref_grant inside a live Q window.
      leases_.Erase(g.shard_index(), skey);
      entry = nullptr;
    } else {
      // Another write session holds Q (Figure 5b): reject; the caller
      // releases everything, rolls back its RDBMS transaction, retries.
      StatsFor(g).q_rejected.fetch_add(1, std::memory_order_relaxed);
      Trace(g, LeaseTraceKind::kReject, session, key, now);
      return {QaReadReply::Status::kReject, std::nullopt, 0};
    }
  }

  LeaseEntry lease;
  lease.kind = LeaseKind::kQRefresh;
  lease.token = NewToken();
  lease.holder = session;
  lease.expires_at = Deadline(now);
  LeaseToken token = lease.token;
  leases_.Put(g.shard_index(), skey, std::move(lease));
  registry_.AddKey(session, skey);
  StatsFor(g).q_ref_granted.fetch_add(1, std::memory_order_relaxed);
  Trace(g, LeaseTraceKind::kQRefGrant, session, key, now);
  auto item = store_.GetLocked(g, key);
  return {QaReadReply::Status::kGranted,
          item ? std::optional<std::string>(std::move(item->value)) : std::nullopt,
          token};
}

StoreResult IQServer::SaR(std::string_view key,
                          std::optional<std::string_view> v_new,
                          LeaseToken token) {
  std::string skey(key);
  auto g = store_.LockKey(key);
  const LazyNow now(clock_);
  MaybeExpire(g, skey, now);
  LeaseEntry* entry = leases_.Find(g.shard_index(), skey);
  if (entry == nullptr || entry->kind != LeaseKind::kQRefresh ||
      entry->token != token || token == 0) {
    // Voided (by a QaReg) or expired lease: swap is ignored; the key is (or
    // will be) deleted, which is always safe.
    StatsFor(g).stale_sets_dropped.fetch_add(1, std::memory_order_relaxed);
    return StoreResult::kNotFound;
  }
  if (v_new) store_.SetLocked(g, key, *v_new);
  SessionId holder = entry->holder;
  leases_.Erase(g.shard_index(), skey);
  registry_.RemoveKey(holder, skey);
  Trace(g, LeaseTraceKind::kRelease, holder, key, now);
  return StoreResult::kStored;
}

QuarantineResult IQServer::QaReg(SessionId tid, std::string_view key) {
  std::string skey(key);
  auto g = store_.LockKey(key);
  const LazyNow now(clock_);
  MaybeExpire(g, skey, now);
  LeaseEntry* entry = leases_.Find(g.shard_index(), skey);

  if (entry != nullptr) {
    switch (entry->kind) {
      case LeaseKind::kInhibit: {
        SessionId reader = entry->holder;
        leases_.Erase(g.shard_index(), skey);
        entry = nullptr;
        StatsFor(g).i_voided.fetch_add(1, std::memory_order_relaxed);
        Trace(g, LeaseTraceKind::kIVoid, reader, key, now);
        break;
      }
      case LeaseKind::kQInvalidate:
        // Deletes are idempotent: Q(invalidate) leases share (Figure 5a).
        // Sharing is a holder touch: the deadline extends to cover the
        // newest quarantining session. Joining a holdover re-lives it; its
        // hold_until / pending_delete carry over.
        entry->inv_holders.insert(tid);
        entry->expires_at = Deadline(now);
        entry->hold_until = std::max(entry->hold_until, TakeNearHorizon(g, skey));
        registry_.AddKey(tid, skey);
        if (!config_.deferred_delete) store_.DeleteLocked(g, key);
        StatsFor(g).q_inv_granted.fetch_add(1, std::memory_order_relaxed);
        Trace(g, LeaseTraceKind::kQInvGrant, tid, key, now);
        return QuarantineResult::kGranted;
      case LeaseKind::kQRefresh: {
        // Cross-technique collision: invalidation always wins because a
        // delete is always safe. Void the refresh lease - its SaR/Commit
        // becomes a no-op - and quarantine for deletion. The value goes
        // now, even under deferred delete: the voided writer may already
        // have committed its RDBMS transaction, and its dropped swap or
        // delta was what would have replaced the old value, which must not
        // stay readable until this session commits.
        SessionId writer = entry->holder;
        registry_.RemoveKey(entry->holder, skey);
        leases_.Erase(g.shard_index(), skey);
        entry = nullptr;
        store_.DeleteLocked(g, key);
        StatsFor(g).q_ref_voided.fetch_add(1, std::memory_order_relaxed);
        Trace(g, LeaseTraceKind::kQRefVoid, writer, key, now);
        break;
      }
    }
  }

  LeaseEntry lease;
  lease.kind = LeaseKind::kQInvalidate;
  lease.inv_holders.insert(tid);
  lease.expires_at = Deadline(now);
  // QaReg on a key with outstanding near-cache validity grants holds the Q
  // until the newest grant lapses (DESIGN.md §4.10): the commit's delete
  // must not take effect as "fresh" while a near cache may still serve the
  // old value within its granted interval.
  lease.hold_until = TakeNearHorizon(g, skey);
  leases_.Put(g.shard_index(), skey, std::move(lease));
  registry_.AddKey(tid, skey);
  if (!config_.deferred_delete) store_.DeleteLocked(g, key);
  StatsFor(g).q_inv_granted.fetch_add(1, std::memory_order_relaxed);
  Trace(g, LeaseTraceKind::kQInvGrant, tid, key, now);
  return QuarantineResult::kGranted;
}

QuarantineResult IQServer::IQDelta(SessionId tid, std::string_view key,
                                   DeltaOp delta) {
  std::string skey(key);
  auto g = store_.LockKey(key);
  const LazyNow now(clock_);
  MaybeExpire(g, skey, now);
  LeaseEntry* entry = leases_.Find(g.shard_index(), skey);

  if (entry != nullptr) {
    if (entry->kind == LeaseKind::kInhibit) {
      SessionId reader = entry->holder;
      leases_.Erase(g.shard_index(), skey);
      entry = nullptr;
      StatsFor(g).i_voided.fetch_add(1, std::memory_order_relaxed);
      Trace(g, LeaseTraceKind::kIVoid, reader, key, now);
    } else if (entry->kind == LeaseKind::kQRefresh && entry->holder == tid) {
      // Holder touch: extend the deadline so a long multi-delta session's
      // lease cannot expire between buffered updates (expiry would delete
      // the key and no-op the eventual Commit).
      entry->expires_at = Deadline(now);
      entry->pending_deltas.push_back(std::move(delta));
      return QuarantineResult::kGranted;
    } else {
      StatsFor(g).q_rejected.fetch_add(1, std::memory_order_relaxed);
      Trace(g, LeaseTraceKind::kReject, tid, key, now);
      return QuarantineResult::kReject;
    }
  }

  LeaseEntry lease;
  lease.kind = LeaseKind::kQRefresh;
  lease.token = NewToken();
  lease.holder = tid;
  lease.expires_at = Deadline(now);
  lease.pending_deltas.push_back(std::move(delta));
  leases_.Put(g.shard_index(), skey, std::move(lease));
  registry_.AddKey(tid, skey);
  StatsFor(g).q_ref_granted.fetch_add(1, std::memory_order_relaxed);
  Trace(g, LeaseTraceKind::kQRefGrant, tid, key, now);
  return QuarantineResult::kGranted;
}

void IQServer::ApplyDeltaLocked(const CacheStore::ShardGuard& g,
                                const std::string& key, const DeltaOp& delta) {
  auto item = store_.GetLocked(g, key);
  if (!item) return;  // delta on a non-resident key is a no-op
  std::string value = std::move(item->value);
  ApplyDeltaToValue(value, delta);
  store_.SetLocked(g, key, value);
}

void IQServer::Commit(SessionId tid) {
  const LazyNow now(clock_);
  for (const std::string& key : registry_.Keys(tid)) {
    auto g = store_.LockKey(key);
    LeaseEntry* entry = leases_.Find(g.shard_index(), key);
    if (entry == nullptr || !entry->HeldBy(tid)) continue;
    switch (entry->kind) {
      case LeaseKind::kQInvalidate: {
        // The invalidating commit takes effect immediately unless validity
        // grants on the key are still outstanding (DESIGN.md §4.10): then
        // the old value stays visible and the delete is deferred until the
        // newest granted interval lapses, matching what remote near caches
        // may still serve.
        const bool hold = entry->hold_until > now();
        if (hold) {
          entry->pending_delete = true;
        } else {
          store_.DeleteLocked(g, key);
        }
        entry->inv_holders.erase(tid);
        if (entry->inv_holders.empty()) {
          if (hold) {
            // Silent holdover: every holder has ended (and is traced as
            // such); MaybeExpire reclaims the entry at hold_until without
            // further trace events or expiry counters.
            entry->expires_at = entry->hold_until;
          } else {
            leases_.Erase(g.shard_index(), key);
          }
        }
        Trace(g, LeaseTraceKind::kCommit, tid, key, now);
        break;
      }
      case LeaseKind::kQRefresh:
        for (const auto& d : entry->pending_deltas) ApplyDeltaLocked(g, key, d);
        leases_.Erase(g.shard_index(), key);
        Trace(g, LeaseTraceKind::kCommit, tid, key, now);
        break;
      case LeaseKind::kInhibit:
        break;  // I leases are not registered; defensive
    }
  }
  registry_.Drop(tid);
  StatsFor(tid).commits.fetch_add(1, std::memory_order_relaxed);
}

void IQServer::DaR(SessionId tid) { Commit(tid); }

void IQServer::Abort(SessionId tid) {
  const LazyNow now(clock_);
  for (const std::string& key : registry_.Keys(tid)) {
    auto g = store_.LockKey(key);
    LeaseEntry* entry = leases_.Find(g.shard_index(), key);
    if (entry == nullptr || !entry->HeldBy(tid)) continue;
    switch (entry->kind) {
      case LeaseKind::kQInvalidate:
        // Leave the current version in place (paper Section 3.3).
        entry->inv_holders.erase(tid);
        if (entry->inv_holders.empty()) {
          if (entry->pending_delete) {
            // Another holder's committed delete is pending behind
            // outstanding validity grants; the abort must not discard it.
            if (entry->hold_until > now()) {
              entry->expires_at = entry->hold_until;  // silent holdover
            } else {
              store_.DeleteLocked(g, key);
              leases_.Erase(g.shard_index(), key);
            }
          } else {
            leases_.Erase(g.shard_index(), key);
          }
        }
        Trace(g, LeaseTraceKind::kAbort, tid, key, now);
        break;
      case LeaseKind::kQRefresh:
        leases_.Erase(g.shard_index(), key);  // pending deltas discarded
        Trace(g, LeaseTraceKind::kAbort, tid, key, now);
        break;
      case LeaseKind::kInhibit:
        break;
    }
  }
  registry_.Drop(tid);
  StatsFor(tid).aborts.fetch_add(1, std::memory_order_relaxed);
}

void IQServer::ReleaseKey(SessionId tid, std::string_view key) {
  std::string skey(key);
  auto g = store_.LockKey(key);
  const LazyNow now(clock_);
  // An overdue lease takes the expiry path first — the quarantine delete
  // plus the leases_expired/expiry_deletes accounting every other lease-
  // mutating entry point performs — and the release is then a no-op.
  MaybeExpire(g, skey, now);
  LeaseEntry* entry = leases_.Find(g.shard_index(), skey);
  if (entry == nullptr || !entry->HeldBy(tid)) return;
  if (entry->kind == LeaseKind::kQInvalidate) {
    entry->inv_holders.erase(tid);
    if (entry->inv_holders.empty()) {
      if (entry->pending_delete && entry->hold_until > now()) {
        entry->expires_at = entry->hold_until;  // silent holdover (§4.10)
      } else {
        if (entry->pending_delete) store_.DeleteLocked(g, skey);
        leases_.Erase(g.shard_index(), skey);
      }
    }
  } else {
    leases_.Erase(g.shard_index(), skey);
  }
  registry_.RemoveKey(tid, skey);
  Trace(g, LeaseTraceKind::kRelease, tid, key, now);
}

bool IQServer::DeleteVoid(std::string_view key) {
  std::string skey(key);
  auto g = store_.LockKey(key);
  const LazyNow now(clock_);
  MaybeExpire(g, skey, now);
  LeaseEntry* entry = leases_.Find(g.shard_index(), skey);
  if (entry != nullptr && entry->kind == LeaseKind::kInhibit) {
    SessionId reader = entry->holder;
    leases_.Erase(g.shard_index(), skey);
    StatsFor(g).i_voided.fetch_add(1, std::memory_order_relaxed);
    Trace(g, LeaseTraceKind::kIVoid, reader, key, now);
  }
  return store_.DeleteLocked(g, key);
}

IQServerStats IQServer::Stats() const {
  IQServerStats total;
  for (const IQShardStats& s : shard_stats_) {
    total.i_granted += s.i_granted.load(std::memory_order_relaxed);
    total.i_voided += s.i_voided.load(std::memory_order_relaxed);
    total.q_ref_voided += s.q_ref_voided.load(std::memory_order_relaxed);
    total.backoffs += s.backoffs.load(std::memory_order_relaxed);
    total.stale_sets_dropped +=
        s.stale_sets_dropped.load(std::memory_order_relaxed);
    total.q_inv_granted += s.q_inv_granted.load(std::memory_order_relaxed);
    total.q_ref_granted += s.q_ref_granted.load(std::memory_order_relaxed);
    total.q_rejected += s.q_rejected.load(std::memory_order_relaxed);
    total.leases_expired += s.leases_expired.load(std::memory_order_relaxed);
    total.expiry_deletes += s.expiry_deletes.load(std::memory_order_relaxed);
    total.commits += s.commits.load(std::memory_order_relaxed);
    total.aborts += s.aborts.load(std::memory_order_relaxed);
    total.near_grants += s.near_grants.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<TraceEvent> IQServer::TraceSnapshot(std::size_t max_events) const {
  std::vector<TraceEvent> merged;
  if (trace_rings_.empty() || max_events == 0) return merged;
  for (const auto& ring : trace_rings_) {
    std::vector<TraceEvent> part = ring->Snapshot(max_events);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  // Per-ring snapshots are already ordered; merge across shards by
  // timestamp (ties broken by shard then ring sequence for determinism).
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.seq < b.seq;
            });
  if (merged.size() > max_events) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  return merged;
}

TraceInfo IQServer::TraceInfoTotal() const {
  TraceInfo info;
  for (const auto& ring : trace_rings_) {
    info.recorded += ring->recorded();
    info.dropped += ring->dropped();
    info.capacity += ring->capacity();
  }
  return info;
}

std::size_t IQServer::LeaseCount() const {
  // Aggregate one shard at a time under that shard's lock: concurrent
  // commands stay serialized against each shard we read, so the per-shard
  // sizes are consistent even though the total is a moving target.
  std::size_t n = 0;
  for (std::size_t shard = 0; shard < store_.shard_count(); ++shard) {
    auto g = store_.LockShard(shard);
    n += leases_.ShardSize(shard);
  }
  return n;
}

std::size_t IQServer::SweepExpired() {
  std::size_t reclaimed = 0;
  Nanos now = clock_.Now();
  for (std::size_t shard = 0; shard < store_.shard_count(); ++shard) {
    auto g = store_.LockShard(shard);
    // Collect first (MaybeExpire mutates the map we are iterating), then
    // expire each through the normal path, which deletes quarantined values
    // and cleans the session registry.
    std::vector<std::string> overdue;
    leases_.ForEach(shard, [&](const std::string& key, LeaseEntry& entry) {
      if (LeaseTable::Expired(entry, now)) overdue.push_back(key);
    });
    const LazyNow batch_now(now);
    for (const std::string& key : overdue) {
      if (MaybeExpire(g, key, batch_now)) ++reclaimed;
    }
    if (!near_horizons_.empty()) {
      // Grant horizons that already lapsed can no longer hold a Q; prune
      // them here so the map stays bounded by the recently-read key set.
      auto& horizons = near_horizons_[shard];
      for (auto it = horizons.begin(); it != horizons.end();) {
        it = it->second <= now ? horizons.erase(it) : std::next(it);
      }
    }
  }
  return reclaimed;
}

std::optional<LeaseKind> IQServer::LeaseOn(std::string_view key) {
  std::string skey(key);
  auto g = store_.LockKey(key);
  const LazyNow now(clock_);
  MaybeExpire(g, skey, now);
  LeaseEntry* entry = leases_.Find(g.shard_index(), skey);
  if (entry == nullptr) return std::nullopt;
  return entry->kind;
}

}  // namespace iq
