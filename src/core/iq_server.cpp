#include "core/iq_server.h"

#include <algorithm>
#include <chrono>

namespace iq {
namespace {

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

IQServer::Locked IQServer::Lock(std::string_view key, const LazyNow& now) {
  std::string skey(key);
  auto g = store_.LockKey(key);
  MaybeExpire(g, skey, now);
  LeaseEntry* entry = leases_.Find(g.shard_index(), skey);
  return {std::move(g), std::move(skey), now, entry};
}

void IQServer::Erase(Locked& k) {
  leases_.Erase(k.g.shard_index(), k.key);
  k.entry = nullptr;
}

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

void IQServer::VoidI(Locked& k) {
  // A writer preempts a reader's I lease: the RDBMS ordering between them
  // is unknown, so the reader's eventual IQset must be dropped.
  const SessionId reader = k.entry->holder;
  Erase(k);
  StatsFor(k.g).i_voided.fetch_add(1, std::memory_order_relaxed);
  Trace(k.g, LeaseTraceKind::kIVoid, reader, k.key, k.now);
}

LeaseEntry* IQServer::GrantQRefresh(Locked& k, SessionId tid) {
  if (LeaseEntry* e = k.entry) {
    if (e->kind == LeaseKind::kQRefresh && e->holder == tid) {
      // Idempotent re-acquisition by the holder: a holder touch, so the
      // deadline extends (the session is alive; an expiry here would delete
      // the key and silently no-op the coming SaR/Commit).
      e->expires_at = Deadline(k.now);
      return e;
    }
    if (e->kind == LeaseKind::kInhibit) {
      VoidI(k);
    } else if (config_.mutate_overlap_q && e->kind == LeaseKind::kQRefresh) {
      // TEST-ONLY mutation (Config::mutate_overlap_q): steal the key from
      // the live foreign Q(refresh) holder instead of rejecting — two write
      // sessions now race on one key and the trace shows a q_ref_grant
      // inside a live Q window.
      Erase(k);
    } else {
      // Another write session holds Q (Figure 5b): reject; the caller
      // releases everything, rolls back its RDBMS transaction, retries.
      StatsFor(k.g).q_rejected.fetch_add(1, std::memory_order_relaxed);
      Trace(k.g, LeaseTraceKind::kReject, tid, k.key, k.now);
      return nullptr;
    }
  }
  k.entry = &leases_.Put(k.g.shard_index(), k.key,
                         LeaseEntry{.kind = LeaseKind::kQRefresh,
                                    .token = NewToken(),
                                    .holder = tid,
                                    .expires_at = Deadline(k.now)});
  registry_.AddKey(tid, k.key);
  StatsFor(k.g).q_ref_granted.fetch_add(1, std::memory_order_relaxed);
  Trace(k.g, LeaseTraceKind::kQRefGrant, tid, k.key, k.now);
  return k.entry;
}

std::optional<std::string> IQServer::OwnRead(Locked& k) {
  // A holder touch too: the session is demonstrably alive, and letting the
  // lease lapse mid-session would delete the key and no-op its SaR/Commit.
  k.entry->expires_at = Deadline(k.now);
  auto item = store_.GetLocked(k.g, k.key);
  if (!item) return std::nullopt;
  // TEST-ONLY mutation (Config::mutate_own_update_invisible): skip the
  // replay so iqcheck can prove it catches the historical bug.
  if (!config_.mutate_own_update_invisible) {
    for (const DeltaOp& d : k.entry->pending_deltas) ApplyDelta(item->value, d);
  }
  return std::move(item->value);
}

bool IQServer::Install(Locked& k, LeaseKind kind, LeaseToken token,
                       std::optional<std::string_view> value) {
  const LeaseEntry* e = k.entry;
  if (e == nullptr || e->kind != kind || e->token != token || token == 0) {
    // The lease was voided by a Q request, expired, or never existed: the
    // computed value may be stale, so it is dropped (Section 3.2); a key
    // whose Q lease went is (or will be) deleted, which is always safe.
    StatsFor(k.g).stale_sets_dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (value) store_.SetLocked(k.g, k.key, *value);
  const SessionId holder = e->holder;
  Erase(k);
  if (kind == LeaseKind::kQRefresh) registry_.RemoveKey(holder, k.key);
  Trace(k.g, LeaseTraceKind::kRelease, holder, k.key, k.now);
  return true;
}

void IQServer::Leave(Locked& k, SessionId tid, bool commit) {
  LeaseEntry& e = *k.entry;
  if (e.kind != LeaseKind::kQInvalidate) {
    if (commit) {
      for (const DeltaOp& d : e.pending_deltas) {
        store_.UpdateLocked(k.g, k.key, d);
      }
    }
    Erase(k);  // an abort discards the buffered deltas
    return;
  }
  // The holdover rule (DESIGN.md §4.10): while validity intervals granted
  // on the key before its Q are outstanding, remote near caches may still
  // serve the old value, so a committed delete stays pending, and the old
  // value visible, until the newest interval lapses. Otherwise a commit
  // deletes at once, and an abort leaves the current version in place
  // (Section 3.3) but performs a pending delete if it ends the lease.
  const bool hold = e.hold_until > k.now();
  e.inv_holders.erase(tid);
  const bool last = e.inv_holders.empty();
  if (commit && hold) e.pending_delete = true;
  if (!hold && (commit || (last && e.pending_delete))) {
    store_.DeleteLocked(k.g, k.key);
  }
  if (!last) return;
  if (hold && e.pending_delete) {
    // Silent holdover: every holder has ended (and is traced as such);
    // MaybeExpire reclaims the entry at hold_until without further trace
    // events or expiry counters.
    e.expires_at = e.hold_until;
  } else {
    Erase(k);
  }
}

GetReply IQServer::IQget(std::string_view key, SessionId session) {
  // Mutex-free fast path (DESIGN.md §4.6): when the key's shard holds no
  // lease at all, a read hit is just a plain cache hit — serve it from the
  // item's seqlock entry without taking the shard lock. The shard-level
  // count is conservative: any lease anywhere in the shard sends us to the
  // locked path, which also preserves own-update visibility (a session that
  // holds a lease on this key observes its own grant in program order, so
  // the count it reads here is nonzero). Disabled while near-cache validity
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
  const LazyNow now(clock_);
  Locked k = Lock(key, now);

  if (const LeaseEntry* e = k.entry) {
    if (session != 0 && e->kind != LeaseKind::kInhibit && e->HeldBy(session)) {
      // The writer's own key. Under Q(invalidate) it must observe a miss so
      // it re-queries the RDBMS and sees its own update (Section 3.3); no
      // lease: it must not install the recomputed value either. Under
      // Q(refresh) it sees its buffered deltas applied (Section 4.2.2).
      std::optional<std::string> own;
      if (e->kind == LeaseKind::kQRefresh) own = OwnRead(k);
      if (!own) return {GetReply::Status::kMissNoLease, {}, 0};
      return {GetReply::Status::kHit, std::move(*own), 0};
    }
    // Another session's lease. The old version stays visible until the
    // write session ends — readers serialize before it (the Section 3.3
    // re-arrangement window) — unless eager delete removed it; a value
    // under an I lease is always served. Otherwise back off.
    if (config_.deferred_delete || e->kind == LeaseKind::kInhibit) {
      if (auto item = store_.GetLocked(k.g, key)) {
        return {GetReply::Status::kHit, std::move(item->value), 0};
      }
    }
    StatsFor(k.g).backoffs.fetch_add(1, std::memory_order_relaxed);
    return {GetReply::Status::kMissBackoff, {}, 0};
  }

  auto item = store_.GetLocked(k.g, key);
  if (item) {
    GetReply reply{GetReply::Status::kHit, std::move(item->value), 0};
    if (config_.near_validity > 0) {
      // Clean hit (no lease entry on the key): grant a validity interval
      // so the caller may serve this value from its near cache without
      // further round trips. Hits under a live lease (deferred delete,
      // own-update replay) never grant — a value already being written out
      // must not gain new validity.
      reply.validity = config_.near_validity;
      RecordNearGrant(k.g, k.key, now);
    }
    return reply;
  }

  // Miss with no pending lease: grant an I lease so exactly one session
  // queries the RDBMS (also Facebook's thundering-herd protection).
  const LeaseToken token = NewToken();
  leases_.Put(k.g.shard_index(), k.key,
              LeaseEntry{.kind = LeaseKind::kInhibit,
                         .token = token,
                         .holder = session,
                         .expires_at = Deadline(now)});
  StatsFor(k.g).i_granted.fetch_add(1, std::memory_order_relaxed);
  Trace(k.g, LeaseTraceKind::kIGrant, session, key, now);
  return {GetReply::Status::kMissGrantedI, {}, token};
}

StoreResult IQServer::IQset(std::string_view key, std::string_view value,
                            LeaseToken token) {
  const LazyNow now(clock_);
  Locked k = Lock(key, now);
  return Install(k, LeaseKind::kInhibit, token, value) ? StoreResult::kStored
                                                       : StoreResult::kNotStored;
}

QaReadReply IQServer::QaRead(std::string_view key, SessionId session) {
  const LazyNow now(clock_);
  Locked k = Lock(key, now);
  const LeaseEntry* lease = GrantQRefresh(k, session);
  if (lease == nullptr) return {QaReadReply::Status::kReject, std::nullopt, 0};
  // A re-acquisition's reply shows the session's own buffered deltas — the
  // own-update visibility rule (Section 4.2.2) IQget applies. Without the
  // replay, an IQDelta'd update would be visible through IQget but vanish
  // from the very QaRead that re-reads the key.
  return {QaReadReply::Status::kGranted, OwnRead(k), lease->token};
}

StoreResult IQServer::SaR(std::string_view key,
                          std::optional<std::string_view> v_new,
                          LeaseToken token) {
  const LazyNow now(clock_);
  Locked k = Lock(key, now);
  return Install(k, LeaseKind::kQRefresh, token, v_new) ? StoreResult::kStored
                                                        : StoreResult::kNotFound;
}

QuarantineResult IQServer::QaReg(SessionId tid, std::string_view key) {
  const LazyNow now(clock_);
  Locked k = Lock(key, now);
  if (k.entry != nullptr && k.entry->kind == LeaseKind::kInhibit) {
    VoidI(k);
  } else if (k.entry != nullptr && k.entry->kind == LeaseKind::kQRefresh) {
    // Cross-technique collision: invalidation always wins because a
    // delete is always safe. Void the refresh lease - its SaR/Commit
    // becomes a no-op - and quarantine for deletion. The value goes
    // now, even under deferred delete: the voided writer may already
    // have committed its RDBMS transaction, and its dropped swap or
    // delta was what would have replaced the old value, which must not
    // stay readable until this session commits.
    const SessionId writer = k.entry->holder;
    registry_.RemoveKey(writer, k.key);
    Erase(k);
    store_.DeleteLocked(k.g, key);
    StatsFor(k.g).q_ref_voided.fetch_add(1, std::memory_order_relaxed);
    Trace(k.g, LeaseTraceKind::kQRefVoid, writer, key, now);
  }
  // Grant, or join: deletes are idempotent, so Q(invalidate) leases share
  // (Figure 5a). Joining is a holder touch: the deadline extends to cover
  // the newest quarantining session, and joining a holdover re-lives it,
  // its pending delete carried over. A key with outstanding near-cache
  // validity grants holds the Q until the newest grant lapses (DESIGN.md
  // §4.10): the commit's delete must not take effect as "fresh" while a
  // near cache may still serve the old value within its granted interval.
  if (k.entry == nullptr) {
    k.entry = &leases_.Put(k.g.shard_index(), k.key,
                           LeaseEntry{.kind = LeaseKind::kQInvalidate});
  }
  LeaseEntry& q = *k.entry;
  q.inv_holders.insert(tid);
  q.expires_at = Deadline(now);
  q.hold_until = std::max(q.hold_until, TakeNearHorizon(k.g, k.key));
  registry_.AddKey(tid, k.key);
  if (!config_.deferred_delete) store_.DeleteLocked(k.g, key);
  StatsFor(k.g).q_inv_granted.fetch_add(1, std::memory_order_relaxed);
  Trace(k.g, LeaseTraceKind::kQInvGrant, tid, key, now);
  return QuarantineResult::kGranted;
}

QuarantineResult IQServer::IQDelta(SessionId tid, std::string_view key,
                                   DeltaOp delta) {
  const LazyNow now(clock_);
  Locked k = Lock(key, now);
  LeaseEntry* lease = GrantQRefresh(k, tid);
  if (lease == nullptr) return QuarantineResult::kReject;
  lease->pending_deltas.push_back(std::move(delta));
  return QuarantineResult::kGranted;
}

void IQServer::EndSession(SessionId tid, bool commit) {
  const LazyNow now(clock_);
  for (std::string& key : registry_.Keys(tid)) {
    Locked k{store_.LockKey(key), std::move(key), now, nullptr};
    k.entry = leases_.Find(k.g.shard_index(), k.key);
    // I leases are never registered; the kind test is defensive.
    if (k.entry == nullptr || k.entry->kind == LeaseKind::kInhibit ||
        !k.entry->HeldBy(tid)) {
      continue;
    }
    Leave(k, tid, commit);
    Trace(k.g, commit ? LeaseTraceKind::kCommit : LeaseTraceKind::kAbort, tid,
          k.key, now);
  }
  registry_.Drop(tid);
  IQShardStats& st = StatsFor(tid);
  (commit ? st.commits : st.aborts).fetch_add(1, std::memory_order_relaxed);
}

void IQServer::Commit(SessionId tid) { EndSession(tid, /*commit=*/true); }

void IQServer::DaR(SessionId tid) { Commit(tid); }

void IQServer::Abort(SessionId tid) { EndSession(tid, /*commit=*/false); }

void IQServer::ReleaseKey(SessionId tid, std::string_view key) {
  // An overdue lease takes the expiry path first — the quarantine delete
  // plus the leases_expired/expiry_deletes accounting every other lease-
  // mutating entry point performs — and the release is then a no-op.
  const LazyNow now(clock_);
  Locked k = Lock(key, now);
  if (k.entry == nullptr || !k.entry->HeldBy(tid)) return;
  Leave(k, tid, /*commit=*/false);
  registry_.RemoveKey(tid, k.key);
  Trace(k.g, LeaseTraceKind::kRelease, tid, key, now);
}

bool IQServer::DeleteVoid(std::string_view key) {
  const LazyNow now(clock_);
  Locked k = Lock(key, now);
  if (k.entry != nullptr && k.entry->kind == LeaseKind::kInhibit) VoidI(k);
  return store_.DeleteLocked(k.g, key);
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
  const LazyNow now(clock_);
  Locked k = Lock(key, now);
  if (k.entry == nullptr) return std::nullopt;
  return k.entry->kind;
}

}  // namespace iq
