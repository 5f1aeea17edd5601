#include "core/sharded_backend.h"

#include <algorithm>
#include <stdexcept>

namespace iq {
namespace {

std::uint64_t Fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  // FNV's multiply only diffuses low bits upward, and ring placement is
  // decided by the most significant bits — short, similar labels ("s0#17")
  // would otherwise cluster and starve whole shards of keyspace. A
  // splitmix64-style finalizer spreads every input bit across the word.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

// The part of `key` that picks its shard (Redis Cluster's hash-tag rule):
// the bytes between the first '{' and the first '}' after it, when that
// span is non-empty; otherwise the whole key.
std::string_view HashTag(std::string_view key) {
  std::size_t open = key.find('{');
  if (open == std::string_view::npos) return key;
  std::size_t close = key.find('}', open + 1);
  if (close == std::string_view::npos || close == open + 1) return key;
  return key.substr(open + 1, close - open - 1);
}

// The per-key lease verbs are Acquire of one request; these map its reply
// back. kNotRun cannot occur for a lone request.
QaReadReply ToQaReadReply(LeaseReply reply) {
  QaReadReply out;
  out.status = reply.status == LeaseReply::Status::kGranted
                   ? QaReadReply::Status::kGranted
               : reply.status == LeaseReply::Status::kReject
                   ? QaReadReply::Status::kReject
                   : QaReadReply::Status::kTransportError;
  out.value = std::move(reply.value);
  out.token = reply.token;
  return out;
}

QuarantineResult ToQuarantineResult(const LeaseReply& reply) {
  return reply.status == LeaseReply::Status::kGranted
             ? QuarantineResult::kGranted
         : reply.status == LeaseReply::Status::kReject
             ? QuarantineResult::kReject
             : QuarantineResult::kTransportError;
}

}  // namespace

ShardedBackend::ShardedBackend(std::vector<Shard> shards, Config config)
    : shards_(std::move(shards)),
      config_(config),
      clock_(config.clock != nullptr ? *config.clock
                                     : SteadyClock::Instance()),
      stripes_(16),  // session-map stripes
      health_(std::make_unique<ShardHealth[]>(
          shards_.empty() ? 1 : shards_.size())) {
  if (shards_.empty()) {
    throw std::invalid_argument("ShardedBackend: no shards");
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::uint32_t weight = shards_[i].weight > 0 ? shards_[i].weight : 1;
    std::size_t points = std::size_t{64} * weight;  // ring points
    for (std::size_t v = 0; v < points; ++v) {
      std::string label = shards_[i].name;
      label.push_back('#');
      label += std::to_string(v);
      ring_.push_back({Fnv1a(label), static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const RingPoint& a,
                                           const RingPoint& b) {
    return a.point != b.point ? a.point < b.point : a.shard < b.shard;
  });
}

std::size_t ShardedBackend::ShardFor(std::string_view key) const {
  if (shards_.size() == 1) return 0;
  std::uint64_t h = Fnv1a(HashTag(key));
  // Clockwise successor on the ring; past the last point wraps to the
  // first.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const RingPoint& p, std::uint64_t v) { return p.point < v; });
  if (it == ring_.end()) it = ring_.begin();
  return it->shard;
}

// ---- shard health ----------------------------------------------------------

bool ShardedBackend::AllowRequest(std::size_t shard) {
  ShardHealth& h = health_[shard];
  if (!h.down.load(std::memory_order_acquire)) return true;
  // Down: ration real requests to one probe per interval. The CAS claims
  // the slot; losers fail fast with zero syscalls.
  Nanos due = h.next_probe.load(std::memory_order_acquire);
  Nanos now = clock_.Now();
  return now >= due &&
         h.next_probe.compare_exchange_strong(due, now + config_.probe_interval,
                                              std::memory_order_acq_rel);
}

void ShardedBackend::RecordResult(std::size_t shard, bool transport_error) {
  ShardHealth& h = health_[shard];
  if (!transport_error) {
    // Loads before stores: keep the healthy fast path read-only on the
    // shared health line so concurrent sessions don't ping-pong it.
    if (h.consecutive_errors.load(std::memory_order_relaxed) != 0) {
      h.consecutive_errors.store(0, std::memory_order_relaxed);
    }
    if (h.down.load(std::memory_order_acquire) &&
        h.down.exchange(false, std::memory_order_acq_rel)) {
      Bump(counters_.shard_recoveries);
    }
    return;
  }
  h.transport_errors.fetch_add(1, std::memory_order_relaxed);
  Bump(counters_.transport_errors);
  std::uint32_t streak =
      h.consecutive_errors.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.down_after_errors == 0) return;  // breaker disabled
  if (streak >= config_.down_after_errors) {
    if (!h.down.exchange(true, std::memory_order_acq_rel)) {
      Bump(counters_.shard_trips);
    }
    // Tripping and a failed probe both push the next probe out one full
    // interval from now.
    h.next_probe.store(clock_.Now() + config_.probe_interval,
                       std::memory_order_release);
  }
}

// ---- session plumbing ------------------------------------------------------

SessionId ShardedBackend::GenID() {
  Bump(counters_.sessions);
  return next_sid_.fetch_add(1, std::memory_order_relaxed);
}

SessionId ShardedBackend::ShardSession(SessionId tid, std::size_t shard,
                                       bool write) {
  Stripe& st = StripeFor(tid);
  {
    std::lock_guard lock(st.mu);
    auto it = st.sessions.find(tid);
    if (it != st.sessions.end() && !it->second.shard_sids.empty() &&
        it->second.shard_sids[shard] != 0) {
      if (write) it->second.written[shard] = true;
      return it->second.shard_sids[shard];
    }
  }
  // Mint outside the stripe lock: on a remote shard this is a round trip,
  // and other sessions in the stripe must not wait behind it.
  SessionId child = shards_[shard].backend->GenID();
  if (child == 0) return 0;  // mint failed (dead remote): caller maps to
                             // kTransportError; nothing to record in the map
  std::lock_guard lock(st.mu);
  SessionState& state = st.sessions.try_emplace(tid).first->second;
  if (state.shard_sids.empty()) {
    state.shard_sids.resize(shards_.size(), 0);
    state.written.resize(shards_.size(), false);
  }
  SessionId& slot = state.shard_sids[shard];
  if (slot == 0) {
    // A session is single-threaded by contract; this re-check only guards
    // against a misbehaving caller, in which case the first mint wins and
    // the loser's child id is simply never used (children are free).
    slot = child;
    Bump(counters_.shard_sessions);
  }
  if (write) state.written[shard] = true;
  return slot;
}

SessionId ShardedBackend::LookupShardSession(SessionId tid,
                                             std::size_t shard) const {
  Stripe& st = StripeFor(tid);
  std::lock_guard lock(st.mu);
  auto it = st.sessions.find(tid);
  if (it == st.sessions.end() || it->second.shard_sids.empty()) return 0;
  return it->second.shard_sids[shard];
}

std::vector<ShardedBackend::Written> ShardedBackend::TakeWritten(
    SessionId tid, bool forget) {
  std::vector<Written> out;
  Stripe& st = StripeFor(tid);
  std::lock_guard lock(st.mu);
  auto it = st.sessions.find(tid);
  if (it == st.sessions.end()) return out;
  SessionState& state = it->second;
  for (std::size_t i = 0; i < state.written.size(); ++i) {
    if (!state.written[i]) continue;
    state.written[i] = false;
    out.push_back({i, state.shard_sids[i]});
  }
  if (forget) st.sessions.erase(it);
  return out;
}

template <typename Item>
ShardedBackend::ShardGroups ShardedBackend::GroupByShard(
    const std::vector<Item>& items) const {
  ShardGroups g;
  g.by_shard.resize(shards_.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::size_t s = ShardFor(items[i].key);
    if (g.by_shard[s].empty()) g.order.push_back(s);
    g.by_shard[s].push_back(i);
  }
  return g;
}

void ShardedBackend::ReleaseAllWritten(SessionId tid) {
  for (const Written& w : TakeWritten(tid, /*forget=*/true)) {
    // Down shards are skipped, not probed: an Abort cannot report success,
    // and the child's lease expiry reclaims whatever the session held.
    if (!ShardDown(w.shard)) shards_[w.shard].backend->Abort(w.sid);
  }
  Bump(counters_.reject_releases);
}

template <typename End>
void ShardedBackend::FanOut(const std::vector<Written>& written,
                            std::uint64_t& logical, End&& end) {
  for (const Written& w : written) {
    // Safe to skip a down shard: its unreleased leases expire, and expiry
    // DELETES the key (Section 6.1) — readers recompute from the RDBMS, so
    // no stale value survives the missed commit or abort.
    if (!ShardDown(w.shard)) end(*shards_[w.shard].backend, w.sid);
  }
  CountEnd(written.size(), logical);
}

void ShardedBackend::CountEnd(std::size_t written, std::uint64_t& logical) {
  if (written > 0) Bump(logical);
  if (written > 1) Bump(counters_.cross_shard_sessions);
}

// ---- the IQ command set ----------------------------------------------------

GetReply ShardedBackend::IQget(std::string_view key, SessionId session) {
  std::size_t s = ShardFor(key);
  GetReply err;
  err.status = GetReply::Status::kTransportError;
  if (!AllowRequest(s)) return err;  // down: degrade to RDBMS pass-through
  SessionId sid = session == 0 ? 0 : ShardSession(session, s, false);
  if (session != 0 && sid == 0) {
    RecordResult(s, true);  // the mint round trip failed
    return err;
  }
  GetReply reply = shards_[s].backend->IQget(key, sid);
  RecordResult(s, reply.status == GetReply::Status::kTransportError);
  return reply;
}

StoreResult ShardedBackend::IQset(std::string_view key, std::string_view value,
                                  LeaseToken token) {
  // Tokens are child-issued; the key's shard is the child that issued it.
  return Gated(key, [&](KvsBackend& c) { return c.IQset(key, value, token); });
}

QaReadReply ShardedBackend::QaRead(std::string_view key, SessionId session) {
  return ToQaReadReply(
      std::move(Acquire(session, {{LeaseRequest::Kind::kQaRead, key}})[0]));
}

StoreResult ShardedBackend::SaR(std::string_view key,
                                std::optional<std::string_view> v_new,
                                LeaseToken token) {
  return Gated(key, [&](KvsBackend& c) { return c.SaR(key, v_new, token); });
}

QuarantineResult ShardedBackend::QaReg(SessionId tid, std::string_view key) {
  return ToQuarantineResult(
      Acquire(tid, {{LeaseRequest::Kind::kQaReg, key}})[0]);
}

void ShardedBackend::DaR(SessionId tid) {
  FanOut(TakeWritten(tid, /*forget=*/false), counters_.fanout_commits,
         [](KvsBackend& child, SessionId sid) { child.DaR(sid); });
}

QuarantineResult ShardedBackend::IQDelta(SessionId tid, std::string_view key,
                                         DeltaOp delta) {
  return ToQuarantineResult(Acquire(
      tid, {{LeaseRequest::Kind::kDelta, key, std::move(delta)}})[0]);
}

void ShardedBackend::Commit(SessionId tid) { CommitSwaps(tid, {}); }

void ShardedBackend::Abort(SessionId tid) {
  // An abort also forgets the child ids: the next transaction re-mints
  // them, so ids never outlive a session that failed on a dead shard.
  FanOut(TakeWritten(tid, /*forget=*/true), counters_.fanout_aborts,
         [](KvsBackend& child, SessionId sid) { child.Abort(sid); });
}

void ShardedBackend::ReleaseKey(SessionId tid, std::string_view key) {
  std::size_t s = ShardFor(key);
  SessionId sid = LookupShardSession(tid, s);
  if (sid == 0) return;  // never touched that shard: nothing held there
  if (ShardDown(s)) return;  // expiry reclaims the lease
  shards_[s].backend->ReleaseKey(sid, key);
}

std::vector<LeaseReply> ShardedBackend::Acquire(
    SessionId tid, const std::vector<LeaseRequest>& requests) {
  std::vector<LeaseReply> replies(requests.size());
  ShardGroups groups = GroupByShard(requests);
  for (std::size_t s : groups.order) {
    const std::vector<std::size_t>& idx = groups.by_shard[s];
    if (!AllowRequest(s)) {  // down: fail the write session fast
      replies[idx.front()].status = LeaseReply::Status::kTransportError;
      return replies;
    }
    SessionId sid = ShardSession(tid, s, true);
    if (sid == 0) {
      RecordResult(s, true);  // the mint round trip failed
      replies[idx.front()].status = LeaseReply::Status::kTransportError;
      return replies;
    }
    std::vector<LeaseRequest> part;
    part.reserve(idx.size());
    for (std::size_t i : idx) part.push_back(requests[i]);
    std::vector<LeaseReply> got = shards_[s].backend->Acquire(sid, part);
    bool transport = false;
    bool refused = false;
    for (std::size_t j = 0; j < idx.size(); ++j) {
      transport |= got[j].status == LeaseReply::Status::kTransportError;
      refused |= got[j].status != LeaseReply::Status::kGranted;
      if (got[j].status == LeaseReply::Status::kReject) {
        // "Release all, abort, retry" (Figure 5b) — enforced here so a Q
        // lease held on another shard cannot outlive the reject and
        // deadlock the retried session. The caller's own Abort() then
        // finds nothing left, which is harmless.
        ReleaseAllWritten(tid);
      }
      replies[idx[j]] = std::move(got[j]);
    }
    RecordResult(s, transport);
    if (refused) return replies;
  }
  return replies;
}

std::vector<StoreResult> ShardedBackend::CommitSwaps(
    SessionId tid, const std::vector<Swap>& swaps) {
  std::vector<StoreResult> results(swaps.size(), StoreResult::kTransportError);
  // Each written shard gets one call: its swaps, then its commit. A swap's
  // Q token comes from a lease the session took, which marked its shard
  // written, so no swap lies on another shard.
  std::vector<Written> written = TakeWritten(tid, /*forget=*/false);
  ShardGroups groups = GroupByShard(swaps);
  for (const Written& w : written) {
    if (ShardDown(w.shard)) continue;  // the expiry backstop, as in FanOut
    const std::vector<std::size_t>& idx = groups.by_shard[w.shard];
    std::vector<Swap> part;
    part.reserve(idx.size());
    for (std::size_t i : idx) part.push_back(swaps[i]);
    std::vector<StoreResult> got =
        shards_[w.shard].backend->CommitSwaps(w.sid, part);
    bool transport = false;
    for (std::size_t j = 0; j < idx.size(); ++j) {
      transport |= got[j] == StoreResult::kTransportError;
      results[idx[j]] = got[j];
    }
    if (!idx.empty()) RecordResult(w.shard, transport);
  }
  CountEnd(written.size(), counters_.fanout_commits);
  return results;
}

// ---- plain memcached operations --------------------------------------------

template <typename Call>
StoreResult ShardedBackend::Gated(std::string_view key, Call&& call) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = call(*shards_[s].backend);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

// The optional/bool-returning operations have no distinct error channel (a
// dead remote already surfaces as nullopt/false), so they cannot feed the
// breaker; they only honor it with a ShardDown fast path — no probe slot
// consumed, since their outcome could not heal the shard anyway.
template <typename Call>
auto ShardedBackend::UnlessDown(std::string_view key, Call&& call)
    -> decltype(call(std::declval<KvsBackend&>())) {
  std::size_t s = ShardFor(key);
  if (ShardDown(s)) return {};  // a degraded read is a miss, with no install
  return call(*shards_[s].backend);
}

std::optional<CacheItem> ShardedBackend::Get(std::string_view key) {
  return UnlessDown(key, [&](KvsBackend& c) { return c.Get(key); });
}

StoreResult ShardedBackend::Set(std::string_view key, std::string_view value) {
  return Gated(key, [&](KvsBackend& c) { return c.Set(key, value); });
}

StoreResult ShardedBackend::Add(std::string_view key, std::string_view value) {
  return Gated(key, [&](KvsBackend& c) { return c.Add(key, value); });
}

StoreResult ShardedBackend::Cas(std::string_view key, std::string_view value,
                                std::uint64_t cas) {
  return Gated(key, [&](KvsBackend& c) { return c.Cas(key, value, cas); });
}

StoreResult ShardedBackend::Append(std::string_view key,
                                   std::string_view blob) {
  return Gated(key, [&](KvsBackend& c) { return c.Append(key, blob); });
}

StoreResult ShardedBackend::Prepend(std::string_view key,
                                    std::string_view blob) {
  return Gated(key, [&](KvsBackend& c) { return c.Prepend(key, blob); });
}

std::optional<std::uint64_t> ShardedBackend::Incr(std::string_view key,
                                                  std::uint64_t amount) {
  return UnlessDown(key, [&](KvsBackend& c) { return c.Incr(key, amount); });
}

std::optional<std::uint64_t> ShardedBackend::Decr(std::string_view key,
                                                  std::uint64_t amount) {
  return UnlessDown(key, [&](KvsBackend& c) { return c.Decr(key, amount); });
}

bool ShardedBackend::DeleteVoid(std::string_view key) {
  return UnlessDown(key, [&](KvsBackend& c) { return c.DeleteVoid(key); });
}

// ---- introspection ---------------------------------------------------------

IQServerStats ShardedBackend::Stats() const {
  IQServerStats total;
  for (const Shard& s : shards_) {
    if (s.stats) Accumulate(total, s.stats(), kIQStatsFields);
  }
  return total;
}

std::vector<TraceEvent> ShardedBackend::TraceSnapshot(
    std::size_t max_events) const {
  return MergeDrains(shards_, max_events, [](const Shard& s, std::size_t n) {
    return s.trace ? s.trace(n) : std::vector<TraceEvent>{};
  });
}

TraceInfo ShardedBackend::TraceInfoTotal() const {
  TraceInfo total;
  for (const Shard& s : shards_) {
    if (s.trace_info) Accumulate(total, s.trace_info(), kTraceInfoFields);
  }
  return total;
}

ShardedBackendStats ShardedBackend::router_stats() const {
  return LoadCounters(counters_, kRouterStatsFields);
}

std::string ShardedBackend::FormatStats() const {
  // One call of each provider: a TCP child's `stats` is a round trip, and
  // the aggregate lines must be the sum of the breakdown printed after them.
  IQServerStats total;
  std::uint64_t reconnects = 0;
  std::string breakdown;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "shard" + std::to_string(i) + "_";
    AppendStat(breakdown, prefix + "endpoint", shards_[i].name);
    AppendStat(breakdown, prefix + "weight", shards_[i].weight);
    AppendStat(breakdown, prefix + "down", ShardDown(i) ? 1 : 0);
    AppendStat(breakdown, prefix + "transport_errors",
               health_[i].transport_errors.load(std::memory_order_relaxed));
    if (shards_[i].reconnects) {
      const std::uint64_t n = shards_[i].reconnects();
      reconnects += n;
      AppendStat(breakdown, prefix + "reconnects", n);
    }
    if (shards_[i].stats) {
      const IQServerStats s = shards_[i].stats();
      Accumulate(total, s, kIQStatsFields);
      AppendStats(breakdown, s, kIQStatsFields, prefix);
    }
  }
  std::string out;
  AppendStat(out, "shard_count", shards_.size());
  AppendStat(out, "ring_points", ring_.size());
  AppendStats(out, router_stats(), kRouterStatsFields);
  AppendStat(out, "reconnects", reconnects);
  AppendStats(out, total, kIQStatsFields);
  return out + breakdown;
}

}  // namespace iq
