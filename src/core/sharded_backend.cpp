#include "core/sharded_backend.h"

#include <algorithm>
#include <sstream>
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

// Counter names and members come from the canonical kIQStatsFields table
// (core/iq_stats.h), shared with net::FormatStats/ParseIQStats so the
// per-shard lines stay grep-compatible with a child's own `stats` output.
void Accumulate(IQServerStats& total, const IQServerStats& s) {
  for (const IQStatsField& f : kIQStatsFields) total.*f.member += s.*f.member;
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
      shard_recoveries_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  h.transport_errors.fetch_add(1, std::memory_order_relaxed);
  transport_errors_.fetch_add(1, std::memory_order_relaxed);
  std::uint32_t streak =
      h.consecutive_errors.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.down_after_errors == 0) return;  // breaker disabled
  if (streak >= config_.down_after_errors) {
    if (!h.down.exchange(true, std::memory_order_acq_rel)) {
      shard_trips_.fetch_add(1, std::memory_order_relaxed);
    }
    // Tripping and a failed probe both push the next probe out one full
    // interval from now.
    h.next_probe.store(clock_.Now() + config_.probe_interval,
                       std::memory_order_release);
  }
}

// ---- session plumbing ------------------------------------------------------

SessionId ShardedBackend::GenID() {
  sessions_.fetch_add(1, std::memory_order_relaxed);
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
    shard_sessions_.fetch_add(1, std::memory_order_relaxed);
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
  reject_releases_.fetch_add(1, std::memory_order_relaxed);
}

template <typename End>
void ShardedBackend::FanOut(const std::vector<Written>& written,
                            std::atomic<std::uint64_t>& logical, End&& end) {
  for (const Written& w : written) {
    // Safe to skip a down shard: its unreleased leases expire, and expiry
    // DELETES the key (Section 6.1) — readers recompute from the RDBMS, so
    // no stale value survives the missed commit or abort.
    if (!ShardDown(w.shard)) end(*shards_[w.shard].backend, w.sid);
  }
  CountEnd(written.size(), logical);
}

void ShardedBackend::CountEnd(std::size_t written,
                              std::atomic<std::uint64_t>& logical) {
  if (written > 0) logical.fetch_add(1, std::memory_order_relaxed);
  if (written > 1) {
    cross_shard_sessions_.fetch_add(1, std::memory_order_relaxed);
  }
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
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->IQset(key, value, token);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

QaReadReply ShardedBackend::QaRead(std::string_view key, SessionId session) {
  return ToQaReadReply(
      std::move(Acquire(session, {{LeaseRequest::Kind::kQaRead, key}})[0]));
}

StoreResult ShardedBackend::SaR(std::string_view key,
                                std::optional<std::string_view> v_new,
                                LeaseToken token) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->SaR(key, v_new, token);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

QuarantineResult ShardedBackend::QaReg(SessionId tid, std::string_view key) {
  return ToQuarantineResult(
      Acquire(tid, {{LeaseRequest::Kind::kQaReg, key}})[0]);
}

void ShardedBackend::DaR(SessionId tid) {
  FanOut(TakeWritten(tid, /*forget=*/false), fanout_commits_,
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
  FanOut(TakeWritten(tid, /*forget=*/true), fanout_aborts_,
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
  CountEnd(written.size(), fanout_commits_);
  return results;
}

// ---- plain memcached operations --------------------------------------------

// The optional/bool-returning operations have no distinct error channel (a
// dead remote already surfaces as nullopt/false), so they cannot feed the
// breaker; they only honor it with a ShardDown fast path — no probe slot
// consumed, since their outcome could not heal the shard anyway.

std::optional<CacheItem> ShardedBackend::Get(std::string_view key) {
  std::size_t s = ShardFor(key);
  if (ShardDown(s)) return std::nullopt;  // degraded read: miss, no install
  return shards_[s].backend->Get(key);
}

StoreResult ShardedBackend::Set(std::string_view key, std::string_view value) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->Set(key, value);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

StoreResult ShardedBackend::Add(std::string_view key, std::string_view value) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->Add(key, value);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

StoreResult ShardedBackend::Cas(std::string_view key, std::string_view value,
                                std::uint64_t cas) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->Cas(key, value, cas);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

StoreResult ShardedBackend::Append(std::string_view key,
                                   std::string_view blob) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->Append(key, blob);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

StoreResult ShardedBackend::Prepend(std::string_view key,
                                    std::string_view blob) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->Prepend(key, blob);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

std::optional<std::uint64_t> ShardedBackend::Incr(std::string_view key,
                                                  std::uint64_t amount) {
  std::size_t s = ShardFor(key);
  if (ShardDown(s)) return std::nullopt;
  return shards_[s].backend->Incr(key, amount);
}

std::optional<std::uint64_t> ShardedBackend::Decr(std::string_view key,
                                                  std::uint64_t amount) {
  std::size_t s = ShardFor(key);
  if (ShardDown(s)) return std::nullopt;
  return shards_[s].backend->Decr(key, amount);
}

bool ShardedBackend::DeleteVoid(std::string_view key) {
  std::size_t s = ShardFor(key);
  if (ShardDown(s)) return false;
  return shards_[s].backend->DeleteVoid(key);
}

// ---- introspection ---------------------------------------------------------

IQServerStats ShardedBackend::Stats() const {
  IQServerStats total;
  for (const Shard& s : shards_) {
    if (s.stats) Accumulate(total, s.stats());
  }
  return total;
}

std::vector<TraceEvent> ShardedBackend::TraceSnapshot(
    std::size_t max_events) const {
  std::vector<TraceEvent> merged;
  if (max_events == 0) return merged;
  for (const Shard& s : shards_) {
    if (!s.trace) continue;
    std::vector<TraceEvent> part = s.trace(max_events);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  // Each child drain is already (at, shard, seq)-ordered; a stable sort on
  // the timestamp alone therefore yields (at, child, shard, seq) — equal
  // timestamps (ManualClock tests, coarse clocks) stay deterministic and
  // per-key causal, since one key's events all live in one child's ring.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.at < b.at;
                   });
  if (merged.size() > max_events) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  return merged;
}

TraceInfo ShardedBackend::TraceInfoTotal() const {
  TraceInfo total;
  for (const Shard& s : shards_) {
    if (!s.trace_info) continue;
    const TraceInfo info = s.trace_info();
    total.recorded += info.recorded;
    total.dropped += info.dropped;
    total.capacity += info.capacity;
  }
  return total;
}

ShardedBackendStats ShardedBackend::router_stats() const {
  ShardedBackendStats s;
  s.sessions = sessions_.load(std::memory_order_relaxed);
  s.shard_sessions = shard_sessions_.load(std::memory_order_relaxed);
  s.fanout_commits = fanout_commits_.load(std::memory_order_relaxed);
  s.fanout_aborts = fanout_aborts_.load(std::memory_order_relaxed);
  s.cross_shard_sessions =
      cross_shard_sessions_.load(std::memory_order_relaxed);
  s.reject_releases = reject_releases_.load(std::memory_order_relaxed);
  s.transport_errors = transport_errors_.load(std::memory_order_relaxed);
  s.shard_trips = shard_trips_.load(std::memory_order_relaxed);
  s.shard_recoveries = shard_recoveries_.load(std::memory_order_relaxed);
  return s;
}

std::string ShardedBackend::FormatStats() const {
  std::ostringstream out;
  auto stat = [&](const std::string& name, std::uint64_t v) {
    out << "STAT " << name << " " << v << "\r\n";
  };
  ShardedBackendStats router = router_stats();
  stat("shard_count", shards_.size());
  stat("ring_points", ring_.size());
  stat("router_sessions", router.sessions);
  stat("router_shard_sessions", router.shard_sessions);
  stat("router_fanout_commits", router.fanout_commits);
  stat("router_fanout_aborts", router.fanout_aborts);
  stat("router_cross_shard_sessions", router.cross_shard_sessions);
  stat("router_reject_releases", router.reject_releases);
  stat("transport_errors", router.transport_errors);
  stat("shard_trips", router.shard_trips);
  stat("shard_recoveries", router.shard_recoveries);
  std::uint64_t reconnects = 0;
  for (const Shard& s : shards_) {
    if (s.reconnects) reconnects += s.reconnects();
  }
  stat("reconnects", reconnects);
  IQServerStats total = Stats();
  for (const IQStatsField& f : kIQStatsFields) stat(f.name, total.*f.member);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::string prefix = "shard" + std::to_string(i) + "_";
    out << "STAT " << prefix << "endpoint " << shards_[i].name << "\r\n";
    stat(prefix + "weight", shards_[i].weight);
    stat(prefix + "down", ShardDown(i) ? 1 : 0);
    stat(prefix + "transport_errors",
         health_[i].transport_errors.load(std::memory_order_relaxed));
    if (shards_[i].reconnects) {
      stat(prefix + "reconnects", shards_[i].reconnects());
    }
    if (!shards_[i].stats) continue;
    IQServerStats s = shards_[i].stats();
    for (const IQStatsField& f : kIQStatsFields) {
      stat(prefix + f.name, s.*f.member);
    }
  }
  return out.str();
}

}  // namespace iq
