#include "casql/casql.h"

#include "util/backoff.h"

namespace iq::casql {

const char* ToString(Technique t) {
  switch (t) {
    case Technique::kInvalidate: return "invalidate";
    case Technique::kRefresh: return "refresh";
    case Technique::kIncremental: return "incremental";
  }
  return "?";
}

const char* ToString(Consistency c) {
  switch (c) {
    case Consistency::kNone: return "none";
    case Consistency::kCas: return "cas";
    case Consistency::kReadLease: return "read-lease";
    case Consistency::kIQ: return "IQ";
  }
  return "?";
}

const char* ToString(LeasePlacement p) {
  switch (p) {
    case LeasePlacement::kPriorToTxn: return "prior-to-txn";
    case LeasePlacement::kInsideTxn: return "inside-txn";
  }
  return "?";
}

CasqlSystem::CasqlSystem(sql::Database& db, KvsBackend& backend,
                         CasqlConfig config)
    : db_(db),
      backend_(backend),
      config_(config),
      client_(backend, config.client) {}

std::unique_ptr<CasqlConnection> CasqlSystem::Connect() {
  // Each connection's audit sampler gets an independent, reproducible
  // stream: same seed + connection order => same audited hits.
  std::uint64_t n = connections_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<CasqlConnection>(new CasqlConnection(
      *this, client_.NewSession(),
      config_.client.seed ^ (0x9E3779B97F4A7C15ULL * (n + 1))));
}

CasqlConnection::CasqlConnection(CasqlSystem& system,
                                 std::unique_ptr<IQSession> session,
                                 std::uint64_t audit_seed)
    : system_(system), session_(std::move(session)), audit_rng_(audit_seed) {}

std::optional<std::string> CasqlConnection::ComputeFresh(
    const std::string& key, const ComputeFn& compute) {
  // A dedicated (fresh) RDBMS connection/transaction, so a miss inside a
  // write session never observes that session's uncommitted changes
  // (paper Section 6.2, the multi-connection approach).
  auto txn = system_.db_.Begin();
  auto value = compute(*txn);
  txn->Rollback();
  // read_db justifies the hash before any caller installs the value, so a
  // concurrent reader hitting it is always covered.
  session_->Record(check::OpKind::kReadDb, key, value);
  return value;
}

void CasqlConnection::MaybeAudit(const std::string& key,
                                 const std::optional<std::string>& observed,
                                 const ComputeFn& compute, bool near_hit,
                                 Nanos near_remaining) {
  const CasqlConfig& cfg = system_.config_;
  if (cfg.audit_rate <= 0 || !audit_rng_.NextBool(cfg.audit_rate)) return;
  if (cfg.consistency == Consistency::kIQ) {
    // Serialize against writers: a granted Q(refresh) lease proves no write
    // session is in flight on this key, so strong consistency demands the
    // value under the lease equal the RDBMS ground truth right now. The
    // just-observed hit value is NOT the comparand — a writer may have
    // legitimately committed between the hit and the audit.
    std::optional<std::string> current;
    if (session_->QaRead(key, current) != ClientQResult::kGranted) {
      // Conflict (a writer is mid-session) or transport error: no verdict.
      Bump(system_.audit_.skipped);
      return;
    }
    std::optional<std::string> truth = ComputeFresh(key, compute);
    // A KVS miss under the lease is never stale (the KVS is a subset of the
    // RDBMS); a present value disagreeing with the ground truth is.
    bool stale = current && (!truth || *truth != *current);
    session_->SaR(key, std::nullopt);  // release, leave the value in place
    Bump(system_.audit_.samples);
    if (near_hit && observed && (!truth || *truth != *observed)) {
      // A hit served from the client's near cache may trail the serialized
      // ground truth — that is the validity-interval contract working as
      // designed, but ONLY while the entry is inside its interval. The near
      // cache never serves expired entries, so near_remaining > 0 always
      // holds here; a violation of that invariant is real staleness.
      if (near_remaining > 0) {
        Bump(system_.audit_.bounded);
      } else {
        stale = true;
      }
    }
    if (stale) {
      Bump(system_.audit_.stale_reads_detected);
    }
    return;
  }
  // Baselines are audited lease-free (a Q lease would drop their concurrent
  // plain Sets, perturbing the system under measurement): compare the hit
  // the application saw against fresh ground truth. Racy by construction —
  // but unbounded staleness is exactly what the baselines exhibit.
  std::optional<std::string> truth = ComputeFresh(key, compute);
  bool stale = observed && (!truth || *truth != *observed);
  Bump(system_.audit_.samples);
  if (stale) {
    Bump(system_.audit_.stale_reads_detected);
  }
}

// ---- read sessions ----------------------------------------------------------

ReadOutcome CasqlConnection::Read(const std::string& key,
                                  const ComputeFn& compute) {
  switch (system_.config_.consistency) {
    case Consistency::kNone:
    case Consistency::kCas:
      return ReadPlain(key, compute);
    case Consistency::kReadLease:
    case Consistency::kIQ:
      return ReadLeased(key, compute);
  }
  return {};
}

ReadOutcome CasqlConnection::ReadPlain(const std::string& key,
                                       const ComputeFn& compute) {
  ReadOutcome out;
  auto item = system_.backend_.Get(key);
  if (item) {
    out.hit = true;
    out.value = std::move(item->value);
    session_->Record(check::OpKind::kReadHit, key, out.value);
    MaybeAudit(key, out.value, compute);
    return out;
  }
  session_->Record(check::OpKind::kReadMiss, key);
  out.computed = true;
  out.value = ComputeFresh(key, compute);
  // Race-prone: any number of concurrent sessions may install here, and a
  // value computed from a pre-update snapshot overwrites fresher data.
  if (out.value) system_.backend_.Set(key, *out.value);
  return out;
}

ReadOutcome CasqlConnection::ReadLeased(const std::string& key,
                                        const ComputeFn& compute) {
  ReadOutcome out;
  ClientGetResult got = session_->Get(key);
  if (got.status == ClientGetResult::Status::kHit) {
    out.hit = true;
    out.value = std::move(got.value);
    MaybeAudit(key, out.value, compute, got.near_hit, got.near_remaining);
    return out;
  }
  out.computed = true;
  out.value = ComputeFresh(key, compute);
  // Only a granted I lease installs. kMissNoInstall is our own quarantined
  // key (the key dies at our commit anyway) or an unreachable cache, and
  // kTimeout a contended one: recompute, install nothing.
  if (got.status == ClientGetResult::Status::kMissRecompute) {
    if (out.value) {
      session_->Put(key, *out.value);
    } else {
      session_->DropLease(key);  // nothing to install; unblock others
    }
  }
  return out;
}

// ---- write sessions ----------------------------------------------------------

WriteOutcome CasqlConnection::Write(const WriteSpec& spec) {
  // Each write's retries escalate the back-off from the base delay, not
  // from where the previous write's last Abort() left it.
  session_->ResetBackoff();
  if (system_.config_.consistency == Consistency::kIQ) return WriteIQ(spec);
  return WriteBaseline(spec);
}

WriteOutcome CasqlConnection::WriteBaseline(const WriteSpec& spec) {
  WriteOutcome out;
  KvsBackend& store = system_.backend_;
  const CasqlConfig& cfg = system_.config_;
  for (int attempt = 0; attempt < cfg.max_session_restarts; ++attempt) {
    auto txn = system_.db_.Begin();
    bool ok = spec.body(*txn);
    if (txn->state() == sql::Transaction::State::kAborted) {
      session_->Record(check::OpKind::kAbort);
      ++out.rdbms_restarts;
      session_->Backoff();
      continue;
    }
    if (!ok) {
      txn->Rollback();
      session_->Record(check::OpKind::kAbort);
      return out;
    }
    if (cfg.technique == Technique::kInvalidate) {
      // Trigger-style placement: the delete executes inside the RDBMS
      // transaction, before commit - the race-prone shape of Figure 3.
      for (const auto& u : spec.updates) {
        session_->Record(check::OpKind::kInval, u.key);
        system_.backend_.DeleteVoid(u.key);
      }
      txn->Commit();
      session_->Record(check::OpKind::kCommit);
      out.committed = true;
      return out;
    }
    // Mixed-mode updates that force invalidation are deleted trigger-style.
    for (const auto& u : spec.updates) {
      if (!u.invalidate) continue;
      session_->Record(check::OpKind::kInval, u.key);
      system_.backend_.DeleteVoid(u.key);
    }
    txn->Commit();
    switch (cfg.technique) {
      case Technique::kRefresh:
        for (const auto& u : spec.updates) {
          if (u.invalidate || !u.refresh) continue;
          if (cfg.consistency == Consistency::kNone) {
            // Figure 1b: read, modify in application memory, set.
            auto item = store.Get(u.key);
            std::optional<std::string> old =
                item ? std::optional<std::string>(std::move(item->value))
                     : std::nullopt;
            session_->Record(
                old ? check::OpKind::kReadHit : check::OpKind::kReadMiss,
                u.key, old);
            auto v_new = u.refresh(old);
            if (cfg.baseline_rmw_delay > 0) {
              SleepFor(SteadyClock::Instance(), cfg.baseline_rmw_delay);
            }
            if (v_new) {
              session_->Record(check::OpKind::kWrite, u.key, v_new);
              store.Set(u.key, *v_new);
            }
          } else {
            // Figure 10: R-M-W via compare-and-swap with retry. Atomic per
            // key, yet still unable to impose the RDBMS serial order
            // (Figure 2), so stale values survive.
            for (int i = 0; i < cfg.max_cas_retries; ++i) {
              auto item = store.Get(u.key);
              if (!item) {
                session_->Record(check::OpKind::kReadMiss, u.key);
                auto v_new = u.refresh(std::nullopt);
                if (!v_new) break;
                session_->Record(check::OpKind::kWrite, u.key, v_new);
                if (store.Add(u.key, *v_new) == StoreResult::kStored) break;
                continue;  // lost the add race; retry as an update
              }
              session_->Record(check::OpKind::kReadHit, u.key, item->value);
              auto v_new = u.refresh(item->value);
              if (!v_new) break;
              if (cfg.baseline_rmw_delay > 0) {
                SleepFor(SteadyClock::Instance(), cfg.baseline_rmw_delay);
              }
              session_->Record(check::OpKind::kWrite, u.key, v_new);
              if (store.Cas(u.key, *v_new, item->cas) == StoreResult::kStored) {
                break;
              }
            }
          }
        }
        break;
      case Technique::kIncremental:
        for (const auto& u : spec.updates) {
          if (u.invalidate || !u.delta) continue;
          session_->Record(check::OpKind::kDelta, u.key);
          switch (u.delta->kind) {
            case DeltaOp::Kind::kAppend:
              store.Append(u.key, u.delta->blob);
              break;
            case DeltaOp::Kind::kPrepend:
              store.Prepend(u.key, u.delta->blob);
              break;
            case DeltaOp::Kind::kIncr:
              store.Incr(u.key, u.delta->amount);
              break;
            case DeltaOp::Kind::kDecr:
              store.Decr(u.key, u.delta->amount);
              break;
          }
        }
        break;
      case Technique::kInvalidate:
        break;  // handled above
    }
    session_->Record(check::OpKind::kCommit);
    out.committed = true;
    return out;
  }
  return out;
}

namespace {

/// The Q lease a write session takes on `u` (Figure 5): QaReg under
/// invalidate or for a key the spec forces to invalidate, QaRead under
/// refresh, IQ-delta for a key with a delta under incremental, and none for
/// an incremental key without one.
std::optional<LeaseRequest> LeaseFor(Technique t, const KeyUpdate& u) {
  if (t == Technique::kInvalidate || u.invalidate) {
    return LeaseRequest{LeaseRequest::Kind::kQaReg, u.key};
  }
  if (t == Technique::kRefresh) {
    return LeaseRequest{LeaseRequest::Kind::kQaRead, u.key};
  }
  if (u.delta) return LeaseRequest{LeaseRequest::Kind::kDelta, u.key, *u.delta};
  return std::nullopt;
}

}  // namespace

WriteOutcome CasqlConnection::WriteIQ(const WriteSpec& spec) {
  WriteOutcome out;
  const CasqlConfig& cfg = system_.config_;
  const bool refresh = cfg.technique == Technique::kRefresh;
  // Placement (Figure 9, Table 6) only decides whether the leases are taken
  // before the RDBMS transaction begins or inside it, after the body. For
  // invalidate it only moves when the quarantine window opens: a reachable
  // server always grants QaReg (Figure 5a).
  const bool leases_first = cfg.placement == LeasePlacement::kPriorToTxn;
  std::vector<LeaseRequest> leases;
  for (const auto& u : spec.updates) {
    if (auto lease = LeaseFor(cfg.technique, u)) leases.push_back(*lease);
  }
  for (int attempt = 0; attempt < cfg.max_session_restarts; ++attempt) {
    std::unique_ptr<sql::Transaction> txn;
    std::vector<std::optional<std::string>> news;
    std::vector<Swap> swaps;
    // Take every lease; refresh then computes its new values from the ones
    // its leases read. On a rejection (Figure 5b) or a transport error,
    // release everything, roll back, back off and restart the whole
    // session: a lease or quarantine that may not be in place leaves the
    // commit unprotected, and an invalidated value permanently stale.
    auto acquire = [&] {
      std::vector<std::optional<std::string>> olds;
      ClientQResult q = session_->Acquire(leases, refresh ? &olds : nullptr);
      if (q != ClientQResult::kGranted) {
        if (txn) txn->Rollback();
        session_->Abort();
        if (q == ClientQResult::kQConflict) {
          ++out.q_restarts;
        } else {
          ++out.transport_restarts;
        }
        session_->Backoff();
        return false;
      }
      if (refresh) {
        // Every update holds a lease under refresh, so olds[i] is update i's.
        news.resize(spec.updates.size());
        for (std::size_t i = 0; i < spec.updates.size(); ++i) {
          const KeyUpdate& u = spec.updates[i];
          if (u.invalidate) continue;
          if (u.refresh) news[i] = u.refresh(olds[i]);
          swaps.push_back({u.key, news[i]});
        }
      }
      return true;
    };
    if (leases_first && !acquire()) continue;
    txn = system_.db_.Begin();
    bool ok = spec.body(*txn);
    bool conflicted = txn->state() == sql::Transaction::State::kAborted;
    if (!ok || conflicted) {
      txn->Rollback();
      session_->Abort();  // leaves current versions in the KVS
      if (!conflicted) return out;
      ++out.rdbms_restarts;
      session_->Backoff();
      continue;
    }
    if (!leases_first && !acquire()) continue;
    txn->Commit();
    // Post-RDBMS-commit failures are tolerable: every impacted key holds a
    // Q lease, and an unreleased one expires server-side and deletes its
    // key, so no stale value survives a lost commit. The swaps travel with
    // the commit, which also deletes the quarantined keys and applies the
    // buffered deltas.
    session_->Commit(std::move(swaps));
    out.committed = true;
    return out;
  }
  return out;
}

}  // namespace iq::casql
