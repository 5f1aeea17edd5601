#include "core/iq_client.h"

namespace iq {

IQClient::IQClient(KvsBackend& backend, Config config)
    : backend_(backend), config_(config), seed_rng_(config.seed) {
  if (config_.exponential_backoff) {
    backoff_ = std::make_unique<ExponentialBackoff>(config_.backoff_base,
                                                    config_.backoff_cap);
  } else {
    backoff_ = std::make_unique<FixedBackoff>(config_.backoff_base);
  }
  if (config_.near_capacity > 0) {
    near_ = std::make_unique<NearCache>(config_.near_capacity,
                                        backend_.clock());
  }
}

IQClient::IQClient(KvsBackend& backend) : IQClient(backend, Config{}) {}

std::unique_ptr<IQSession> IQClient::NewSession() {
  return std::unique_ptr<IQSession>(new IQSession(*this, backend_.GenID()));
}

IQSession::IQSession(IQClient& client, SessionId id)
    : client_(client),
      id_(id),
      rng_([&] {
        std::lock_guard lock(client.rng_mu_);
        return client.seed_rng_.Fork();
      }()),
      op_log_(client.config_.op_log),
      log_id_(op_log_ != nullptr ? op_log_->NewSessionId() : 0) {}

IQSession::~IQSession() {
  // A session destroyed without Commit() behaves like a failed application
  // node: abort explicitly so leases release immediately rather than
  // waiting for expiry.
  if (!i_tokens_.empty() || !q_tokens_.empty()) Abort();
  if (id_ != 0) client_.backend_.Abort(id_);
}

bool IQSession::EnsureId() {
  if (id_ != 0) return true;
  id_ = client_.backend_.GenID();
  return id_ != 0;
}

void IQSession::NearInvalidate(std::string_view key) {
  NearCache* near = client_.near_cache();
  if (near == nullptr) return;
  std::string skey(key);
  near->Invalidate(skey);
  near_written_.insert(std::move(skey));
}

void IQSession::Record(check::OpKind kind, std::string_view key,
                       std::optional<std::string_view> value) {
  if (op_log_ == nullptr) return;
  op_log_->Record(log_id_, kind, key.empty() ? 0 : TraceKeyHash(key),
                  value ? check::OpValueHash(*value) : check::kNoValueHash);
}

ClientGetResult IQSession::Get(std::string_view key, int max_retries) {
  ClientGetResult got = Lookup(key, max_retries);
  if (op_log_ != nullptr) {
    const bool hit = got.status == ClientGetResult::Status::kHit;
    Record(hit ? check::OpKind::kReadHit : check::OpKind::kReadMiss, key,
           hit ? std::optional<std::string_view>(got.value) : std::nullopt);
  }
  return got;
}

ClientGetResult IQSession::Lookup(std::string_view key, int max_retries) {
  NearCache* near = client_.near_cache();
  if (near != nullptr) {
    // Zero round trips: a locally valid entry is served straight from the
    // near cache. Entries self-invalidate past their granted interval, so
    // staleness stays within the server's bound (DESIGN.md §4.10).
    if (auto hit = near->Get(std::string(key))) {
      return {ClientGetResult::Status::kHit, std::move(hit->value), true,
              hit->remaining};
    }
  }
  // Re-mint a session id minted during an outage before issuing IQget: an
  // I lease granted under session 0 would be orphaned once the lazy
  // re-mint (via a later write verb) switches ids, leaving Commit/Abort
  // unable to release it.
  if (!EnsureId()) {
    ++stats_.transport_errors;
    return {ClientGetResult::Status::kMissNoInstall, {}};
  }
  for (int attempt = 0; attempt < max_retries; ++attempt) {
    GetReply reply = client_.backend_.IQget(key, id_);
    switch (reply.status) {
      case GetReply::Status::kHit:
        if (near != nullptr && reply.validity > 0) {
          near->Insert(std::string(key), reply.value, reply.validity);
        }
        return {ClientGetResult::Status::kHit, std::move(reply.value)};
      case GetReply::Status::kMissGrantedI:
        i_tokens_[std::string(key)] = reply.token;
        return {ClientGetResult::Status::kMissRecompute, {}};
      case GetReply::Status::kMissNoLease:
        return {ClientGetResult::Status::kMissNoInstall, {}};
      case GetReply::Status::kTransportError:
        // Cache unreachable: degrade the read to RDBMS pass-through. No I
        // lease exists, so kMissNoInstall is exact — compute fresh, install
        // nothing. Retrying here would spin the budget against a dead host.
        ++stats_.transport_errors;
        return {ClientGetResult::Status::kMissNoInstall, {}};
      case GetReply::Status::kMissBackoff: {
        ++stats_.get_backoffs;
        SleepFor(client_.backend_.clock(),
                 client_.backoff_->DelayFor(attempt, rng_));
        break;
      }
    }
  }
  return {ClientGetResult::Status::kTimeout, {}};
}

void IQSession::Put(std::string_view key, std::string_view value) {
  auto it = i_tokens_.find(std::string(key));
  if (it == i_tokens_.end()) return;  // no lease: nothing to install
  // The freshly computed value supersedes whatever the near cache holds;
  // it gains no validity of its own (grants only come with IQget hits).
  NearInvalidate(key);
  client_.backend_.IQset(key, value, it->second);
  i_tokens_.erase(it);
}

ClientQResult IQSession::Quarantine(std::string_view key) {
  return Acquire({{LeaseRequest::Kind::kQaReg, key}});
}

ClientQResult IQSession::QaRead(std::string_view key,
                                std::optional<std::string>& value) {
  std::vector<std::optional<std::string>> values;
  ClientQResult r = Acquire({{LeaseRequest::Kind::kQaRead, key}}, &values);
  if (r == ClientQResult::kGranted) value = std::move(values[0]);
  return r;
}

ClientQResult IQSession::Acquire(
    const std::vector<LeaseRequest>& requests,
    std::vector<std::optional<std::string>>* values) {
  if (values != nullptr) values->assign(requests.size(), std::nullopt);
  // Write-your-own-reads within this client: drop the local entries before
  // the leases land, so no later Get of this process serves a value this
  // session is about to replace or delete.
  for (const LeaseRequest& r : requests) NearInvalidate(r.key);
  if (requests.empty()) return ClientQResult::kGranted;
  if (!EnsureId()) {
    ++stats_.transport_errors;
    return ClientQResult::kTransportError;
  }
  std::vector<LeaseReply> replies = client_.backend_.Acquire(id_, requests);
  // A router runs the requests shard by shard, so a request it never ran
  // (kNotRun) may precede the refusal in caller order; the refusal alone
  // decides the result.
  bool not_run = false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const LeaseRequest& r = requests[i];
    LeaseReply& reply = replies[i];
    if (reply.status == LeaseReply::Status::kNotRun) {
      not_run = true;
      continue;
    }
    if (reply.status == LeaseReply::Status::kReject) {
      ++stats_.q_conflicts;
      return ClientQResult::kQConflict;
    }
    if (reply.status == LeaseReply::Status::kTransportError) {
      ++stats_.transport_errors;
      return ClientQResult::kTransportError;
    }
    switch (r.kind) {
      case LeaseRequest::Kind::kQaRead:
        q_tokens_[std::string(r.key)] = reply.token;
        // read_own once this logical session buffered a delta on the key
        // (the own-update probe, Section 4.2.2).
        if (op_log_ != nullptr) {
          Record(delta_keys_.count(TraceKeyHash(r.key)) != 0
                     ? check::OpKind::kReadOwn
                 : reply.value ? check::OpKind::kReadHit
                               : check::OpKind::kReadMiss,
                 r.key, reply.value);
        }
        if (values != nullptr) (*values)[i] = std::move(reply.value);
        break;
      case LeaseRequest::Kind::kQaReg:
        Record(check::OpKind::kInval, r.key);
        break;
      case LeaseRequest::Kind::kDelta:
        if (op_log_ != nullptr) {
          delta_keys_.insert(TraceKeyHash(r.key));
          Record(check::OpKind::kDelta, r.key);
        }
        break;
    }
  }
  if (not_run) {  // unasked with no refusal to explain it: state unknown
    ++stats_.transport_errors;
    return ClientQResult::kTransportError;
  }
  return ClientQResult::kGranted;
}

StoreResult IQSession::SaR(std::string_view key,
                           std::optional<std::string_view> v_new) {
  auto it = q_tokens_.find(std::string(key));
  if (it == q_tokens_.end()) return StoreResult::kNotStored;
  NearInvalidate(key);
  // Write intent BEFORE the install (check/oplog.h soundness rule).
  if (v_new) Record(check::OpKind::kWrite, key, v_new);
  StoreResult result = client_.backend_.SaR(key, v_new, it->second);
  q_tokens_.erase(it);
  if (result == StoreResult::kTransportError) ++stats_.transport_errors;
  return result;
}

std::vector<StoreResult> IQSession::Commit(std::vector<Swap> swaps) {
  std::vector<StoreResult> results(swaps.size(), StoreResult::kNotStored);
  std::vector<Swap> held;  // the swaps under a Q lease, token filled in
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < swaps.size(); ++i) {
    auto it = q_tokens_.find(std::string(swaps[i].key));
    if (it == q_tokens_.end()) continue;
    NearInvalidate(swaps[i].key);
    // Write intent BEFORE the install (check/oplog.h soundness rule).
    if (swaps[i].value) {
      Record(check::OpKind::kWrite, swaps[i].key, swaps[i].value);
    }
    swaps[i].token = it->second;
    held.push_back(swaps[i]);
    at.push_back(i);
  }
  std::vector<StoreResult> got = client_.backend_.CommitSwaps(id_, held);
  for (std::size_t j = 0; j < at.size(); ++j) {
    results[at[j]] = got[j];
    if (got[j] == StoreResult::kTransportError) ++stats_.transport_errors;
  }
  End(check::OpKind::kCommit);
  backoff_attempt_ = 0;
  return results;
}

void IQSession::Abort() {
  client_.backend_.Abort(id_);
  End(check::OpKind::kAbort);
}

void IQSession::End(check::OpKind kind) {
  if (op_log_ != nullptr) {
    if (kind == check::OpKind::kAbort &&
        stats_.transport_errors != session_transport_errors_) {
      kind = check::OpKind::kTransportError;
    }
    Record(kind);
    delta_keys_.clear();
    session_transport_errors_ = stats_.transport_errors;
  }
  // Re-invalidate everything this session wrote: a concurrent Get in this
  // process may have re-populated an entry between the write verb's eager
  // invalidation and the commit or abort taking effect.
  if (NearCache* near = client_.near_cache()) {
    for (const std::string& key : near_written_) near->Invalidate(key);
  }
  near_written_.clear();
  i_tokens_.clear();
  q_tokens_.clear();
}

void IQSession::DropLease(std::string_view key) {
  client_.backend_.ReleaseKey(id_, key);
  i_tokens_.erase(std::string(key));
  q_tokens_.erase(std::string(key));
}

void IQSession::Backoff() {
  SleepFor(client_.backend_.clock(),
           client_.backoff_->DelayFor(backoff_attempt_++, rng_));
}

}  // namespace iq
