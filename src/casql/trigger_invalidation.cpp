#include "casql/trigger_invalidation.h"

namespace iq::casql {
namespace {

// The trigger fires on the thread executing the DML, so the active managed
// session is thread-local state.
thread_local TriggerInvalidator::ManagedSession* t_active = nullptr;

}  // namespace

TriggerInvalidator::TriggerInvalidator(sql::Database& db, KvsBackend& server)
    : db_(db), server_(server) {}

void TriggerInvalidator::Register(const std::string& table, sql::DmlOp op,
                                  KeyMapper mapper) {
  db_.RegisterTrigger(
      table, op,
      [this, mapper = std::move(mapper)](sql::Transaction&,
                                         const sql::TriggerEvent& event) {
        OnTrigger(mapper, event);
      });
}

void TriggerInvalidator::OnTrigger(const KeyMapper& mapper,
                                   const sql::TriggerEvent& event) {
  ManagedSession* session = t_active;
  // DML outside a managed session, or in one that can no longer commit.
  if (session == nullptr || session->failed_) return;
  for (const std::string& key : mapper(event)) {
    // QaReg voids I leases so racing readers cannot install values computed
    // from pre-commit snapshots. A server grants it (Figure 5a), but an
    // unreachable one leaves the key unquarantined.
    if (server_.QaReg(session->tid_, key) != QuarantineResult::kGranted) {
      session->failed_ = true;
      return;
    }
  }
}

SessionId TriggerInvalidator::ActiveTid() {
  return t_active != nullptr ? t_active->tid_ : 0;
}

std::unique_ptr<TriggerInvalidator::ManagedSession>
TriggerInvalidator::BeginSession() {
  SessionId tid = server_.GenID();  // 0: the cache tier is unreachable
  auto txn = db_.Begin();
  std::unique_ptr<ManagedSession> session(
      new ManagedSession(*this, tid, std::move(txn)));
  session->failed_ = (tid == 0);
  t_active = session.get();
  return session;
}

TriggerInvalidator::ManagedSession::ManagedSession(
    TriggerInvalidator& owner, SessionId tid,
    std::unique_ptr<sql::Transaction> txn)
    : owner_(owner), tid_(tid), txn_(std::move(txn)) {}

TriggerInvalidator::ManagedSession::~ManagedSession() {
  if (!finished_) Abort();
}

bool TriggerInvalidator::ManagedSession::Commit() {
  if (finished_) return false;
  finished_ = true;
  if (t_active == this) t_active = nullptr;
  if (failed_ || txn_->state() != sql::Transaction::State::kActive ||
      txn_->Commit() != sql::TxnResult::kOk) {
    txn_->Rollback();
    owner_.server_.Abort(tid_);  // leases released, values untouched
    return false;
  }
  owner_.server_.DaR(tid_);  // delete quarantined keys, release Q leases
  return true;
}

void TriggerInvalidator::ManagedSession::Abort() {
  if (finished_) return;
  finished_ = true;
  if (t_active == this) t_active = nullptr;
  txn_->Rollback();
  owner_.server_.Abort(tid_);
}

}  // namespace iq::casql
