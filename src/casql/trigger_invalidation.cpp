#include "casql/trigger_invalidation.h"

namespace iq::casql {
namespace {

// The trigger fires on the thread executing the DML, so the active managed
// session is thread-local state.
thread_local TriggerInvalidator::ManagedSession* t_active = nullptr;

}  // namespace

TriggerInvalidator::TriggerInvalidator(sql::Database& db, IQClient& client)
    : db_(db), client_(client) {}

void TriggerInvalidator::Register(const std::string& table, sql::DmlOp op,
                                  KeyMapper mapper) {
  db_.RegisterTrigger(
      table, op,
      [mapper = std::move(mapper)](sql::Transaction&,
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
    if (session->iq_->Quarantine(key) != ClientQResult::kGranted) {
      session->failed_ = true;
      return;
    }
  }
}

SessionId TriggerInvalidator::ActiveTid() {
  return t_active != nullptr ? t_active->iq_->id() : 0;
}

std::unique_ptr<TriggerInvalidator::ManagedSession>
TriggerInvalidator::BeginSession() {
  std::unique_ptr<ManagedSession> session(
      new ManagedSession(client_.NewSession(), db_.Begin()));
  t_active = session.get();
  return session;
}

TriggerInvalidator::ManagedSession::ManagedSession(
    std::unique_ptr<IQSession> iq, std::unique_ptr<sql::Transaction> txn)
    : iq_(std::move(iq)), txn_(std::move(txn)) {}

TriggerInvalidator::ManagedSession::~ManagedSession() {
  if (!finished_) Abort();
}

bool TriggerInvalidator::ManagedSession::Commit() {
  if (finished_) return false;
  if (failed_ || txn_->state() != sql::Transaction::State::kActive ||
      txn_->Commit() != sql::TxnResult::kOk) {
    Abort();  // leases released, values untouched
    return false;
  }
  finished_ = true;
  if (t_active == this) t_active = nullptr;
  iq_->Commit();  // delete quarantined keys, release Q leases
  return true;
}

void TriggerInvalidator::ManagedSession::Abort() {
  if (finished_) return;
  finished_ = true;
  if (t_active == this) t_active = nullptr;
  txn_->Rollback();
  iq_->Abort();
}

}  // namespace iq::casql
