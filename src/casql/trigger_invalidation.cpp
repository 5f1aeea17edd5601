#include "casql/trigger_invalidation.h"

#include <algorithm>

namespace iq::casql {
namespace {

// The trigger fires on the thread executing the DML, so each thread keeps
// its open managed sessions, oldest first. A trigger quarantines under the
// one whose transaction runs the DML.
thread_local std::vector<TriggerInvalidator::ManagedSession*> t_open;

}  // namespace

TriggerInvalidator::TriggerInvalidator(sql::Database& db, IQClient& client)
    : db_(db), client_(client) {}

void TriggerInvalidator::Register(const std::string& table, sql::DmlOp op,
                                  KeyMapper mapper) {
  db_.RegisterTrigger(
      table, op,
      [mapper = std::move(mapper)](sql::Transaction& txn,
                                   const sql::TriggerEvent& event) {
        OnTrigger(mapper, txn, event);
      });
}

void TriggerInvalidator::OnTrigger(const KeyMapper& mapper,
                                   const sql::Transaction& txn,
                                   const sql::TriggerEvent& event) {
  auto it = std::find_if(t_open.begin(), t_open.end(), [&](ManagedSession* s) {
    return s->txn_.get() == &txn;
  });
  // DML outside a managed session, or in one that can no longer commit.
  if (it == t_open.end() || (*it)->failed_) return;
  ManagedSession* session = *it;
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
  return t_open.empty() ? 0 : t_open.back()->iq_->id();
}

std::unique_ptr<TriggerInvalidator::ManagedSession>
TriggerInvalidator::BeginSession() {
  std::unique_ptr<ManagedSession> session(
      new ManagedSession(client_.NewSession(), db_.Begin()));
  t_open.push_back(session.get());
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
  std::erase(t_open, this);
  iq_->Commit();  // delete quarantined keys, release Q leases
  return true;
}

void TriggerInvalidator::ManagedSession::Abort() {
  if (finished_) return;
  finished_ = true;
  std::erase(t_open, this);
  txn_->Rollback();
  iq_->Abort();
}

}  // namespace iq::casql
