// Application-transparent invalidation via RDBMS triggers, in the spirit of
// SQLTrig (Ghandeharizadeh & Yap, cited as [16]) and the trigger-based
// arrangement of Figure 3 - but made *correct* by the IQ framework: instead
// of deleting impacted keys inside the transaction (the race of Section
// 3.1), the trigger quarantines them (QaReg) under the session's TID and
// the keys are deleted at commit (DaR).
//
// Each managed session runs on an IQSession, the one session engine: the
// trigger's quarantines, the commit and the abort are its verbs, so the
// session writes op-log records and re-mints an id its BeginSession lost.
//
// The developer registers, per (table, DML) pair, a KeyMapper that derives
// the impacted cache keys from the affected row - the "query to trigger
// translation" - then runs write transactions through ManagedSession:
//
//   TriggerInvalidator ti(db, client);
//   ti.Register("Users", sql::DmlOp::kUpdate, [](const sql::TriggerEvent& e) {
//     return std::vector<std::string>{"Profile:" + ToString((*e.new_row)[0])};
//   });
//   auto session = ti.BeginSession();
//   sql::Query(session->txn(), "UPDATE Users SET ... WHERE id = ?", {...});
//   session->Commit();   // commits the txn, then DaRs the quarantined keys
//
// Reads need no cooperation: any IQget-based reader observes strong
// consistency. DML executed outside a ManagedSession does NOT quarantine
// keys (the trigger has no session to attach to) - route all writes to
// covered tables through ManagedSession.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/iq_client.h"
#include "rdbms/database.h"

namespace iq::casql {

/// Derives the impacted cache keys from one DML event.
using KeyMapper = std::function<std::vector<std::string>(const sql::TriggerEvent&)>;

class TriggerInvalidator {
 public:
  TriggerInvalidator(sql::Database& db, IQClient& client);

  /// Quarantine the keys `mapper` derives whenever `op` fires on `table`
  /// inside a managed session.
  void Register(const std::string& table, sql::DmlOp op, KeyMapper mapper);

  /// One managed write session: an RDBMS transaction whose covered DMLs
  /// quarantine their impacted keys automatically. Not thread-safe: begin,
  /// run and end it on one thread, which may hold several open at once.
  /// Destroying an uncommitted session aborts it.
  class ManagedSession {
   public:
    ~ManagedSession();
    ManagedSession(const ManagedSession&) = delete;

    sql::Transaction& txn() { return *txn_; }

    /// Commit the transaction, then delete the quarantined keys and
    /// release the Q leases. False, with the transaction rolled back, if it
    /// had already failed or the cache tier did not confirm a quarantine
    /// (a stale value would outlive the commit).
    bool Commit();

    /// Roll back and release leases, leaving cached values in place.
    void Abort();

   private:
    friend class TriggerInvalidator;
    ManagedSession(std::unique_ptr<IQSession> iq,
                   std::unique_ptr<sql::Transaction> txn);

    std::unique_ptr<IQSession> iq_;
    std::unique_ptr<sql::Transaction> txn_;
    bool finished_ = false;
    bool failed_ = false;  // a quarantine was not confirmed: Commit fails
  };

  std::unique_ptr<ManagedSession> BeginSession();

  /// The id of the newest session open on this thread, or 0 (testing /
  /// diagnostics).
  static SessionId ActiveTid();

 private:
  static void OnTrigger(const KeyMapper& mapper, const sql::Transaction& txn,
                        const sql::TriggerEvent& event);

  sql::Database& db_;
  IQClient& client_;
};

}  // namespace iq::casql
