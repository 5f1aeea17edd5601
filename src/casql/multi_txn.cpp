#include "casql/multi_txn.h"

namespace iq::casql {

MultiWriteOutcome ExecuteMultiTxn(CasqlSystem& system,
                                  const MultiWriteSpec& spec) {
  MultiWriteOutcome out;
  if (system.config().consistency != Consistency::kIQ) return out;
  const int max_restarts = system.config().max_session_restarts;
  KvsBackend& server = system.backend();

  // One session for every attempt, so its back-off keeps escalating across
  // the restarts until Commit().
  auto iq_session = system.client().NewSession();
  for (int attempt = 0; attempt < max_restarts; ++attempt) {
    // Growing phase: every lease before the first transaction.
    std::vector<std::optional<std::string>> olds(spec.updates.size());
    bool conflict = false;
    for (std::size_t i = 0; i < spec.updates.size(); ++i) {
      if (iq_session->QaRead(spec.updates[i].key, olds[i]) ==
          ClientQResult::kQConflict) {
        conflict = true;
        break;
      }
    }
    if (conflict) {
      iq_session->Abort();
      ++out.q_restarts;
      iq_session->Backoff();
      continue;
    }

    // Run the transaction sequence. Individual conflicts retry that
    // transaction; a body returning false aborts the session.
    std::size_t committed_txns = 0;
    bool session_failed = false;
    for (const auto& body : spec.bodies) {
      bool txn_done = false;
      for (int txn_try = 0; txn_try < max_restarts && !txn_done; ++txn_try) {
        auto txn = system.db().Begin();
        ++out.transactions_run;
        bool ok = body(*txn);
        if (txn->state() == sql::Transaction::State::kAborted) {
          iq_session->Backoff();
          continue;  // write-write conflict: retry this transaction
        }
        if (!ok) {
          txn->Rollback();
          session_failed = true;
          break;
        }
        if (txn->Commit() == sql::TxnResult::kOk) {
          txn_done = true;
          ++committed_txns;
        }
      }
      if (session_failed || !txn_done) {
        session_failed = true;
        break;
      }
    }

    if (session_failed) {
      if (committed_txns == 0) {
        // Nothing reached the database: plain abort, values intact.
        iq_session->Abort();
        return out;
      }
      // Mid-sequence failure after some commits: the cached values can no
      // longer be refreshed consistently, so fall back to deleting them -
      // a delete is always safe and readers recompute from the database.
      for (const auto& u : spec.updates) {
        iq_session->SaR(u.key, std::nullopt);  // release without writing
        server.DeleteVoid(u.key);
      }
      iq_session->Commit();
      out.degraded_to_invalidate = true;
      return out;
    }

    // Shrinking phase: apply every refresh after the LAST commit.
    for (std::size_t i = 0; i < spec.updates.size(); ++i) {
      const auto& u = spec.updates[i];
      std::optional<std::string> v_new =
          u.refresh ? u.refresh(olds[i]) : std::nullopt;
      iq_session->SaR(u.key, v_new ? std::optional<std::string_view>(*v_new)
                                   : std::nullopt);
    }
    iq_session->Commit();
    out.committed = true;
    return out;
  }
  return out;
}

}  // namespace iq::casql
