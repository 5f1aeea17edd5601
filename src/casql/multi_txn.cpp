#include "casql/multi_txn.h"

namespace iq::casql {

MultiWriteOutcome ExecuteMultiTxn(CasqlSystem& system,
                                  const MultiWriteSpec& spec) {
  MultiWriteOutcome out;
  if (system.config().consistency != Consistency::kIQ) return out;
  const int max_restarts = system.config().max_session_restarts;
  KvsBackend& server = system.backend();
  std::vector<LeaseRequest> leases;
  for (const auto& u : spec.updates) {
    leases.push_back({LeaseRequest::Kind::kQaRead, u.key});
  }

  // One session for every attempt, so its back-off keeps escalating across
  // the restarts until Commit().
  auto iq_session = system.client().NewSession();
  for (int attempt = 0; attempt < max_restarts; ++attempt) {
    // Growing phase: every lease before the first transaction. A transport
    // error restarts like a conflict: the leases may not be in place.
    std::vector<std::optional<std::string>> olds;
    if (iq_session->Acquire(leases, &olds) != ClientQResult::kGranted) {
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
      // The deletes run under the Q leases; the commit then releases them
      // without writing.
      std::vector<Swap> releases;
      for (const auto& u : spec.updates) {
        server.DeleteVoid(u.key);
        releases.push_back({u.key, std::nullopt});
      }
      iq_session->Commit(std::move(releases));
      out.degraded_to_invalidate = true;
      return out;
    }

    // Shrinking phase: apply every refresh after the LAST commit.
    std::vector<std::optional<std::string>> news(spec.updates.size());
    std::vector<Swap> swaps;
    for (std::size_t i = 0; i < spec.updates.size(); ++i) {
      const auto& u = spec.updates[i];
      news[i] = u.refresh ? u.refresh(olds[i]) : std::nullopt;
      swaps.push_back({u.key, news[i]});
    }
    iq_session->Commit(std::move(swaps));
    out.committed = true;
    return out;
  }
  return out;
}

}  // namespace iq::casql
