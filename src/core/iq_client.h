// IQ-Client: the application-facing side of the IQ framework (the paper's
// modified Whalin client). Lease tokens and back-off are managed here and
// are invisible to application code; a session object exposes the paper's
// programming model:
//
//   read session:   Get() -> hit, or miss + permission to recompute;
//                   Put() installs the recomputed value (token attached).
//   write session:  Acquire() (QaRead, QaReg and delta leases) before the
//                   RDBMS commit, then Commit(swaps) after it; Abort() on
//                   failure. Each costs one backend call, whatever the key
//                   count (one round trip per shard over the wire).
//                   QaRead()/Quarantine()/SaR() are one-key forms.
//
// A QaRead/delta rejection (Q-Q conflict, Figure 5b) surfaces as
// kQConflict: the caller must release everything (Abort()), roll back its
// RDBMS transaction, back off (Backoff()), and re-run the whole session.
//
// The session is also the one writer of the client op log the offline
// checker reads (check/oplog.h, DESIGN.md §4.8): with
// IQClient::Config::op_log set, every verb appends its own record.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "check/oplog.h"
#include "core/kvs_backend.h"
#include "core/near_cache.h"
#include "util/backoff.h"
#include "util/rng.h"

namespace iq {

/// Client-side view of a read.
struct ClientGetResult {
  enum class Status {
    kHit,        // value returned
    kMissRecompute,  // query the RDBMS and call Put() with the result
    kMissNoInstall,  // query the RDBMS; do NOT Put() (own quarantined key)
    kTimeout,    // retry budget exhausted while backing off
  };
  Status status;
  std::string value;
  /// kHit only: served from the client's near cache, zero round trips.
  bool near_hit = false;
  /// near_hit only: how much of the granted validity interval remained at
  /// serve time (> 0 — expired entries are never served). Lets the casql
  /// auditor assert an observed-stale near hit is within its interval.
  Nanos near_remaining = 0;
};

/// Client-side view of a quarantine request.
enum class ClientQResult {
  kGranted,
  kQConflict,  // release all leases, roll back, back off, restart session
  kTransportError,  // cache unreachable; the lease/quarantine is NOT in
                    // place. The caller must treat this like a conflict
                    // (roll back, back off, restart) — never commit the
                    // RDBMS txn as if the quarantine succeeded.
};

/// Per-session client-side counters (drives Table 6).
struct SessionStats {
  std::uint64_t get_backoffs = 0;
  std::uint64_t q_conflicts = 0;
  std::uint64_t transport_errors = 0;
};

class IQClient;

/// One session: at most one RDBMS transaction plus KVS operations, with all
/// leases released by Commit()/Abort(). Not thread-safe (a session belongs
/// to one application thread, like one memcached connection).
class IQSession {
 public:
  ~IQSession();
  IQSession(IQSession&&) = delete;

  SessionId id() const { return id_; }
  const SessionStats& stats() const { return stats_; }

  // ---- read path ----------------------------------------------------------

  /// IQget with transparent back-off (up to `max_retries` attempts). A
  /// transport error surfaces as kMissNoInstall: read the RDBMS directly,
  /// install nothing — safe (no token exists to install with) and it
  /// degrades reads to pass-through instead of spinning the retry budget
  /// against an unreachable server. Logs read_hit (near-cache hits
  /// included) or read_miss.
  ClientGetResult Get(std::string_view key, int max_retries = 100);

  /// Install a value computed after a kMissRecompute. Silently ignored by
  /// the server when the I lease was voided meanwhile. Logs nothing: the
  /// caller already logged the computed value as read_db.
  void Put(std::string_view key, std::string_view value);

  // ---- write path: invalidate ----------------------------------------------

  /// Quarantine `key` for deletion at Commit (QaReg). Granted whenever the
  /// server is reachable; kTransportError means the quarantine is NOT in
  /// place and the session must abort/back off/retry, not commit. Logs
  /// inval.
  ClientQResult Quarantine(std::string_view key);

  // ---- write path: refresh ---------------------------------------------------

  /// Quarantine-and-Read. On kGranted, `value` holds the current value
  /// (nullopt on KVS miss) and the Q lease is held until SaR/Commit/Abort.
  /// Logs read_hit/read_miss, or read_own once this logical session has
  /// buffered a delta on `key` (the own-update probe, Section 4.2.2).
  ClientQResult QaRead(std::string_view key, std::optional<std::string>& value);

  /// Swap-and-Release for a key previously QaRead by this session; a null
  /// `v_new` only releases. Returns the backend's answer (kStored: the new
  /// value is installed), or kNotStored when no Q lease is held on `key`.
  /// A new value's write intent is logged before the install.
  StoreResult SaR(std::string_view key, std::optional<std::string_view> v_new);

  // ---- write path: batched ----------------------------------------------------

  /// Take every lease of a write session in one backend call, in order:
  /// kQaRead as QaRead(), kQaReg as Quarantine(), kDelta buffering an
  /// incremental update that Commit() applies server-side, with their
  /// near-cache invalidation, tokens and op-log records, up to the first
  /// request not granted, whose outcome is the result. QaRead() and
  /// Quarantine() are this call with one request. On kGranted,
  /// (*values)[i] holds request i's QaRead value (values is resized to
  /// match `requests`).
  ClientQResult Acquire(const std::vector<LeaseRequest>& requests,
                        std::vector<std::optional<std::string>>* values =
                            nullptr);

  // ---- lifecycle ------------------------------------------------------------

  /// SaR every swap (a null value releases only), then apply buffered
  /// changes (delete invalidated keys, apply deltas) and release every
  /// lease — one backend call. Call after the RDBMS transaction commits.
  /// Each swap goes out under the session's Q(refresh) token for its key
  /// (the swap's own token field is ignored); a key without one reports
  /// kNotStored and is not sent. Write intents are logged before the call.
  /// Returns the swaps' results, in order. Resets the back-off escalation.
  std::vector<StoreResult> Commit(std::vector<Swap> swaps);
  /// Commit with no swaps.
  void Commit() { Commit(std::vector<Swap>{}); }

  /// Discard buffered changes and release every lease, leaving current
  /// values in place. Call when the RDBMS transaction aborts. Keeps the
  /// back-off escalation, so each retry of a session waits longer. Logs
  /// abort, or transport_error when a verb of this logical session failed
  /// on transport.
  void Abort();

  /// Sleep per the client's back-off policy; increments the attempt counter
  /// so repeated calls wait longer. Reset by Commit() and ResetBackoff().
  void Backoff();

  /// Reset the back-off escalation to base delay, for a caller starting a
  /// new logical operation (CasqlConnection::Write() does on entry).
  void ResetBackoff() { backoff_attempt_ = 0; }

  /// Current back-off escalation level (0 = next Backoff waits base delay).
  int backoff_attempt() const { return backoff_attempt_; }

  /// Relinquish a lease held on one key without applying anything (e.g. an
  /// I lease whose recompute found no row to cache).
  void DropLease(std::string_view key);

  /// Op-log record for an operation no verb of this session sees — an
  /// RDBMS ground-truth read (read_db) or a lease-free baseline verb —
  /// under this session's op-log id. No-op without IQClient::Config::op_log.
  void Record(check::OpKind kind, std::string_view key = {},
              std::optional<std::string_view> value = std::nullopt);

 private:
  friend class IQClient;
  IQSession(IQClient& client, SessionId id);

  /// Get() without its op-log record.
  ClientGetResult Lookup(std::string_view key, int max_retries);

  /// The shared tail of Commit() and Abort(): log the logical session's end
  /// as `kind` (an abort whose session saw a transport failure as
  /// transport_error) and forget its written keys and tokens.
  void End(check::OpKind kind);

  /// Sessions minted while the server was unreachable carry id 0; re-mint
  /// lazily so such a session heals once the backend reconnects. False
  /// while the backend stays unreachable.
  bool EnsureId();

  /// Eagerly drop `key` from the client's near cache (write-your-own-reads
  /// within this client) and remember it so Commit/Abort re-invalidate —
  /// a racing Get of another session could re-populate the entry between
  /// the verb and the commit.
  void NearInvalidate(std::string_view key);

  IQClient& client_;
  SessionId id_;
  /// I-lease tokens held for keys read via Get().
  std::unordered_map<std::string, LeaseToken> i_tokens_;
  /// Q(refresh) tokens held via QaRead.
  std::unordered_map<std::string, LeaseToken> q_tokens_;
  /// Keys this session wrote (near-cache re-invalidation at Commit/Abort).
  std::unordered_set<std::string> near_written_;
  int backoff_attempt_ = 0;
  SessionStats stats_;
  Rng rng_;
  /// IQClient::Config::op_log (null = no logging) and this session's id in
  /// it, which is not the backend's session id.
  check::OpLog* const op_log_;
  const std::uint64_t log_id_;
  /// Kept only while logging: hashes of the keys this logical session
  /// buffered a delta on (a QaRead of one logs read_own), and
  /// stats_.transport_errors when the logical session began.
  std::unordered_set<std::uint64_t> delta_keys_;
  std::uint64_t session_transport_errors_ = 0;
};

/// Factory bound to one IQ-Server; hands out sessions.
class IQClient {
 public:
  struct Config {
    /// Back-off before retrying a contended read or a restarted session.
    Nanos backoff_base = 50 * kNanosPerMicro;
    Nanos backoff_cap = 10 * kNanosPerMilli;
    /// false selects FixedBackoff(backoff_base) (the A3 ablation).
    bool exponential_backoff = true;
    /// Near-cache entry capacity (DESIGN.md §4.10). 0 = no near cache (the
    /// default). Entries are only ever stored when the server grants a
    /// validity interval with a hit, so enabling this against a server with
    /// near_validity == 0 is a harmless no-op.
    std::size_t near_capacity = 0;
    std::uint64_t seed = 42;
    /// Client op log for the offline checker (check/oplog.h): every
    /// session verb appends its record here, under an id the log hands
    /// each session. Null disables logging. Not owned; must outlive the
    /// client.
    check::OpLog* op_log = nullptr;
  };

  IQClient(KvsBackend& backend, Config config);
  explicit IQClient(KvsBackend& backend);

  KvsBackend& backend() { return backend_; }

  /// The client-process near cache shared by every session of this client;
  /// nullptr when Config::near_capacity == 0.
  NearCache* near_cache() { return near_.get(); }

  std::unique_ptr<IQSession> NewSession();

 private:
  friend class IQSession;

  KvsBackend& backend_;
  Config config_;
  std::unique_ptr<BackoffPolicy> backoff_;
  std::unique_ptr<NearCache> near_;
  std::mutex rng_mu_;
  Rng seed_rng_;
};

}  // namespace iq
