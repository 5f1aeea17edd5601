// The CASQL application layer: read and write sessions combining an RDBMS
// transaction with KVS maintenance, parameterized over
//
//   Technique    - how writers maintain impacted key-value pairs (Figure 1):
//                  invalidate (delete), refresh (R-M-W), incremental (delta);
//   Consistency  - the client design under evaluation:
//                  kNone      plain memcached ops (race-prone baseline),
//                  kCas       R-M-W via compare-and-swap (Figure 10),
//                  kReadLease Twemcache + Facebook read leases [27]
//                             (the paper's "Twemcache" baseline, Table 7),
//                  kIQ        the full IQ framework (this paper);
//   LeasePlacement - Q leases acquired prior to vs inside the RDBMS
//                  transaction (Figure 9 / Table 6, refresh & delta only).
//
// A write session describes its RDBMS work as a transaction body plus the
// set of impacted keys with per-technique update rules; the connection
// drives the right command sequence, restarting the whole session on RDBMS
// write-write conflicts or Q-lease rejections (non-blocking, deadlock-free).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/iq_client.h"
#include "rdbms/database.h"
#include "util/counters.h"
#include "util/rng.h"

namespace iq::casql {

enum class Technique { kInvalidate, kRefresh, kIncremental };
enum class Consistency { kNone, kCas, kReadLease, kIQ };
enum class LeasePlacement { kPriorToTxn, kInsideTxn };

const char* ToString(Technique t);
const char* ToString(Consistency c);
const char* ToString(LeasePlacement p);

struct CasqlConfig {
  Technique technique = Technique::kInvalidate;
  Consistency consistency = Consistency::kIQ;
  LeasePlacement placement = LeasePlacement::kInsideTxn;
  /// Give up restarting a session after this many attempts.
  int max_session_restarts = 10000;
  /// Retry budget for baseline cas loops.
  int max_cas_retries = 100;
  /// Baselines only: artificial delay between the R and the W of a
  /// baseline R-M-W (models the client<->server round trips of a networked
  /// deployment, which widen the Figure 2 window; IQ paths ignore it).
  Nanos baseline_rmw_delay = 0;
  /// Online staleness auditor: on this fraction of cache hits, re-read the
  /// RDBMS ground truth inside the same session and compare. In IQ mode the
  /// audit serializes against writers via QaRead, so any mismatch is a real
  /// consistency violation (zero false positives); baselines are audited
  /// lease-free (taking a Q lease would drop their concurrent plain Sets,
  /// perturbing the system under measurement), so their count is the racy
  /// staleness the paper's Table 1 quantifies. 0 disables auditing.
  double audit_rate = 0.0;
  /// The IQ client every connection's session runs on. Its `op_log` turns
  /// on the client op log for the offline checker (DESIGN.md §4.8): the
  /// sessions log their own verbs, and casql adds what no verb sees — the
  /// RDBMS reads (read_db) and the lease-free baseline paths.
  IQClient::Config client;
};

/// Shared tally of the online staleness auditor (see CasqlConfig).
struct AuditStats {
  std::uint64_t samples = 0;              // hits audited to a verdict
  std::uint64_t stale_reads_detected = 0; // audited hits that mismatched
  std::uint64_t skipped = 0;              // audits abandoned (Q conflict /
                                          // transport error)
  std::uint64_t bounded = 0;              // near-cache hits that trailed the
                                          // serialized truth while still
                                          // inside their granted validity
                                          // interval (allowed by design,
                                          // DESIGN.md §4.10) — not stale
};

inline constexpr CounterField<AuditStats> kAuditStatsFields[] = {
    {"audit_samples", &AuditStats::samples},
    {"stale_reads_detected", &AuditStats::stale_reads_detected},
    {"audit_skipped", &AuditStats::skipped},
    {"audit_bounded", &AuditStats::bounded},
};
static_assert(CoversEveryField(kAuditStatsFields));

/// One impacted key in a write session.
struct KeyUpdate {
  std::string key;
  /// Refresh: map the old value (nullopt = KVS miss) to the new value;
  /// return nullopt to skip the update (paper Section 4.2: the application
  /// "may check and skip updating of the value").
  std::function<std::optional<std::string>(const std::optional<std::string>&)>
      refresh;
  /// Incremental update: the delta to apply.
  std::optional<DeltaOp> delta;
  /// Force the invalidate technique for this key even when the session's
  /// technique is refresh/incremental (the paper's mixed-mode support:
  /// e.g. delta-update a counter key while deleting a list key).
  bool invalidate = false;
};

/// A write session: one RDBMS transaction plus its impacted keys.
struct WriteSpec {
  /// The transaction body. Return false to abort the session (e.g. a
  /// constraint violation); conflicts surface via the transaction state.
  std::function<bool(sql::Transaction&)> body;
  std::vector<KeyUpdate> updates;
};

struct WriteOutcome {
  bool committed = false;
  /// Restarts forced by Q-lease rejections (Table 6's metric).
  int q_restarts = 0;
  /// Restarts forced by RDBMS write-write conflicts.
  int rdbms_restarts = 0;
  /// Restarts forced by cache transport errors before the RDBMS commit.
  /// The write path NEVER commits "uncached": a quarantine/lease that may
  /// not be in place means abort, back off, reconnect, retry.
  int transport_restarts = 0;
};

struct ReadOutcome {
  bool hit = false;        // value came straight from the KVS
  bool computed = false;   // value recomputed from the RDBMS
  std::optional<std::string> value;
};

/// Computes a key's value from the database (used on KVS misses).
using ComputeFn = std::function<std::optional<std::string>(sql::Transaction&)>;

class CasqlSystem;

/// Per-thread handle. Not thread-safe; create one per worker.
class CasqlConnection {
 public:
  /// Read session: KVS lookup, recompute-on-miss per the consistency mode.
  ReadOutcome Read(const std::string& key, const ComputeFn& compute);

  /// Write session per the configured technique/consistency/placement.
  WriteOutcome Write(const WriteSpec& spec);

 private:
  friend class CasqlSystem;
  CasqlConnection(CasqlSystem& system, std::unique_ptr<IQSession> session,
                  std::uint64_t audit_seed);

  ReadOutcome ReadPlain(const std::string& key, const ComputeFn& compute);
  ReadOutcome ReadLeased(const std::string& key, const ComputeFn& compute);

  WriteOutcome WriteBaseline(const WriteSpec& spec);
  /// The IQ write session of every technique and placement.
  WriteOutcome WriteIQ(const WriteSpec& spec);

  /// Recompute `key`'s value in a fresh RDBMS transaction (the paper's
  /// separate-connection approach, Section 6.2); logs it as read_db.
  std::optional<std::string> ComputeFresh(const std::string& key,
                                          const ComputeFn& compute);

  /// Staleness auditor: with probability config.audit_rate, re-read the
  /// RDBMS ground truth for a key that just hit in the KVS and bump the
  /// system-wide AuditStats. `observed` is the hit value handed to the
  /// application (the comparand in the lease-free baseline audit).
  /// `near_hit`/`near_remaining` describe a hit served from the client's
  /// near cache: such a hit may legitimately trail the serialized ground
  /// truth, but only while inside its granted validity interval — a
  /// mismatch with near_remaining > 0 counts as `bounded`, one without is
  /// a real staleness violation.
  void MaybeAudit(const std::string& key,
                  const std::optional<std::string>& observed,
                  const ComputeFn& compute, bool near_hit = false,
                  Nanos near_remaining = 0);

  CasqlSystem& system_;
  std::unique_ptr<IQSession> session_;
  Rng audit_rng_;
};

/// Binds a Database and a cache backend (in-process IQServer or a
/// net::RemoteBackend speaking the wire protocol) under one configuration.
class CasqlSystem {
 public:
  CasqlSystem(sql::Database& db, KvsBackend& backend, CasqlConfig config);

  std::unique_ptr<CasqlConnection> Connect();

  sql::Database& db() { return db_; }
  KvsBackend& backend() { return backend_; }
  const CasqlConfig& config() const { return config_; }
  /// The shared IQ client behind every connection's session (backoff
  /// policy, process-wide near cache).
  IQClient& client() { return client_; }

  /// Snapshot of the staleness-auditor tally across all connections.
  AuditStats audit_stats() const {
    return LoadCounters(audit_, kAuditStatsFields);
  }

 private:
  friend class CasqlConnection;

  sql::Database& db_;
  KvsBackend& backend_;
  CasqlConfig config_;
  IQClient client_;
  std::atomic<std::uint64_t> connections_{0};
  AuditStats audit_;  // live: every connection's thread bumps it (Bump)
};

}  // namespace iq::casql
