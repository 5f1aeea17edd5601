// KvsBackend: the cache-server contract seen by clients - the ten IQ
// commands of Section 5 plus the plain memcached operations the baseline
// clients use. Two implementations exist:
//
//   IQServer            (core/iq_server.h)  - in-process
//   net::RemoteBackend  (net/remote_backend.h) - over the wire protocol
//
// Everything above this interface (IQClient, the casql session layer, the
// BG benchmark) is transport-agnostic.
//
// A write session's leases move in two batches (DESIGN.md §4.11): Acquire
// takes every Q lease before the RDBMS commit, CommitSwaps installs every
// refreshed value and commits after it. Their default bodies make one
// per-key call each, so an implementation (or a decorator) that overrides
// only the per-key verbs sees exactly the per-key sequence; a remote
// backend overrides them to send one framed request per call.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kvs/kvs.h"
#include "leases/lease_table.h"
#include "util/clock.h"

namespace iq {

/// Reply to IQget.
struct GetReply {
  enum class Status {
    kHit,          // value present
    kMissGrantedI, // miss; caller holds a fresh I lease (token)
    kMissBackoff,  // miss; another session holds a lease - back off, retry
    kMissNoLease,  // miss for the session's own quarantined key: query the
                   // RDBMS inside the session, do not install (Section 3.3)
    kTransportError,  // the cache server is unreachable (remote backends
                      // only): query the RDBMS, do not install, do not spin
  };
  Status status;
  std::string value;     // valid when kHit
  LeaseToken token = 0;  // valid when kMissGrantedI
  /// Validity interval granted with a kHit (0 = none): the caller may serve
  /// this value from a client-local near cache for this long after receipt
  /// without another round trip. Always a duration relative to receipt —
  /// client and server clocks are not comparable over a network.
  Nanos validity = 0;
};

/// Reply to QaRead.
struct QaReadReply {
  enum class Status {
    kGranted,  // Q lease held; `value` may be nullopt (KVS miss)
    kReject,   // another write session holds Q: release all, abort, retry
    kTransportError,  // the cache server is unreachable: the lease state is
                      // unknown — abort the RDBMS txn, back off, retry
  };
  Status status;
  std::optional<std::string> value;
  LeaseToken token = 0;
};

/// Reply to IQDelta / QaReg.
enum class QuarantineResult {
  kGranted,
  kReject,  // conflicting Q(refresh) lease; session must abort and retry
  kTransportError,  // unreachable server: quarantine NOT in place — the
                    // session must never commit its RDBMS txn on this signal
};

/// One lease of a write session's acquire batch: QaRead, QaReg or IQDelta
/// on `key`. Views must outlive the Acquire call.
struct LeaseRequest {
  enum class Kind { kQaRead, kQaReg, kDelta };
  Kind kind = Kind::kQaRead;
  std::string_view key;
  DeltaOp delta{DeltaOp::Kind::kIncr, {}, 0};  // kDelta only
};

/// Answer to one LeaseRequest.
struct LeaseReply {
  enum class Status {
    kGranted,
    kReject,          // another session holds Q: release all, abort, retry
    kTransportError,  // the lease state is unknown: abort, back off, retry
    kNotRun,          // never executed: an earlier request was not granted
  };
  Status status = Status::kNotRun;
  std::optional<std::string> value;  // kQaRead grant: nullopt = KVS miss
  LeaseToken token = 0;              // kQaRead grant
};

/// The LeaseReply a per-key QaRead, or QaReg/IQDelta, answer amounts to.
LeaseReply ToLeaseReply(QaReadReply reply);
LeaseReply ToLeaseReply(QuarantineResult result);

/// One swap of a write session's commit batch: SaR(key, value, token). A
/// null value releases the Q lease leaving the current value in place.
struct Swap {
  std::string_view key;
  std::optional<std::string_view> value;
  LeaseToken token = 0;
};

class KvsBackend {
 public:
  virtual ~KvsBackend() = default;

  /// Time source clients use for back-off pacing.
  virtual const Clock& clock() const = 0;

  // ---- the IQ command set (paper Section 5) ----
  virtual SessionId GenID() = 0;
  virtual GetReply IQget(std::string_view key, SessionId session = 0) = 0;
  virtual StoreResult IQset(std::string_view key, std::string_view value,
                            LeaseToken token) = 0;
  virtual QaReadReply QaRead(std::string_view key, SessionId session) = 0;
  virtual StoreResult SaR(std::string_view key,
                          std::optional<std::string_view> v_new,
                          LeaseToken token) = 0;
  virtual QuarantineResult QaReg(SessionId tid, std::string_view key) = 0;
  virtual void DaR(SessionId tid) = 0;
  virtual QuarantineResult IQDelta(SessionId tid, std::string_view key,
                                   DeltaOp delta) = 0;
  virtual void Commit(SessionId tid) = 0;
  virtual void Abort(SessionId tid) = 0;
  /// Release a session's lease on one key without applying changes.
  virtual void ReleaseKey(SessionId tid, std::string_view key) = 0;

  // ---- a write session's two batches ----
  /// Take `requests` in order for session `tid`, stopping after the first
  /// one not granted. The reply list is aligned with `requests`; requests
  /// never executed after a refusal or failure stay kNotRun (a router runs
  /// them shard by shard, so those need not be the last in caller order).
  virtual std::vector<LeaseReply> Acquire(
      SessionId tid, const std::vector<LeaseRequest>& requests);
  /// SaR each swap in order, then Commit(tid). Returns the swaps' results,
  /// aligned with `swaps`.
  virtual std::vector<StoreResult> CommitSwaps(SessionId tid,
                                               const std::vector<Swap>& swaps);

  // ---- plain memcached operations (baseline clients) ----
  virtual std::optional<CacheItem> Get(std::string_view key) = 0;
  virtual StoreResult Set(std::string_view key, std::string_view value) = 0;
  virtual StoreResult Add(std::string_view key, std::string_view value) = 0;
  virtual StoreResult Cas(std::string_view key, std::string_view value,
                          std::uint64_t cas) = 0;
  virtual StoreResult Append(std::string_view key, std::string_view blob) = 0;
  virtual StoreResult Prepend(std::string_view key, std::string_view blob) = 0;
  virtual std::optional<std::uint64_t> Incr(std::string_view key,
                                            std::uint64_t amount) = 0;
  virtual std::optional<std::uint64_t> Decr(std::string_view key,
                                            std::uint64_t amount) = 0;
  /// Facebook-memcached-style delete: removes the value AND voids any
  /// outstanding I lease on the key.
  virtual bool DeleteVoid(std::string_view key) = 0;
};

}  // namespace iq
