// Client-side operation log for the offline execution-history checker
// (tools/iqcheck). While the server's lease-trace ring records every lease
// transition, the op log records what *clients actually observed*: one
// record per client-visible read/write/commit/abort with the session id,
// the key hash, and the observed/installed value hash. iqcheck joins the
// two against the IQ protocol + snapshot-isolation axioms (see
// check/checker.h and DESIGN.md §4.8).
//
// Soundness rule for writers: a write intent is logged BEFORE the value is
// installed (SaR/IQset/Set), so by the time any concurrent reader can
// observe the new value its hash is already in the justified set — the log
// can over-approximate the justified hashes (a failed SaR leaves a harmless
// extra entry) but can never make a genuinely committed read look
// unjustified. The mutex-serialized append also gives the file a total
// order consistent with real time, so the checker replays records in file
// order without re-sorting.
//
// Values are recorded as FNV-1a hashes, like the trace ring's key hashes:
// constant-size records, and no payload data leaves the client through the
// log.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"
#include "util/trace_ring.h"

namespace iq::check {

/// What one op-log record describes.
enum class OpKind : std::uint8_t {
  kSeed,      // ground-truth install before the run; justifies its hash
  kWrite,     // write intent: the exact value about to be installed
              // (SaR / IQset / baseline Set); justifies its hash
  kDelta,     // value-changing incremental update intent (IQDelta); the
              // resulting value is unknowable client-side, so the key
              // becomes exempt from hash justification from here on
  kInval,     // delete intent (QaReg)
  kReadHit,   // client-visible cache read; must be justified by a prior
              // seed/write/read_db hash (unless the key is delta-exempt)
  kReadDb,    // RDBMS ground-truth read; justifies its hash
  kReadMiss,  // cache read observed no value
  kReadOwn,   // read served under the session's own live Q lease after its
              // own buffered delta(s) — the own-update visibility probe:
              // observing a pre-delta hash again means the session stopped
              // seeing its own update (Section 4.2.2)
  kCommit,    // logical session committed (key/value fields are 0)
  kAbort,     // logical session aborted
  kTransportError,  // a transport failure ended the logical session (shard
                    // down, connection lost); the session's server-side
                    // fate is unknown, so the checker treats this as a
                    // session end — it lets fault-injection runs join
                    // surviving-shard traces instead of excluding them
};
inline constexpr std::size_t kOpKindCount =
    static_cast<std::size_t>(OpKind::kTransportError) + 1;

const char* ToString(OpKind k);
std::optional<OpKind> ParseOpKind(std::string_view name);

/// Hash recorded when a read observed no value (kReadMiss) or the record
/// carries no value at all (kInval/kCommit/kAbort).
inline constexpr std::uint64_t kNoValueHash = 0;

/// FNV-1a of a value. Never returns kNoValueHash, so "no value" stays
/// distinguishable from every real value.
inline std::uint64_t OpValueHash(std::string_view value) {
  const std::uint64_t h = TraceKeyHash(value);
  return h == kNoValueHash ? 1 : h;
}
inline std::uint64_t OpValueHash(const std::optional<std::string>& value) {
  return value ? OpValueHash(std::string_view(*value)) : kNoValueHash;
}
// Exact-match overloads: a std::string (or literal) argument would otherwise
// convert equally well to string_view and optional<string> and be ambiguous.
inline std::uint64_t OpValueHash(const std::string& value) {
  return OpValueHash(std::string_view(value));
}
inline std::uint64_t OpValueHash(const char* value) {
  return OpValueHash(std::string_view(value));
}

/// One op-log record.
struct OpRecord {
  Nanos at = 0;
  std::uint64_t session = 0;
  OpKind kind = OpKind::kReadHit;
  std::uint64_t key_hash = 0;
  std::uint64_t value_hash = kNoValueHash;
};

/// Thread-safe append-only sink shared by every connection of a run.
class OpLog {
 public:
  /// `clock` stamps `at`; null = process steady clock. Timestamps are
  /// informational (the append order is the authoritative order).
  explicit OpLog(const Clock* clock = nullptr);

  OpLog(const OpLog&) = delete;
  OpLog& operator=(const OpLog&) = delete;

  /// A session id unique within this log (1, 2, ...). Every IQSession
  /// writing here takes one when it is created; backend session ids cannot
  /// serve, because each ShardedBackend numbers its virtual sessions from 1.
  /// Id 0 marks records no session owns (seeds, a bench's final reads).
  std::uint64_t NewSessionId() {
    return next_session_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Append one record, stamping `at` from the clock.
  void Record(std::uint64_t session, OpKind kind, std::uint64_t key_hash,
              std::uint64_t value_hash = kNoValueHash);
  /// Append a pre-built record verbatim (tests, replays).
  void Append(const OpRecord& record);

  std::vector<OpRecord> Snapshot() const;
  std::size_t size() const;

  /// Render the full log: an "OPLOG_INFO <count>\r\n" truncation guard
  /// followed by one OP line per record (see FormatOpRecords).
  std::string Dump() const;
  /// Dump() to a file; false on I/O failure.
  bool DumpToFile(const std::string& path) const;

 private:
  const Clock& clock_;
  std::atomic<std::uint64_t> next_session_{1};
  mutable std::mutex mu_;
  std::vector<OpRecord> records_;
};

/// One "OP <at> <session> <kind> <key_hash> <value_hash>\r\n" line per
/// record (no OPLOG_INFO header).
std::string FormatOpRecords(const std::vector<OpRecord>& records);

/// Inverse of Dump()/FormatOpRecords: parses OP lines in order, ignoring
/// unrecognized lines. All-or-nothing: a malformed OP/OPLOG_INFO line
/// leaves *out untouched and returns false. When OPLOG_INFO headers are
/// present their counts must sum to the number of OP lines (a truncated
/// dump fails instead of half-ingesting as a valid history).
bool ParseOpLog(std::string_view text, std::vector<OpRecord>* out);

}  // namespace iq::check
