// Multi-version table storage.
//
// Each logical row (keyed by primary key) is a chain of committed versions
// plus at most one pending (uncommitted) write intent. Snapshot isolation
// visibility: a transaction with snapshot timestamp S sees the version with
// begin_ts <= S < end_ts, plus its own pending intent. Write-write
// conflicts are detected eagerly at intent time (first-committer-wins, no
// blocking): a second writer aborts instead of waiting.
//
// Layout. A chain lives in its primary-key map node, with its newest
// committed version inline. Its superseded versions, its pending intent and
// its writer live in one history block that the row's first intent
// allocates and that is freed once it holds none of them again, so a row
// never written since it was loaded has no heap block besides its key and
// its cells. A commit drops the superseded versions that no registered
// snapshot can read. A secondary-index bucket holds pointers to the chains
// that have held its value; a node keeps its address across a rehash, so a
// bucket hit reaches its row without a second primary-key lookup.
//
// Index invariant. A chain is in bucket v of an index exactly once when
// one of its committed versions or its pending intent holds v in the
// indexed column, and in no bucket otherwise. A bucket may therefore point
// at a chain whose version visible to a reader holds another value (the
// reader's snapshot predates an update, or follows it), so every probe
// re-verifies the visible version. An intent that adds a value no committed
// version holds links the chain; its abort, or its own replacement within
// the transaction, unlinks it again, and so does a commit that drops the
// last version holding the value. A chain is erased only after it has left
// every bucket (an aborted fresh insert), or while Vacuum rebuilds the
// buckets from the versions it keeps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdbms/schema.h"
#include "rdbms/value.h"

namespace iq::sql {

using Timestamp = std::uint64_t;  // commit timestamps start at 1; 0 = "before all"
using TxnId = std::uint64_t;      // 0 = no transaction

constexpr Timestamp kInfinity = ~Timestamp{0};

/// Outcome of a write-side table operation.
enum class TxnResult {
  kOk,
  kConflict,      // write-write conflict under snapshot isolation
  kDuplicateKey,  // insert of an existing primary key
  kNotFound,      // update/delete of a row invisible to the snapshot
  kInvalidRow,    // row shape does not match the schema
  kAborted,       // transaction is no longer active
};

const char* ToString(TxnResult r);

/// Identity + snapshot of the acting transaction, passed into every
/// table operation.
struct TxnCtx {
  TxnId id = 0;
  Timestamp snapshot = 0;
};

class Table {
 private:
  struct Version {
    Timestamp begin_ts = 0;  // 0: no version (commit timestamps start at 1)
    Timestamp end_ts = kInfinity;
    Row data;
  };

 public:
  /// One logical row: its committed versions and its pending intent. Only
  /// Table reads or writes the fields; a Transaction keeps a pointer to
  /// each chain it claimed, to commit or abort it.
  class RowChain {
    friend class Table;
    struct History {
      std::vector<Version> older;  // superseded versions, in commit order
      Row pending;                 // the writer's row; empty for a pending delete
      TxnId writer = 0;            // pending intent owner, 0 = none
    };

    TxnId writer() const { return history ? history->writer : 0; }
    /// Frees the history block once it holds nothing.
    void TrimHistory() {
      if (history && history->writer == 0 && history->older.empty()) {
        history.reset();
      }
    }

    Version newest;  // newest committed version, begin_ts 0 if none
    std::unique_ptr<History> history;  // null: no older version, no intent
  };

  explicit Table(TableSchema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }

  // ---- reads ------------------------------------------------------------

  /// Point read by primary key. Sees the snapshot plus own pending intent.
  std::optional<Row> Read(const TxnCtx& ctx, const Row& pk) const;

  /// Equality lookup on one column. Uses the secondary hash index when one
  /// exists on that column, otherwise scans.
  std::vector<Row> ReadWhereEq(const TxnCtx& ctx, std::size_t col,
                               const Value& value) const;

  /// Full visible scan with an arbitrary predicate.
  std::vector<Row> Scan(const TxnCtx& ctx,
                        const std::function<bool(const Row&)>& pred) const;

  /// Number of rows visible to the snapshot.
  std::size_t VisibleCount(const TxnCtx& ctx) const;

  // ---- write intents ------------------------------------------------------
  //
  // `match`, when given, sees the visible row under the table lock; false
  // leaves the row unwritten and returns kNotFound. On success, `*claimed`
  // is set to the row's chain when this is the transaction's first intent
  // on it, and to nullptr otherwise.

  /// Register an insert intent. Fails with kDuplicateKey if a visible or
  /// pending row already exists for the key.
  TxnResult InsertIntent(const TxnCtx& ctx, Row row,
                         RowChain** claimed = nullptr);

  /// Register an update intent; `mutate` receives a copy of the visible row
  /// and edits it in place. kNotFound if no visible row.
  TxnResult UpdateIntent(const TxnCtx& ctx, const Row& pk,
                         const std::function<void(Row&)>& mutate,
                         const std::function<bool(const Row&)>& match = {},
                         RowChain** claimed = nullptr);

  /// Register a delete intent. kNotFound if no visible row.
  TxnResult DeleteIntent(const TxnCtx& ctx, const Row& pk,
                         const std::function<bool(const Row&)>& match = {},
                         RowChain** claimed = nullptr);

  // ---- commit/abort protocol (driven by Database) -------------------------

  /// Make txn's pending intent on `chain` durable at commit timestamp `ts`
  /// (>= 1), and drop the chain's superseded versions that end at or before
  /// `horizon`, which no snapshot at or after it can read (0 drops none).
  void InstallCommit(TxnId txn, RowChain& chain, Timestamp ts,
                     Timestamp horizon = 0);

  /// Discard txn's pending intent on `chain`. An aborted fresh insert
  /// erases the chain, so `chain` must not be used afterwards.
  void AbortIntent(TxnId txn, RowChain& chain);

  // ---- maintenance --------------------------------------------------------

  /// Drop versions invisible to every snapshot >= `oldest_active`, erase
  /// chains left with nothing, and rebuild the index buckets from the
  /// versions kept. Returns number of versions reclaimed.
  std::size_t Vacuum(Timestamp oldest_active);

  /// Rows with at least one committed version (including dead ones).
  std::size_t ChainCount() const;

 private:
  using ChainMap = std::unordered_map<Row, RowChain, RowHash>;
  using IndexMap =
      std::unordered_map<Value, std::vector<RowChain*>, ValueHash>;

  /// Visible committed version for the snapshot, or nullptr.
  static const Version* VisibleVersion(const RowChain& chain,
                                       Timestamp snapshot);

  /// Row visible to ctx including own pending intent; nullptr if none.
  static const Row* VisibleRowLocked(const TxnCtx& ctx, const RowChain& chain);

  /// First-committer-wins + writer-lock conflict check.
  static TxnResult CheckWritableLocked(const TxnCtx& ctx,
                                       const RowChain& chain);

  /// True if a committed version of `chain` holds `v` in column `col`.
  static bool CommittedHolds(const RowChain& chain, std::size_t col,
                             const Value& v);

  /// Move `chain` between index buckets as its pending intent changes from
  /// `prev` to `next` (nullptr: no row), as the invariant above requires.
  void ReindexLocked(RowChain& chain, const Row* prev, const Row* next);

  /// Make `next` (empty = delete) ctx's pending intent on `chain`.
  void SetPendingLocked(const TxnCtx& ctx, RowChain& chain, Row next,
                        RowChain** claimed);

  /// Remove `chain` from index `slot`'s bucket for `v`.
  void UnlinkLocked(std::size_t slot, const Value& v, RowChain* chain);

  /// Drop `chain`'s superseded versions that end at or before `horizon`,
  /// and unlink the chain from each bucket only a dropped version held.
  /// The chain must have a history block and no pending intent.
  void ReclaimLocked(RowChain& chain, Timestamp horizon);

  TableSchema schema_;

  mutable std::mutex mu_;
  ChainMap chains_;
  /// indexes_[i] covers column schema_.secondary_indexes[i].
  std::vector<IndexMap> indexes_;
};

}  // namespace iq::sql
