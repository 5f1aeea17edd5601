// Multi-version table storage.
//
// Each logical row (keyed by primary key) is a chain of committed versions
// plus at most one pending (uncommitted) write intent. Snapshot isolation
// visibility: a transaction with snapshot timestamp S sees the version with
// begin_ts <= S < end_ts, plus its own pending intent. Write-write
// conflicts are detected eagerly at intent time (first-committer-wins, no
// blocking): a second writer aborts instead of waiting.
//
// Layout. A chain is one heap block: the newest committed version's two
// timestamps, a pointer to a history block, and the row's cells inline (the
// schema fixes their count). The cells always hold the row's key, and hold
// the newest committed version while there is one. Superseded versions, the
// pending intent and its writer live in the history block, which the row's
// first intent takes from the table's pool and which goes back once it
// holds none of them again, so a row never written since it was loaded is
// its block alone. The primary-key index is an open-addressing array of
// block pointers that hashes and compares the key cells inside each block.
// A commit drops the superseded versions that no registered snapshot can
// read. A secondary-index bucket holds pointers to the chains that have held
// its value; a block never moves, so a bucket hit reaches its row without a
// primary-key lookup. Bucket storage also comes from the table's pool.
//
// Index invariant. A chain is in bucket v of an index exactly once when
// one of its committed versions or its pending intent holds v in the
// indexed column, and in no bucket otherwise. A bucket may therefore point
// at a chain whose version visible to a reader holds another value (the
// reader's snapshot predates an update, or follows it), so every probe
// re-verifies the visible version. An intent that adds a value no committed
// version holds links the chain; its abort, or its own replacement within
// the transaction, unlinks it again, and so does a commit that drops the
// last version holding the value.
//
// Erasure. A chain left with no committed version and no writer (an
// aborted or self-deleted fresh insert) is erased at once. A committed
// delete queues its chain; a later commit whose horizon has passed the
// delete erases it, with its bucket entries, unless a writer holds it
// again. Vacuum drops every version invisible to the snapshots it is given
// and erases the chains left with nothing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory_resource>
#include <mutex>
#include <new>
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
    Timestamp begin_ts = 0;
    Timestamp end_ts = kInfinity;
    Row data;
  };

 public:
  /// One logical row: its committed versions and its pending intent, in
  /// one block followed by the schema's cells. Only Table reads or writes
  /// the fields; a Transaction keeps a pointer to each chain it claimed, to
  /// commit or abort it.
  class RowChain {
    friend class Table;
    struct History {
      std::vector<Version> older;  // superseded versions, in commit order
      Row pending;                 // the writer's row; empty for a pending delete
      TxnId writer = 0;            // pending intent owner, 0 = none
    };

    TxnId writer() const { return history ? history->writer : 0; }
    /// The row's cells, which follow the block's header.
    Value* cells() { return std::launder(reinterpret_cast<Value*>(this + 1)); }
    const Value* cells() const {
      return std::launder(reinterpret_cast<const Value*>(this + 1));
    }

    // The newest committed version: [begin_ts, end_ts), cells(); begin_ts 0
    // if none, and then only the key cells are meaningful.
    Timestamp begin_ts = 0;
    Timestamp end_ts = kInfinity;
    // From the table's pool; null: no older version and no intent.
    History* history = nullptr;
  };

  explicit Table(TableSchema schema);
  ~Table();

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
  /// (>= 1), and drop what no snapshot at or after `horizon` can read (0
  /// drops nothing): the chain's superseded versions that end by then, and
  /// the chains whose queued delete committed by then. A chain left with
  /// nothing (a fresh insert deleted again) is erased, so `chain` must not
  /// be used afterwards.
  void InstallCommit(TxnId txn, RowChain& chain, Timestamp ts,
                     Timestamp horizon = 0);

  /// Discard txn's pending intent on `chain`. A chain left with no
  /// committed version is erased, so `chain` must not be used afterwards.
  void AbortIntent(TxnId txn, RowChain& chain);

  // ---- maintenance --------------------------------------------------------

  /// Drop versions invisible to every snapshot >= `oldest_active`, erase
  /// chains left with nothing, and rebuild the index buckets from the
  /// versions kept. Returns number of versions reclaimed.
  std::size_t Vacuum(Timestamp oldest_active);

  /// Chains in the primary-key index: rows with a committed version
  /// (including a dead one not yet reclaimed) or a pending intent.
  std::size_t ChainCount() const;

 private:
  using Bucket = std::pmr::vector<RowChain*>;
  using IndexMap = std::pmr::unordered_map<Value, Bucket, ValueHash>;

  /// A committed delete waiting for the horizon to pass `ts`.
  struct QueuedDelete {
    Timestamp ts;
    RowChain* chain;
  };

  /// Visible committed version's cells for the snapshot, or nullptr.
  static const Value* VisibleVersion(const RowChain& chain,
                                     Timestamp snapshot);

  /// Cells visible to ctx including own pending intent; nullptr if none.
  static const Value* VisibleRowLocked(const TxnCtx& ctx,
                                       const RowChain& chain);

  /// First-committer-wins + writer-lock conflict check.
  static TxnResult CheckWritableLocked(const TxnCtx& ctx,
                                       const RowChain& chain);

  /// True if a committed version of `chain` holds `v` in column `col`.
  static bool CommittedHolds(const RowChain& chain, std::size_t col,
                             const Value& v);

  /// A copy of `cells`, a whole row.
  Row RowOf(const Value* cells) const {
    return Row(cells, cells + schema_.columns.size());
  }

  // ---- the primary-key index ----
  /// Hash of a key whose k-th cell is `key(k)`.
  template <typename KeyCell>
  std::size_t KeyHash(const KeyCell& key) const;
  /// The chain whose key cells are `key(0..)`, or nullptr.
  template <typename KeyCell>
  RowChain* FindLocked(const KeyCell& key) const;
  /// The chain keyed by `pk`, or nullptr (also for a key of the wrong width).
  RowChain* FindLocked(const Row& pk) const;
  /// Slot where a probe for `hash` starts.
  std::size_t HomeSlot(std::size_t hash) const;
  /// Hash of the key `chain` holds.
  std::size_t ChainHash(const RowChain& chain) const;
  /// Puts `chain` in the first free slot from its home (no growth).
  void PlaceLocked(RowChain* chain);
  /// A new chain for `row`'s key, with no version yet, in the index.
  RowChain* NewChainLocked(const Row& row);
  /// Removes `chain` from the primary-key index and frees it; it must be in
  /// no bucket.
  void EraseChainLocked(RowChain& chain);
  /// Frees the block, its cells and its history block.
  void FreeChain(RowChain* chain);

  /// Frees the history block once it holds nothing.
  void TrimHistoryLocked(RowChain& chain);

  /// Move `chain` between index buckets as its pending intent changes from
  /// `prev` to `next` (cells, nullptr: no row), as the invariant above
  /// requires.
  void ReindexLocked(RowChain& chain, const Value* prev, const Value* next);

  /// Make `next` (empty = delete) ctx's pending intent on `chain`.
  void SetPendingLocked(const TxnCtx& ctx, RowChain& chain, Row next,
                        RowChain** claimed);

  /// Remove `chain` from index `slot`'s bucket for `v`.
  void UnlinkLocked(std::size_t slot, const Value& v, RowChain* chain);

  /// Drop `chain`'s superseded versions that end at or before `horizon`,
  /// and unlink the chain from each bucket only a dropped version held.
  /// The chain must have a history block and no pending intent.
  void ReclaimLocked(RowChain& chain, Timestamp horizon);

  /// Erase the queued deleted chains whose delete committed at or before
  /// `horizon`, unless a writer holds one again.
  void EraseDeletedLocked(Timestamp horizon);

  TableSchema schema_;

  mutable std::mutex mu_;
  /// History blocks and bucket storage. Declared before the members that
  /// allocate from it, so it is destroyed after them.
  std::pmr::unsynchronized_pool_resource pool_;
  /// Open addressing with linear probing; nullptr marks a free slot. The
  /// size is a power of two, at most half of it used.
  std::vector<RowChain*> slots_;
  std::size_t chain_count_ = 0;
  /// indexes_[i] covers column schema_.secondary_indexes[i].
  std::vector<IndexMap> indexes_;
  /// Committed deletes in commit order (entries re-queued while a writer
  /// held their chain may follow later ones). A chain is freed only
  /// through its newest entry, the one whose ts is its end_ts; its older
  /// entries are stale and come before that one.
  std::deque<QueuedDelete> deletes_;
};

}  // namespace iq::sql
