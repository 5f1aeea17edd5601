// Multi-version table storage.
//
// Each logical row (keyed by primary key) is a chain of committed versions
// plus at most one pending (uncommitted) write intent. Snapshot isolation
// visibility: a transaction with snapshot timestamp S sees the version with
// begin_ts <= S < end_ts, plus its own pending intent. Write-write
// conflicts are detected eagerly at intent time (first-committer-wins, no
// blocking): a second writer aborts instead of waiting.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rdbms/schema.h"
#include "rdbms/value.h"

namespace iq::sql {

using Timestamp = std::uint64_t;  // commit timestamps; 0 = "before all"
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
 public:
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

  /// Register an insert intent. Fails with kDuplicateKey if a visible or
  /// pending row already exists for the key.
  TxnResult InsertIntent(const TxnCtx& ctx, Row row);

  /// Register an update intent; `mutate` receives the currently visible
  /// row and edits it in place. kNotFound if no visible row.
  TxnResult UpdateIntent(const TxnCtx& ctx, const Row& pk,
                         const std::function<void(Row&)>& mutate);

  /// Register a delete intent. kNotFound if no visible row.
  TxnResult DeleteIntent(const TxnCtx& ctx, const Row& pk);

  // ---- commit/abort protocol (driven by Database) -------------------------

  /// Make txn's pending intent on `pk` durable at commit timestamp `ts`.
  void InstallCommit(TxnId txn, const Row& pk, Timestamp ts);

  /// Discard txn's pending intent on `pk`.
  void AbortIntent(TxnId txn, const Row& pk);

  // ---- maintenance --------------------------------------------------------

  /// Drop versions invisible to every snapshot >= `oldest_active` and prune
  /// dangling index entries. Returns number of versions reclaimed.
  std::size_t Vacuum(Timestamp oldest_active);

  /// Rows with at least one committed version (including dead ones).
  std::size_t ChainCount() const;

 private:
  struct Version {
    Timestamp begin_ts = 0;
    Timestamp end_ts = kInfinity;
    Row data;
  };

  struct RowChain {
    std::vector<Version> versions;  // commit order: each ends no later
                                    // than the next begins
    TxnId writer = 0;               // pending intent owner
    std::optional<Row> pending;     // nullopt + writer!=0 => pending delete
    bool pending_is_delete = false;
  };

  using ChainMap = std::unordered_map<Row, std::unique_ptr<RowChain>, RowHash>;
  using IndexMap = std::unordered_map<Value, std::unordered_set<Row, RowHash>,
                                      ValueHash>;

  /// Visible committed version for the snapshot, or nullptr.
  const Version* VisibleVersion(const RowChain& chain, Timestamp snapshot) const;

  /// Row visible to ctx including own pending intent; nullopt if none.
  std::optional<Row> VisibleRowLocked(const TxnCtx& ctx,
                                      const RowChain& chain) const;

  /// First-committer-wins + writer-lock conflict check.
  TxnResult CheckWritableLocked(const TxnCtx& ctx, const RowChain& chain) const;

  void AddToIndexesLocked(const Row& row, const Row& pk);

  TableSchema schema_;
  /// position in indexes_ for each indexed column id
  std::unordered_map<std::size_t, std::size_t> index_of_column_;

  mutable std::mutex mu_;
  ChainMap chains_;
  std::vector<IndexMap> indexes_;
};

}  // namespace iq::sql
