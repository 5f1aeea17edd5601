// Database: table catalog, transaction lifecycle, snapshot-isolation commit
// protocol, DML triggers, and an optional per-operation latency model used
// to emulate a disk-bound backend (the paper's 100K-member configuration
// where the RDBMS sustains only 15-25 actions/sec).
//
// Commit protocol: a global commit mutex serializes commits. The committing
// transaction takes ts = counter + 1, installs every pending intent at ts,
// then publishes counter = ts. Snapshots are counter loads, so a snapshot
// never observes a half-installed commit. Each chain a commit writes drops
// its superseded versions that no registered snapshot can read
// (OldestSnapshot); a deleted row's chain waits for Vacuum.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdbms/table.h"
#include "util/clock.h"
#include "util/counters.h"

namespace iq::sql {

class Database;

/// Which DML fired a trigger.
enum class DmlOp { kInsert, kUpdate, kDelete };

/// Payload passed to trigger callbacks.
struct TriggerEvent {
  DmlOp op;
  const std::string& table;
  /// Row visible before the DML (empty for insert).
  const Row* old_row;
  /// Row after the DML (nullptr for delete).
  const Row* new_row;
};

/// A snapshot-isolation transaction. Obtain via Database::Begin(). A write
/// conflict immediately dooms the transaction: the failing call returns
/// kConflict, all intents are released, and the state becomes kAborted —
/// matching the paper's non-blocking "abort and restart the session" model.
class Transaction {
 public:
  enum class State { kActive, kCommitted, kAborted };

  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  State state() const { return state_; }
  /// The database this transaction runs against.
  Database& database() { return db_; }
  TxnId id() const { return ctx_.id; }
  Timestamp snapshot() const { return ctx_.snapshot; }
  /// Commit timestamp; 0 unless state()==kCommitted.
  Timestamp commit_ts() const { return commit_ts_; }

  // ---- reads ----
  std::optional<Row> SelectByPk(const std::string& table, const Row& pk);
  std::vector<Row> SelectWhereEq(const std::string& table,
                                 const std::string& column, const Value& value);
  std::vector<Row> SelectAll(const std::string& table);
  std::vector<Row> SelectWhere(const std::string& table,
                               const std::function<bool(const Row&)>& pred);

  // ---- writes (register intents; durable only after Commit) ----
  TxnResult Insert(const std::string& table, Row row);
  TxnResult UpdateByPk(const std::string& table, const Row& pk,
                       const std::function<void(Row&)>& mutate);
  /// Convenience: set named columns to values.
  TxnResult UpdateByPk(const std::string& table, const Row& pk,
                       const std::vector<std::pair<std::string, Value>>& sets);
  TxnResult DeleteByPk(const std::string& table, const Row& pk);

  // ---- the same on a table already resolved ----
  // The SQL executor's path: a statement looks its table up once. `match`,
  // when given, sees the visible row first; false leaves the row unwritten
  // and returns kNotFound.
  std::optional<Row> SelectByPk(Table& table, const Row& pk);
  std::vector<Row> SelectWhereEq(Table& table, std::size_t col,
                                 const Value& value);
  std::vector<Row> SelectWhere(Table& table,
                               const std::function<bool(const Row&)>& pred);
  TxnResult Insert(Table& table, Row row);
  TxnResult UpdateByPk(Table& table, const Row& pk,
                       const std::function<void(Row&)>& mutate,
                       const std::function<bool(const Row&)>& match = {});
  TxnResult DeleteByPk(Table& table, const Row& pk,
                       const std::function<bool(const Row&)>& match = {});

  // ---- lifecycle ----
  /// Atomically installs all intents. Always succeeds for an active
  /// transaction (conflicts were detected eagerly at intent time).
  TxnResult Commit();
  /// Discards all intents. Safe to call in any state (no-op if finished).
  void Rollback();

 private:
  friend class Database;
  Transaction(Database& db, TxnId id, Timestamp snapshot);

  void Doom();  // release intents, mark aborted

  /// Counts a write intent's outcome: a conflict dooms the transaction, and
  /// a chain claimed for the first time joins writes_.
  void Record(Table& table, TxnResult r, Table::RowChain* claimed);

  struct WriteRecord {
    Table* table;
    Table::RowChain* chain;  // this transaction's pending intent
  };

  Database& db_;
  TxnCtx ctx_;
  State state_ = State::kActive;
  Timestamp commit_ts_ = 0;
  std::vector<WriteRecord> writes_;
};

class Database {
 public:
  struct Config {
    /// Artificial latencies, applied per operation (0 = none). Models a
    /// remote and/or disk-bound RDBMS.
    Nanos read_delay = 0;
    Nanos write_delay = 0;
    Nanos commit_delay = 0;
    const Clock* clock = nullptr;
  };

  struct Stats {
    std::uint64_t txns_started = 0;
    std::uint64_t txns_committed = 0;
    std::uint64_t txns_aborted = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };

  Database();
  explicit Database(Config config);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Create a table; returns false if the name already exists.
  bool CreateTable(TableSchema schema);
  /// nullptr if absent.
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;

  /// Start a snapshot-isolation transaction.
  std::unique_ptr<Transaction> Begin();

  /// Run `body` inside a transaction, retrying on conflict up to
  /// `max_attempts` times. body returns true to commit, false to roll back.
  /// Returns true iff a commit happened.
  bool RunTransaction(const std::function<bool(Transaction&)>& body,
                      int max_attempts = 10);

  // ---- triggers ----
  using TriggerFn = std::function<void(Transaction&, const TriggerEvent&)>;
  /// Fire `fn` synchronously inside every successful DML of kind `op`
  /// against `table` (the paper's trigger-based invalidation, Figure 3).
  void RegisterTrigger(const std::string& table, DmlOp op, TriggerFn fn);
  void ClearTriggers();

  Stats GetStats() const;

  /// Reclaim dead versions older than every active snapshot.
  std::size_t Vacuum();

 private:
  friend class Transaction;

  /// True while any trigger is registered; DML builds trigger events only
  /// then.
  bool HasTriggers() const {
    return has_triggers_.load(std::memory_order_acquire);
  }
  void FireTriggers(Transaction& txn, const TriggerEvent& event);
  void DelayFor(Nanos d) const;

  /// The oldest registered snapshot, or the commit counter when none is
  /// registered: no snapshot taken now or later is older.
  Timestamp OldestSnapshot() const;

  Config config_;
  const Clock& clock_;

  mutable std::mutex catalog_mu_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;

  std::mutex commit_mu_;
  std::atomic<Timestamp> commit_counter_{0};
  std::atomic<TxnId> next_txn_id_{1};

  mutable std::mutex trigger_mu_;
  struct TriggerKey {
    std::string table;
    DmlOp op;
    bool operator==(const TriggerKey&) const = default;
  };
  struct TriggerKeyHash {
    std::size_t operator()(const TriggerKey& k) const {
      return std::hash<std::string>{}(k.table) ^
             (static_cast<std::size_t>(k.op) << 1);
    }
  };
  std::unordered_map<TriggerKey, std::vector<TriggerFn>, TriggerKeyHash>
      triggers_;
  std::atomic<bool> has_triggers_{false};

  Stats stats_;  // live: bumped with Bump, no lock per statement

  mutable std::mutex active_mu_;
  std::unordered_map<TxnId, Timestamp> active_snapshots_;
};

inline constexpr CounterField<Database::Stats> kDatabaseStatsFields[] = {
    {"txns_started", &Database::Stats::txns_started},
    {"txns_committed", &Database::Stats::txns_committed},
    {"txns_aborted", &Database::Stats::txns_aborted},
    {"conflicts", &Database::Stats::conflicts},
    {"reads", &Database::Stats::reads},
    {"writes", &Database::Stats::writes},
};
static_assert(CoversEveryField(kDatabaseStatsFields));

}  // namespace iq::sql
