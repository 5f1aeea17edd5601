#include "rdbms/database.h"

#include <algorithm>

#include "util/backoff.h"

namespace iq::sql {

// ---- Transaction ------------------------------------------------------------

Transaction::Transaction(Database& db, TxnId id, Timestamp snapshot)
    : db_(db), ctx_{id, snapshot} {}

Transaction::~Transaction() {
  if (state_ == State::kActive) Rollback();
  std::lock_guard lock(db_.active_mu_);
  db_.active_snapshots_.erase(ctx_.id);
}

std::optional<Row> Transaction::SelectByPk(const std::string& table,
                                           const Row& pk) {
  Table* t = db_.GetTable(table);
  if (t == nullptr) return std::nullopt;
  return SelectByPk(*t, pk);
}

std::vector<Row> Transaction::SelectWhereEq(const std::string& table,
                                            const std::string& column,
                                            const Value& value) {
  Table* t = db_.GetTable(table);
  if (t == nullptr) return {};
  auto col = t->schema().ColumnIndex(column);
  if (!col) return {};
  return SelectWhereEq(*t, *col, value);
}

std::vector<Row> Transaction::SelectAll(const std::string& table) {
  return SelectWhere(table, [](const Row&) { return true; });
}

std::vector<Row> Transaction::SelectWhere(
    const std::string& table, const std::function<bool(const Row&)>& pred) {
  Table* t = db_.GetTable(table);
  if (t == nullptr) return {};
  return SelectWhere(*t, pred);
}

TxnResult Transaction::Insert(const std::string& table, Row row) {
  Table* t = db_.GetTable(table);
  if (t == nullptr) return TxnResult::kNotFound;
  return Insert(*t, std::move(row));
}

TxnResult Transaction::UpdateByPk(const std::string& table, const Row& pk,
                                  const std::function<void(Row&)>& mutate) {
  Table* t = db_.GetTable(table);
  if (t == nullptr) return TxnResult::kNotFound;
  return UpdateByPk(*t, pk, mutate);
}

TxnResult Transaction::UpdateByPk(
    const std::string& table, const Row& pk,
    const std::vector<std::pair<std::string, Value>>& sets) {
  Table* t = db_.GetTable(table);
  if (t == nullptr) return TxnResult::kNotFound;
  const TableSchema& schema = t->schema();
  std::vector<std::pair<std::size_t, Value>> resolved;
  resolved.reserve(sets.size());
  for (const auto& [col, val] : sets) {
    auto idx = schema.ColumnIndex(col);
    if (!idx) return TxnResult::kInvalidRow;
    resolved.emplace_back(*idx, val);
  }
  return UpdateByPk(*t, pk, [&](Row& row) {
    for (const auto& [idx, val] : resolved) row[idx] = val;
  });
}

TxnResult Transaction::DeleteByPk(const std::string& table, const Row& pk) {
  Table* t = db_.GetTable(table);
  if (t == nullptr) return TxnResult::kNotFound;
  return DeleteByPk(*t, pk);
}

std::optional<Row> Transaction::SelectByPk(Table& table, const Row& pk) {
  db_.DelayFor(db_.config_.read_delay);
  Bump(db_.stats_.reads);
  if (state_ != State::kActive) return std::nullopt;
  return table.Read(ctx_, pk);
}

std::vector<Row> Transaction::SelectWhereEq(Table& table, std::size_t col,
                                            const Value& value) {
  db_.DelayFor(db_.config_.read_delay);
  Bump(db_.stats_.reads);
  if (state_ != State::kActive || col >= table.schema().columns.size()) {
    return {};
  }
  return table.ReadWhereEq(ctx_, col, value);
}

std::vector<Row> Transaction::SelectWhere(
    Table& table, const std::function<bool(const Row&)>& pred) {
  db_.DelayFor(db_.config_.read_delay);
  Bump(db_.stats_.reads);
  if (state_ != State::kActive) return {};
  return table.Scan(ctx_, pred);
}

void Transaction::Record(Table& table, TxnResult r,
                         Table::RowChain* claimed) {
  if (r == TxnResult::kConflict) {
    Bump(db_.stats_.conflicts);
    Doom();
  }
  if (r == TxnResult::kOk && claimed != nullptr) {
    writes_.push_back({&table, claimed});
  }
}

TxnResult Transaction::Insert(Table& table, Row row) {
  if (state_ != State::kActive) return TxnResult::kAborted;
  db_.DelayFor(db_.config_.write_delay);
  Bump(db_.stats_.writes);
  const bool fire = db_.HasTriggers();
  Row new_row;  // the trigger event's copy
  if (fire) new_row = row;
  Table::RowChain* claimed = nullptr;
  TxnResult r = table.InsertIntent(ctx_, std::move(row), &claimed);
  Record(table, r, claimed);
  if (r == TxnResult::kOk && fire) {
    db_.FireTriggers(*this, {DmlOp::kInsert, table.schema().name, nullptr,
                             &new_row});
  }
  return r;
}

TxnResult Transaction::UpdateByPk(Table& table, const Row& pk,
                                  const std::function<void(Row&)>& mutate,
                                  const std::function<bool(const Row&)>& match) {
  if (state_ != State::kActive) return TxnResult::kAborted;
  db_.DelayFor(db_.config_.write_delay);
  Bump(db_.stats_.writes);
  Table::RowChain* claimed = nullptr;
  if (!db_.HasTriggers()) {
    TxnResult r = table.UpdateIntent(ctx_, pk, mutate, match, &claimed);
    Record(table, r, claimed);
    return r;
  }
  Row old_row;
  Row new_row;
  auto capture = [&](Row& r) {
    old_row = r;
    mutate(r);
    new_row = r;
  };
  TxnResult r = table.UpdateIntent(ctx_, pk, capture, match, &claimed);
  Record(table, r, claimed);
  if (r == TxnResult::kOk) {
    db_.FireTriggers(*this, {DmlOp::kUpdate, table.schema().name, &old_row,
                             &new_row});
  }
  return r;
}

TxnResult Transaction::DeleteByPk(Table& table, const Row& pk,
                                  const std::function<bool(const Row&)>& match) {
  if (state_ != State::kActive) return TxnResult::kAborted;
  db_.DelayFor(db_.config_.write_delay);
  Bump(db_.stats_.writes);
  Table::RowChain* claimed = nullptr;
  if (!db_.HasTriggers()) {
    TxnResult r = table.DeleteIntent(ctx_, pk, match, &claimed);
    Record(table, r, claimed);
    return r;
  }
  Row old_row;
  auto capture = [&](const Row& r) {
    if (match && !match(r)) return false;
    old_row = r;
    return true;
  };
  TxnResult r = table.DeleteIntent(ctx_, pk, capture, &claimed);
  Record(table, r, claimed);
  if (r == TxnResult::kOk) {
    db_.FireTriggers(*this, {DmlOp::kDelete, table.schema().name, &old_row,
                             nullptr});
  }
  return r;
}

TxnResult Transaction::Commit() {
  if (state_ != State::kActive) return TxnResult::kAborted;
  db_.DelayFor(db_.config_.commit_delay);
  // Versions that end at or before the horizon are invisible to every
  // snapshot registered now and to every one taken later, so each chain
  // this commit writes drops them.
  const Timestamp horizon = writes_.empty() ? 0 : db_.OldestSnapshot();
  {
    std::lock_guard commit_lock(db_.commit_mu_);
    Timestamp ts = db_.commit_counter_.load(std::memory_order_relaxed) + 1;
    for (const auto& w : writes_) {
      w.table->InstallCommit(ctx_.id, *w.chain, ts, horizon);
    }
    db_.commit_counter_.store(ts, std::memory_order_release);
    commit_ts_ = ts;
  }
  state_ = State::kCommitted;
  Bump(db_.stats_.txns_committed);
  return TxnResult::kOk;
}

void Transaction::Rollback() {
  if (state_ != State::kActive) return;
  Doom();
}

void Transaction::Doom() {
  for (const auto& w : writes_) w.table->AbortIntent(ctx_.id, *w.chain);
  writes_.clear();
  state_ = State::kAborted;
  Bump(db_.stats_.txns_aborted);
}

// ---- Database ---------------------------------------------------------------

Database::Database() : Database(Config{}) {}

Database::Database(Config config)
    : config_(config),
      clock_(config.clock != nullptr ? *config.clock : SteadyClock::Instance()) {}

void Database::DelayFor(Nanos d) const {
  if (d > 0) SleepFor(clock_, d);
}

bool Database::CreateTable(TableSchema schema) {
  std::lock_guard lock(catalog_mu_);
  std::string name = schema.name;  // read before the move below
  auto [it, inserted] =
      tables_.emplace(std::move(name), std::make_unique<Table>(std::move(schema)));
  (void)it;
  return inserted;
}

Table* Database::GetTable(const std::string& name) {
  std::lock_guard lock(catalog_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::GetTable(const std::string& name) const {
  std::lock_guard lock(catalog_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::unique_ptr<Transaction> Database::Begin() {
  TxnId id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  Timestamp snapshot;
  {
    // Take the snapshot and register it in one step under active_mu_, so
    // OldestSnapshot, which reads both under the same lock, never returns a
    // horizon past a snapshot that is about to be registered.
    std::lock_guard lock(active_mu_);
    snapshot = commit_counter_.load(std::memory_order_acquire);
    active_snapshots_[id] = snapshot;
  }
  Bump(stats_.txns_started);
  return std::unique_ptr<Transaction>(new Transaction(*this, id, snapshot));
}

bool Database::RunTransaction(const std::function<bool(Transaction&)>& body,
                              int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Back off before retrying: immediate retries livelock under
      // first-committer-wins when many threads pound one row.
      SleepFor(clock_, std::min<Nanos>(attempt, 64) * 2 * kNanosPerMicro);
    }
    auto txn = Begin();
    bool want_commit = body(*txn);
    // A doomed transaction means a write-write conflict surfaced inside the
    // body (the DML verbs Doom() on kConflict), NOT a user decision — the
    // body typically maps the failed statement to `false`, and treating
    // that as "roll back and give up" silently dropped the retry the
    // contract promises. Retry regardless of what the body returned.
    if (txn->state() == Transaction::State::kAborted) continue;
    if (!want_commit) {
      txn->Rollback();
      return false;
    }
    if (txn->Commit() == TxnResult::kOk) return true;
  }
  return false;
}

void Database::RegisterTrigger(const std::string& table, DmlOp op,
                               TriggerFn fn) {
  std::lock_guard lock(trigger_mu_);
  triggers_[TriggerKey{table, op}].push_back(std::move(fn));
  has_triggers_.store(true, std::memory_order_release);
}

void Database::ClearTriggers() {
  std::lock_guard lock(trigger_mu_);
  triggers_.clear();
  has_triggers_.store(false, std::memory_order_release);
}

void Database::FireTriggers(Transaction& txn, const TriggerEvent& event) {
  std::vector<TriggerFn> to_fire;
  {
    std::lock_guard lock(trigger_mu_);
    auto it = triggers_.find(TriggerKey{event.table, event.op});
    if (it == triggers_.end()) return;
    to_fire = it->second;  // copy so triggers may register triggers
  }
  for (const auto& fn : to_fire) fn(txn, event);
}

Database::Stats Database::GetStats() const {
  return LoadCounters(stats_, kDatabaseStatsFields);
}

Timestamp Database::OldestSnapshot() const {
  std::lock_guard lock(active_mu_);
  Timestamp oldest = commit_counter_.load(std::memory_order_acquire);
  for (const auto& [id, snap] : active_snapshots_) {
    oldest = std::min(oldest, snap);
  }
  return oldest;
}

std::size_t Database::Vacuum() {
  const Timestamp oldest = OldestSnapshot();
  std::size_t reclaimed = 0;
  std::lock_guard lock(catalog_mu_);
  for (auto& [name, table] : tables_) reclaimed += table->Vacuum(oldest);
  return reclaimed;
}

}  // namespace iq::sql
