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
  db_.DelayFor(db_.config_.read_delay);
  {
    std::lock_guard lock(db_.stats_mu_);
    ++db_.stats_.reads;
  }
  Table* t = db_.GetTable(table);
  if (t == nullptr || state_ != State::kActive) return std::nullopt;
  return t->Read(ctx_, pk);
}

std::vector<Row> Transaction::SelectWhereEq(const std::string& table,
                                            const std::string& column,
                                            const Value& value) {
  db_.DelayFor(db_.config_.read_delay);
  {
    std::lock_guard lock(db_.stats_mu_);
    ++db_.stats_.reads;
  }
  Table* t = db_.GetTable(table);
  if (t == nullptr || state_ != State::kActive) return {};
  auto col = t->schema().ColumnIndex(column);
  if (!col) return {};
  return t->ReadWhereEq(ctx_, *col, value);
}

std::vector<Row> Transaction::SelectAll(const std::string& table) {
  return SelectWhere(table, [](const Row&) { return true; });
}

std::vector<Row> Transaction::SelectWhere(
    const std::string& table, const std::function<bool(const Row&)>& pred) {
  db_.DelayFor(db_.config_.read_delay);
  {
    std::lock_guard lock(db_.stats_mu_);
    ++db_.stats_.reads;
  }
  Table* t = db_.GetTable(table);
  if (t == nullptr || state_ != State::kActive) return {};
  return t->Scan(ctx_, pred);
}

TxnResult Transaction::Insert(const std::string& table, Row row) {
  if (state_ != State::kActive) return TxnResult::kAborted;
  db_.DelayFor(db_.config_.write_delay);
  {
    std::lock_guard lock(db_.stats_mu_);
    ++db_.stats_.writes;
  }
  Table* t = db_.GetTable(table);
  if (t == nullptr) return TxnResult::kNotFound;
  Row pk = t->schema().PrimaryKeyOf(row);
  Row row_copy = row;  // for the trigger event
  TxnResult r = t->InsertIntent(ctx_, std::move(row));
  if (r == TxnResult::kConflict) {
    {
      std::lock_guard lock(db_.stats_mu_);
      ++db_.stats_.conflicts;
    }
    Doom();
    return r;
  }
  if (r != TxnResult::kOk) return r;
  writes_.push_back({t, std::move(pk)});
  TriggerEvent event{DmlOp::kInsert, table, nullptr, &row_copy};
  db_.FireTriggers(*this, event);
  return r;
}

TxnResult Transaction::UpdateByPk(const std::string& table, const Row& pk,
                                  const std::function<void(Row&)>& mutate) {
  if (state_ != State::kActive) return TxnResult::kAborted;
  db_.DelayFor(db_.config_.write_delay);
  {
    std::lock_guard lock(db_.stats_mu_);
    ++db_.stats_.writes;
  }
  Table* t = db_.GetTable(table);
  if (t == nullptr) return TxnResult::kNotFound;
  Row old_row;
  Row new_row;
  auto capture = [&](Row& r) {
    old_row = r;
    mutate(r);
    new_row = r;
  };
  TxnResult r = t->UpdateIntent(ctx_, pk, capture);
  if (r == TxnResult::kConflict) {
    {
      std::lock_guard lock(db_.stats_mu_);
      ++db_.stats_.conflicts;
    }
    Doom();
    return r;
  }
  if (r != TxnResult::kOk) return r;
  writes_.push_back({t, pk});
  TriggerEvent event{DmlOp::kUpdate, table, &old_row, &new_row};
  db_.FireTriggers(*this, event);
  return r;
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
  return UpdateByPk(table, pk, [&](Row& row) {
    for (const auto& [idx, val] : resolved) row[idx] = val;
  });
}

TxnResult Transaction::DeleteByPk(const std::string& table, const Row& pk) {
  if (state_ != State::kActive) return TxnResult::kAborted;
  db_.DelayFor(db_.config_.write_delay);
  {
    std::lock_guard lock(db_.stats_mu_);
    ++db_.stats_.writes;
  }
  Table* t = db_.GetTable(table);
  if (t == nullptr) return TxnResult::kNotFound;
  Row old_row;
  {
    auto visible = t->Read(ctx_, pk);
    if (visible) old_row = *visible;
  }
  TxnResult r = t->DeleteIntent(ctx_, pk);
  if (r == TxnResult::kConflict) {
    {
      std::lock_guard lock(db_.stats_mu_);
      ++db_.stats_.conflicts;
    }
    Doom();
    return r;
  }
  if (r != TxnResult::kOk) return r;
  writes_.push_back({t, pk});
  TriggerEvent event{DmlOp::kDelete, table, &old_row, nullptr};
  db_.FireTriggers(*this, event);
  return r;
}

TxnResult Transaction::Commit() {
  if (state_ != State::kActive) return TxnResult::kAborted;
  db_.DelayFor(db_.config_.commit_delay);
  {
    std::lock_guard commit_lock(db_.commit_mu_);
    Timestamp ts = db_.commit_counter_.load(std::memory_order_relaxed) + 1;
    for (const auto& w : writes_) w.table->InstallCommit(ctx_.id, w.pk, ts);
    db_.commit_counter_.store(ts, std::memory_order_release);
    commit_ts_ = ts;
  }
  state_ = State::kCommitted;
  std::lock_guard lock(db_.stats_mu_);
  ++db_.stats_.txns_committed;
  return TxnResult::kOk;
}

void Transaction::Rollback() {
  if (state_ != State::kActive) return;
  Doom();
}

void Transaction::Doom() {
  for (const auto& w : writes_) w.table->AbortIntent(ctx_.id, w.pk);
  writes_.clear();
  state_ = State::kAborted;
  std::lock_guard lock(db_.stats_mu_);
  ++db_.stats_.txns_aborted;
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
  Timestamp snapshot = commit_counter_.load(std::memory_order_acquire);
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.txns_started;
  }
  {
    std::lock_guard lock(active_mu_);
    active_snapshots_[id] = snapshot;
  }
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
}

void Database::ClearTriggers() {
  std::lock_guard lock(trigger_mu_);
  triggers_.clear();
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
  std::lock_guard lock(stats_mu_);
  return stats_;
}

std::size_t Database::Vacuum() {
  Timestamp oldest = commit_counter_.load(std::memory_order_acquire);
  {
    std::lock_guard lock(active_mu_);
    for (const auto& [id, snap] : active_snapshots_) {
      oldest = std::min(oldest, snap);
    }
  }
  std::size_t reclaimed = 0;
  std::lock_guard lock(catalog_mu_);
  for (auto& [name, table] : tables_) reclaimed += table->Vacuum(oldest);
  return reclaimed;
}

}  // namespace iq::sql
