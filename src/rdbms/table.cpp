#include "rdbms/table.h"

#include <algorithm>

namespace iq::sql {

const char* ToString(TxnResult r) {
  switch (r) {
    case TxnResult::kOk: return "OK";
    case TxnResult::kConflict: return "CONFLICT";
    case TxnResult::kDuplicateKey: return "DUPLICATE_KEY";
    case TxnResult::kNotFound: return "NOT_FOUND";
    case TxnResult::kInvalidRow: return "INVALID_ROW";
    case TxnResult::kAborted: return "ABORTED";
  }
  return "?";
}

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  indexes_.resize(schema_.secondary_indexes.size());
  for (std::size_t i = 0; i < schema_.secondary_indexes.size(); ++i) {
    index_of_column_[schema_.secondary_indexes[i]] = i;
  }
}

const Table::Version* Table::VisibleVersion(const RowChain& chain,
                                            Timestamp snapshot) const {
  // Chains are short (usually 1-2 live versions); scan from newest.
  for (auto it = chain.versions.rbegin(); it != chain.versions.rend(); ++it) {
    if (it->begin_ts <= snapshot && snapshot < it->end_ts) return &*it;
  }
  return nullptr;
}

std::optional<Row> Table::VisibleRowLocked(const TxnCtx& ctx,
                                           const RowChain& chain) const {
  if (chain.writer == ctx.id && ctx.id != 0) {
    // Own pending intent wins (read-your-writes within the transaction).
    if (chain.pending_is_delete) return std::nullopt;
    if (chain.pending) return *chain.pending;
  }
  const Version* v = VisibleVersion(chain, ctx.snapshot);
  if (v == nullptr) return std::nullopt;
  return v->data;
}

std::optional<Row> Table::Read(const TxnCtx& ctx, const Row& pk) const {
  std::lock_guard lock(mu_);
  auto it = chains_.find(pk);
  if (it == chains_.end()) return std::nullopt;
  return VisibleRowLocked(ctx, *it->second);
}

std::vector<Row> Table::ReadWhereEq(const TxnCtx& ctx, std::size_t col,
                                    const Value& value) const {
  std::lock_guard lock(mu_);
  std::vector<Row> out;
  auto idx_it = index_of_column_.find(col);
  if (idx_it != index_of_column_.end()) {
    const IndexMap& index = indexes_[idx_it->second];
    auto bucket = index.find(value);
    if (bucket == index.end()) return out;
    for (const Row& pk : bucket->second) {
      auto chain_it = chains_.find(pk);
      if (chain_it == chains_.end()) continue;
      auto row = VisibleRowLocked(ctx, *chain_it->second);
      // Index entries are never eagerly removed; re-verify the predicate
      // against the visible version.
      if (row && (*row)[col] == value) out.push_back(std::move(*row));
    }
    return out;
  }
  for (const auto& [pk, chain] : chains_) {
    auto row = VisibleRowLocked(ctx, *chain);
    if (row && (*row)[col] == value) out.push_back(std::move(*row));
  }
  return out;
}

std::vector<Row> Table::Scan(const TxnCtx& ctx,
                             const std::function<bool(const Row&)>& pred) const {
  std::lock_guard lock(mu_);
  std::vector<Row> out;
  for (const auto& [pk, chain] : chains_) {
    auto row = VisibleRowLocked(ctx, *chain);
    if (row && pred(*row)) out.push_back(std::move(*row));
  }
  return out;
}

std::size_t Table::VisibleCount(const TxnCtx& ctx) const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [pk, chain] : chains_) {
    if (VisibleRowLocked(ctx, *chain)) ++n;
  }
  return n;
}

TxnResult Table::CheckWritableLocked(const TxnCtx& ctx,
                                     const RowChain& chain) const {
  if (chain.writer != 0 && chain.writer != ctx.id) {
    return TxnResult::kConflict;  // another transaction holds a pending intent
  }
  // First-committer-wins: a version committed, or a delete committed, after
  // our snapshot means a concurrent transaction already won this row.
  // Versions are in commit order and each ends no later than the next
  // begins, so only the newest can begin or end after the snapshot.
  if (chain.versions.empty()) return TxnResult::kOk;
  const Version& newest = chain.versions.back();
  if (newest.begin_ts > ctx.snapshot ||
      (newest.end_ts != kInfinity && newest.end_ts > ctx.snapshot)) {
    return TxnResult::kConflict;
  }
  return TxnResult::kOk;
}

void Table::AddToIndexesLocked(const Row& row, const Row& pk) {
  for (const auto& [col, slot] : index_of_column_) {
    indexes_[slot][row[col]].insert(pk);
  }
}

TxnResult Table::InsertIntent(const TxnCtx& ctx, Row row) {
  if (!schema_.RowMatches(row)) return TxnResult::kInvalidRow;
  Row pk = schema_.PrimaryKeyOf(row);
  std::lock_guard lock(mu_);
  auto& chain_ptr = chains_[pk];
  if (chain_ptr == nullptr) chain_ptr = std::make_unique<RowChain>();
  RowChain& chain = *chain_ptr;
  TxnResult writable = CheckWritableLocked(ctx, chain);
  if (writable != TxnResult::kOk) return writable;
  // Duplicate if a row is visible to us (own pending insert included).
  if (VisibleRowLocked(ctx, chain)) return TxnResult::kDuplicateKey;
  chain.writer = ctx.id;
  chain.pending = std::move(row);
  chain.pending_is_delete = false;
  AddToIndexesLocked(*chain.pending, pk);
  return TxnResult::kOk;
}

TxnResult Table::UpdateIntent(const TxnCtx& ctx, const Row& pk,
                              const std::function<void(Row&)>& mutate) {
  std::lock_guard lock(mu_);
  auto it = chains_.find(pk);
  if (it == chains_.end()) return TxnResult::kNotFound;
  RowChain& chain = *it->second;
  TxnResult writable = CheckWritableLocked(ctx, chain);
  if (writable != TxnResult::kOk) return writable;
  auto current = VisibleRowLocked(ctx, chain);
  if (!current) return TxnResult::kNotFound;
  mutate(*current);
  if (!schema_.RowMatches(*current)) return TxnResult::kInvalidRow;
  // Updating primary-key columns is not supported (delete + insert instead).
  if (schema_.PrimaryKeyOf(*current) != pk) return TxnResult::kInvalidRow;
  chain.writer = ctx.id;
  chain.pending = std::move(current);
  chain.pending_is_delete = false;
  AddToIndexesLocked(*chain.pending, pk);
  return TxnResult::kOk;
}

TxnResult Table::DeleteIntent(const TxnCtx& ctx, const Row& pk) {
  std::lock_guard lock(mu_);
  auto it = chains_.find(pk);
  if (it == chains_.end()) return TxnResult::kNotFound;
  RowChain& chain = *it->second;
  TxnResult writable = CheckWritableLocked(ctx, chain);
  if (writable != TxnResult::kOk) return writable;
  if (!VisibleRowLocked(ctx, chain)) return TxnResult::kNotFound;
  chain.writer = ctx.id;
  chain.pending = std::nullopt;
  chain.pending_is_delete = true;
  return TxnResult::kOk;
}

void Table::InstallCommit(TxnId txn, const Row& pk, Timestamp ts) {
  std::lock_guard lock(mu_);
  auto it = chains_.find(pk);
  if (it == chains_.end()) return;
  RowChain& chain = *it->second;
  if (chain.writer != txn) return;
  // Terminate the previously live version, if any.
  if (!chain.versions.empty() && chain.versions.back().end_ts == kInfinity) {
    chain.versions.back().end_ts = ts;
  }
  if (!chain.pending_is_delete && chain.pending) {
    chain.versions.push_back(Version{ts, kInfinity, std::move(*chain.pending)});
  }
  chain.writer = 0;
  chain.pending.reset();
  chain.pending_is_delete = false;
}

void Table::AbortIntent(TxnId txn, const Row& pk) {
  std::lock_guard lock(mu_);
  auto it = chains_.find(pk);
  if (it == chains_.end()) return;
  RowChain& chain = *it->second;
  if (chain.writer != txn) return;
  chain.writer = 0;
  chain.pending.reset();
  chain.pending_is_delete = false;
  if (chain.versions.empty()) chains_.erase(it);  // aborted fresh insert
}

std::size_t Table::Vacuum(Timestamp oldest_active) {
  std::lock_guard lock(mu_);
  std::size_t reclaimed = 0;
  for (auto it = chains_.begin(); it != chains_.end();) {
    RowChain& chain = *it->second;
    auto dead = [&](const Version& v) {
      return v.end_ts != kInfinity && v.end_ts <= oldest_active;
    };
    auto before = chain.versions.size();
    chain.versions.erase(
        std::remove_if(chain.versions.begin(), chain.versions.end(), dead),
        chain.versions.end());
    reclaimed += before - chain.versions.size();
    if (chain.versions.empty() && chain.writer == 0) {
      it = chains_.erase(it);
    } else {
      ++it;
    }
  }
  // Rebuild indexes from live data (simplest correct pruning).
  for (auto& index : indexes_) index.clear();
  for (const auto& [pk, chain] : chains_) {
    for (const auto& v : chain->versions) AddToIndexesLocked(v.data, pk);
    if (chain->pending) AddToIndexesLocked(*chain->pending, pk);
  }
  return reclaimed;
}

std::size_t Table::ChainCount() const {
  std::lock_guard lock(mu_);
  return chains_.size();
}

}  // namespace iq::sql
