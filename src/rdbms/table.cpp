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
}

const Table::Version* Table::VisibleVersion(const RowChain& chain,
                                            Timestamp snapshot) {
  auto visible = [snapshot](const Version& v) {
    return v.begin_ts <= snapshot && snapshot < v.end_ts;
  };
  if (chain.newest.begin_ts == 0) return nullptr;
  if (visible(chain.newest)) return &chain.newest;
  if (chain.history == nullptr) return nullptr;
  // Older versions live until no snapshot can read them; scan from newest.
  const std::vector<Version>& older = chain.history->older;
  for (auto it = older.rbegin(); it != older.rend(); ++it) {
    if (visible(*it)) return &*it;
  }
  return nullptr;
}

const Row* Table::VisibleRowLocked(const TxnCtx& ctx, const RowChain& chain) {
  if (ctx.id != 0 && chain.writer() == ctx.id) {
    // Own pending intent wins (read-your-writes within the transaction).
    const Row& pending = chain.history->pending;
    return pending.empty() ? nullptr : &pending;
  }
  const Version* v = VisibleVersion(chain, ctx.snapshot);
  return v == nullptr ? nullptr : &v->data;
}

std::optional<Row> Table::Read(const TxnCtx& ctx, const Row& pk) const {
  std::lock_guard lock(mu_);
  auto it = chains_.find(pk);
  if (it == chains_.end()) return std::nullopt;
  const Row* row = VisibleRowLocked(ctx, it->second);
  if (row == nullptr) return std::nullopt;
  return *row;
}

std::vector<Row> Table::ReadWhereEq(const TxnCtx& ctx, std::size_t col,
                                    const Value& value) const {
  std::lock_guard lock(mu_);
  std::vector<Row> out;
  const auto& cols = schema_.secondary_indexes;
  auto slot = std::find(cols.begin(), cols.end(), col);
  if (slot != cols.end()) {
    const IndexMap& index = indexes_[slot - cols.begin()];
    auto bucket = index.find(value);
    if (bucket == index.end()) return out;
    out.reserve(bucket->second.size());
    for (const RowChain* chain : bucket->second) {
      // The bucket holds every chain that has held `value`; keep the ones
      // whose visible version still does.
      const Row* row = VisibleRowLocked(ctx, *chain);
      if (row != nullptr && (*row)[col] == value) out.push_back(*row);
    }
    return out;
  }
  for (const auto& [pk, chain] : chains_) {
    const Row* row = VisibleRowLocked(ctx, chain);
    if (row != nullptr && (*row)[col] == value) out.push_back(*row);
  }
  return out;
}

std::vector<Row> Table::Scan(const TxnCtx& ctx,
                             const std::function<bool(const Row&)>& pred) const {
  std::lock_guard lock(mu_);
  std::vector<Row> out;
  for (const auto& [pk, chain] : chains_) {
    const Row* row = VisibleRowLocked(ctx, chain);
    if (row != nullptr && pred(*row)) out.push_back(*row);
  }
  return out;
}

std::size_t Table::VisibleCount(const TxnCtx& ctx) const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [pk, chain] : chains_) {
    if (VisibleRowLocked(ctx, chain) != nullptr) ++n;
  }
  return n;
}

TxnResult Table::CheckWritableLocked(const TxnCtx& ctx,
                                     const RowChain& chain) {
  const TxnId writer = chain.writer();
  if (writer != 0 && writer != ctx.id) {
    return TxnResult::kConflict;  // another transaction holds a pending intent
  }
  // First-committer-wins: a version committed, or a delete committed, after
  // our snapshot means a concurrent transaction already won this row.
  // Versions are in commit order and each ends no later than the next
  // begins, so only the newest can begin or end after the snapshot.
  const Version& newest = chain.newest;
  if (newest.begin_ts == 0) return TxnResult::kOk;
  if (newest.begin_ts > ctx.snapshot ||
      (newest.end_ts != kInfinity && newest.end_ts > ctx.snapshot)) {
    return TxnResult::kConflict;
  }
  return TxnResult::kOk;
}

bool Table::CommittedHolds(const RowChain& chain, std::size_t col,
                           const Value& v) {
  if (chain.newest.begin_ts == 0) return false;
  if (chain.newest.data[col] == v) return true;
  if (chain.history == nullptr) return false;
  return std::any_of(
      chain.history->older.begin(), chain.history->older.end(),
      [&](const Version& old) { return old.data[col] == v; });
}

void Table::UnlinkLocked(std::size_t slot, const Value& v, RowChain* chain) {
  IndexMap& index = indexes_[slot];
  auto bucket = index.find(v);
  if (bucket == index.end()) return;
  std::vector<RowChain*>& refs = bucket->second;
  auto it = std::find(refs.begin(), refs.end(), chain);
  if (it == refs.end()) return;
  *it = refs.back();
  refs.pop_back();
  if (refs.empty()) index.erase(bucket);
}

void Table::ReindexLocked(RowChain& chain, const Row* prev, const Row* next) {
  for (std::size_t slot = 0; slot < indexes_.size(); ++slot) {
    const std::size_t col = schema_.secondary_indexes[slot];
    const Value* old_v = prev != nullptr ? &(*prev)[col] : nullptr;
    const Value* new_v = next != nullptr ? &(*next)[col] : nullptr;
    if (old_v != nullptr && new_v != nullptr && *old_v == *new_v) continue;
    if (new_v != nullptr && !CommittedHolds(chain, col, *new_v)) {
      indexes_[slot][*new_v].push_back(&chain);
    }
    if (old_v != nullptr && !CommittedHolds(chain, col, *old_v)) {
      UnlinkLocked(slot, *old_v, &chain);
    }
  }
}

void Table::SetPendingLocked(const TxnCtx& ctx, RowChain& chain, Row next,
                             RowChain** claimed) {
  if (chain.history == nullptr) {
    chain.history = std::make_unique<RowChain::History>();
  }
  RowChain::History& h = *chain.history;
  ReindexLocked(chain, h.pending.empty() ? nullptr : &h.pending,
                next.empty() ? nullptr : &next);
  if (claimed != nullptr) *claimed = h.writer != ctx.id ? &chain : nullptr;
  h.writer = ctx.id;
  h.pending = std::move(next);
}

TxnResult Table::InsertIntent(const TxnCtx& ctx, Row row, RowChain** claimed) {
  if (!schema_.RowMatches(row)) return TxnResult::kInvalidRow;
  std::lock_guard lock(mu_);
  RowChain& chain = chains_.try_emplace(schema_.PrimaryKeyOf(row)).first->second;
  TxnResult writable = CheckWritableLocked(ctx, chain);
  if (writable != TxnResult::kOk) return writable;
  // Duplicate if a row is visible to us (own pending insert included).
  if (VisibleRowLocked(ctx, chain) != nullptr) return TxnResult::kDuplicateKey;
  SetPendingLocked(ctx, chain, std::move(row), claimed);
  return TxnResult::kOk;
}

TxnResult Table::UpdateIntent(const TxnCtx& ctx, const Row& pk,
                              const std::function<void(Row&)>& mutate,
                              const std::function<bool(const Row&)>& match,
                              RowChain** claimed) {
  std::lock_guard lock(mu_);
  auto it = chains_.find(pk);
  if (it == chains_.end()) return TxnResult::kNotFound;
  RowChain& chain = it->second;
  TxnResult writable = CheckWritableLocked(ctx, chain);
  if (writable != TxnResult::kOk) return writable;
  const Row* current = VisibleRowLocked(ctx, chain);
  if (current == nullptr || (match && !match(*current))) {
    return TxnResult::kNotFound;
  }
  Row next = *current;
  mutate(next);
  if (!schema_.RowMatches(next)) return TxnResult::kInvalidRow;
  // Updating primary-key columns is not supported (delete + insert instead).
  for (std::size_t k = 0; k < schema_.primary_key.size(); ++k) {
    if (next[schema_.primary_key[k]] != pk[k]) return TxnResult::kInvalidRow;
  }
  SetPendingLocked(ctx, chain, std::move(next), claimed);
  return TxnResult::kOk;
}

TxnResult Table::DeleteIntent(const TxnCtx& ctx, const Row& pk,
                              const std::function<bool(const Row&)>& match,
                              RowChain** claimed) {
  std::lock_guard lock(mu_);
  auto it = chains_.find(pk);
  if (it == chains_.end()) return TxnResult::kNotFound;
  RowChain& chain = it->second;
  TxnResult writable = CheckWritableLocked(ctx, chain);
  if (writable != TxnResult::kOk) return writable;
  const Row* current = VisibleRowLocked(ctx, chain);
  if (current == nullptr || (match && !match(*current))) {
    return TxnResult::kNotFound;
  }
  SetPendingLocked(ctx, chain, Row{}, claimed);
  return TxnResult::kOk;
}

void Table::InstallCommit(TxnId txn, RowChain& chain, Timestamp ts,
                          Timestamp horizon) {
  std::lock_guard lock(mu_);
  if (chain.writer() != txn) return;
  RowChain::History& h = *chain.history;
  const bool has_newest = chain.newest.begin_ts != 0;
  // Terminate the previously live version, if any.
  if (has_newest && chain.newest.end_ts == kInfinity) chain.newest.end_ts = ts;
  if (!h.pending.empty()) {
    if (has_newest) h.older.push_back(std::move(chain.newest));
    chain.newest = Version{ts, kInfinity, std::move(h.pending)};
  }
  h.writer = 0;
  h.pending.clear();
  ReclaimLocked(chain, horizon);
  chain.TrimHistory();
}

void Table::ReclaimLocked(RowChain& chain, Timestamp horizon) {
  std::vector<Version>& older = chain.history->older;
  // Versions end in commit order, so the dead ones are a prefix.
  auto kept = std::find_if(older.begin(), older.end(), [&](const Version& v) {
    return v.end_ts > horizon;
  });
  if (kept == older.begin()) return;
  auto still_held = [&](std::size_t col, const Value& v) {
    return chain.newest.data[col] == v ||
           std::any_of(kept, older.end(),
                       [&](const Version& k) { return k.data[col] == v; });
  };
  for (auto dead = older.begin(); dead != kept; ++dead) {
    for (std::size_t slot = 0; slot < indexes_.size(); ++slot) {
      const std::size_t col = schema_.secondary_indexes[slot];
      const Value& v = dead->data[col];
      // A value two dead versions held is unlinked once; the second
      // unlink finds nothing.
      if (!still_held(col, v)) UnlinkLocked(slot, v, &chain);
    }
  }
  older.erase(older.begin(), kept);
}

void Table::AbortIntent(TxnId txn, RowChain& chain) {
  std::lock_guard lock(mu_);
  if (chain.writer() != txn) return;
  RowChain::History& h = *chain.history;
  // A pending delete holds no indexed value. (After an insert and a delete
  // in one transaction the chain may hold no version at all; Vacuum erases
  // it.)
  if (!h.pending.empty()) {
    ReindexLocked(chain, &h.pending, nullptr);
    if (chain.newest.begin_ts == 0) {  // an aborted fresh insert leaves no trace
      chains_.erase(chains_.find(schema_.PrimaryKeyOf(h.pending)));
      return;
    }
  }
  h.writer = 0;
  h.pending.clear();
  chain.TrimHistory();
}

std::size_t Table::Vacuum(Timestamp oldest_active) {
  std::lock_guard lock(mu_);
  std::size_t reclaimed = 0;
  auto dead = [&](const Version& v) {
    return v.end_ts != kInfinity && v.end_ts <= oldest_active;
  };
  for (auto it = chains_.begin(); it != chains_.end();) {
    RowChain& chain = it->second;
    if (chain.history != nullptr) {
      reclaimed += std::erase_if(chain.history->older, dead);
    }
    // Every older version ends before the newest begins, so a dead newest
    // leaves nothing behind it.
    if (chain.newest.begin_ts != 0 && dead(chain.newest)) {
      chain.newest = Version{};
      ++reclaimed;
    }
    chain.TrimHistory();
    if (chain.newest.begin_ts == 0 && chain.writer() == 0) {
      it = chains_.erase(it);
    } else {
      ++it;
    }
  }
  // Rebuild the buckets: each chain once per distinct value its kept
  // versions and pending intent hold.
  for (auto& index : indexes_) index.clear();
  std::vector<const Row*> rows;
  for (auto& [pk, chain] : chains_) {
    rows.clear();
    if (chain.newest.begin_ts != 0) rows.push_back(&chain.newest.data);
    if (chain.history != nullptr) {
      for (const Version& v : chain.history->older) rows.push_back(&v.data);
      if (!chain.history->pending.empty()) {
        rows.push_back(&chain.history->pending);
      }
    }
    for (std::size_t slot = 0; slot < indexes_.size(); ++slot) {
      const std::size_t col = schema_.secondary_indexes[slot];
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Value& v = (*rows[i])[col];
        bool seen = std::any_of(rows.begin(), rows.begin() + i,
                                [&](const Row* r) { return (*r)[col] == v; });
        if (!seen) indexes_[slot][v].push_back(&chain);
      }
    }
  }
  return reclaimed;
}

std::size_t Table::ChainCount() const {
  std::lock_guard lock(mu_);
  return chains_.size();
}

}  // namespace iq::sql
