#include "rdbms/table.h"

#include <algorithm>
#include <bit>
#include <memory>

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
  indexes_.reserve(schema_.secondary_indexes.size());
  for (std::size_t i = 0; i < schema_.secondary_indexes.size(); ++i) {
    indexes_.emplace_back(&pool_);
  }
}

Table::~Table() {
  for (RowChain* chain : slots_) {
    if (chain != nullptr) FreeChain(chain);
  }
}

// ---- the primary-key index -----------------------------------------------

template <typename KeyCell>
std::size_t Table::KeyHash(const KeyCell& key) const {
  std::size_t h = RowHash::kBasis;
  for (std::size_t k = 0; k < schema_.primary_key.size(); ++k) {
    h = RowHash::Add(h, key(k));
  }
  return h;
}

std::size_t Table::HomeSlot(std::size_t hash) const {
  // Fibonacci hashing: the product's top log2(size) bits mix every bit of
  // the hash.
  const int bits = std::countr_zero(slots_.size());
  return (hash * 0x9e3779b97f4a7c15ULL) >> (64 - bits);
}

std::size_t Table::ChainHash(const RowChain& chain) const {
  const Value* cells = chain.cells();
  return KeyHash([&](std::size_t k) -> const Value& {
    return cells[schema_.primary_key[k]];
  });
}

template <typename KeyCell>
Table::RowChain* Table::FindLocked(const KeyCell& key) const {
  if (chain_count_ == 0) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = HomeSlot(KeyHash(key)); slots_[i] != nullptr;
       i = (i + 1) & mask) {
    const Value* cells = slots_[i]->cells();
    bool equal = true;
    for (std::size_t k = 0; equal && k < schema_.primary_key.size(); ++k) {
      equal = cells[schema_.primary_key[k]] == key(k);
    }
    if (equal) return slots_[i];
  }
  return nullptr;
}

Table::RowChain* Table::FindLocked(const Row& pk) const {
  if (pk.size() != schema_.primary_key.size()) return nullptr;
  return FindLocked([&](std::size_t k) -> const Value& { return pk[k]; });
}

void Table::PlaceLocked(RowChain* chain) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = HomeSlot(ChainHash(*chain));
  while (slots_[i] != nullptr) i = (i + 1) & mask;
  slots_[i] = chain;
}

Table::RowChain* Table::NewChainLocked(const Row& row) {
  if ((chain_count_ + 1) * 2 > slots_.size()) {
    // Grow to keep at most half the slots used, and re-place every chain.
    std::vector<RowChain*> old = std::move(slots_);
    const std::size_t size = std::max<std::size_t>(16, old.size() * 2);
    slots_.assign(size, nullptr);
    for (RowChain* chain : old) {
      if (chain != nullptr) PlaceLocked(chain);
    }
  }
  const std::size_t width = schema_.columns.size();
  void* block = ::operator new(sizeof(RowChain) + width * sizeof(Value));
  auto* chain = new (block) RowChain;
  std::uninitialized_default_construct_n(reinterpret_cast<Value*>(chain + 1),
                                         width);
  for (std::size_t col : schema_.primary_key) chain->cells()[col] = row[col];
  PlaceLocked(chain);
  ++chain_count_;
  return chain;
}

void Table::EraseChainLocked(RowChain& chain) {
  // Backward-shift deletion: pull each later chain of the probe run into
  // the hole unless that would put it before its home slot.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = HomeSlot(ChainHash(chain));
  while (slots_[hole] != &chain) hole = (hole + 1) & mask;
  for (std::size_t i = (hole + 1) & mask; slots_[i] != nullptr;
       i = (i + 1) & mask) {
    const std::size_t home = HomeSlot(ChainHash(*slots_[i]));
    // Movable iff home is not cyclically in (hole, i].
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = nullptr;
  --chain_count_;
  FreeChain(&chain);
}

void Table::FreeChain(RowChain* chain) {
  if (chain->history != nullptr) {
    std::pmr::polymorphic_allocator<>(&pool_).delete_object(chain->history);
  }
  const std::size_t width = schema_.columns.size();
  std::destroy_n(chain->cells(), width);
  chain->~RowChain();
  ::operator delete(static_cast<void*>(chain),
                    sizeof(RowChain) + width * sizeof(Value));
}

void Table::TrimHistoryLocked(RowChain& chain) {
  RowChain::History* h = chain.history;
  if (h != nullptr && h->writer == 0 && h->older.empty()) {
    std::pmr::polymorphic_allocator<>(&pool_).delete_object(h);
    chain.history = nullptr;
  }
}

// ---- visibility ----------------------------------------------------------

const Value* Table::VisibleVersion(const RowChain& chain, Timestamp snapshot) {
  auto visible = [snapshot](Timestamp begin_ts, Timestamp end_ts) {
    return begin_ts <= snapshot && snapshot < end_ts;
  };
  if (chain.begin_ts == 0) return nullptr;
  if (visible(chain.begin_ts, chain.end_ts)) return chain.cells();
  if (chain.history == nullptr) return nullptr;
  // Older versions live until no snapshot can read them; scan from newest.
  const std::vector<Version>& older = chain.history->older;
  for (auto it = older.rbegin(); it != older.rend(); ++it) {
    if (visible(it->begin_ts, it->end_ts)) return it->data.data();
  }
  return nullptr;
}

const Value* Table::VisibleRowLocked(const TxnCtx& ctx,
                                     const RowChain& chain) {
  if (ctx.id != 0 && chain.writer() == ctx.id) {
    // Own pending intent wins (read-your-writes within the transaction).
    const Row& pending = chain.history->pending;
    return pending.empty() ? nullptr : pending.data();
  }
  return VisibleVersion(chain, ctx.snapshot);
}

std::optional<Row> Table::Read(const TxnCtx& ctx, const Row& pk) const {
  std::lock_guard lock(mu_);
  const RowChain* chain = FindLocked(pk);
  if (chain == nullptr) return std::nullopt;
  const Value* row = VisibleRowLocked(ctx, *chain);
  if (row == nullptr) return std::nullopt;
  return RowOf(row);
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
      const Value* row = VisibleRowLocked(ctx, *chain);
      if (row != nullptr && row[col] == value) out.push_back(RowOf(row));
    }
    return out;
  }
  for (const RowChain* chain : slots_) {
    if (chain == nullptr) continue;
    const Value* row = VisibleRowLocked(ctx, *chain);
    if (row != nullptr && row[col] == value) out.push_back(RowOf(row));
  }
  return out;
}

std::vector<Row> Table::Scan(const TxnCtx& ctx,
                             const std::function<bool(const Row&)>& pred) const {
  std::lock_guard lock(mu_);
  std::vector<Row> out;
  Row row;  // each visible row in turn, for the predicate
  for (const RowChain* chain : slots_) {
    if (chain == nullptr) continue;
    const Value* cells = VisibleRowLocked(ctx, *chain);
    if (cells == nullptr) continue;
    row.assign(cells, cells + schema_.columns.size());
    if (pred(row)) out.push_back(std::move(row));  // assign() refills it
  }
  return out;
}

std::size_t Table::VisibleCount(const TxnCtx& ctx) const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const RowChain* chain : slots_) {
    if (chain != nullptr && VisibleRowLocked(ctx, *chain) != nullptr) ++n;
  }
  return n;
}

// ---- write intents -------------------------------------------------------

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
  if (chain.begin_ts == 0) return TxnResult::kOk;
  if (chain.begin_ts > ctx.snapshot ||
      (chain.end_ts != kInfinity && chain.end_ts > ctx.snapshot)) {
    return TxnResult::kConflict;
  }
  return TxnResult::kOk;
}

bool Table::CommittedHolds(const RowChain& chain, std::size_t col,
                           const Value& v) {
  if (chain.begin_ts == 0) return false;
  if (chain.cells()[col] == v) return true;
  if (chain.history == nullptr) return false;
  return std::any_of(
      chain.history->older.begin(), chain.history->older.end(),
      [&](const Version& old) { return old.data[col] == v; });
}

void Table::UnlinkLocked(std::size_t slot, const Value& v, RowChain* chain) {
  IndexMap& index = indexes_[slot];
  auto bucket = index.find(v);
  if (bucket == index.end()) return;
  Bucket& refs = bucket->second;
  auto it = std::find(refs.begin(), refs.end(), chain);
  if (it == refs.end()) return;
  *it = refs.back();
  refs.pop_back();
  if (refs.empty()) index.erase(bucket);
}

void Table::ReindexLocked(RowChain& chain, const Value* prev,
                          const Value* next) {
  for (std::size_t slot = 0; slot < indexes_.size(); ++slot) {
    const std::size_t col = schema_.secondary_indexes[slot];
    const Value* old_v = prev != nullptr ? &prev[col] : nullptr;
    const Value* new_v = next != nullptr ? &next[col] : nullptr;
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
    std::pmr::polymorphic_allocator<> alloc(&pool_);
    chain.history = alloc.new_object<RowChain::History>();
  }
  RowChain::History& h = *chain.history;
  ReindexLocked(chain, h.pending.empty() ? nullptr : h.pending.data(),
                next.empty() ? nullptr : next.data());
  if (claimed != nullptr) *claimed = h.writer != ctx.id ? &chain : nullptr;
  h.writer = ctx.id;
  h.pending = std::move(next);
}

TxnResult Table::InsertIntent(const TxnCtx& ctx, Row row, RowChain** claimed) {
  if (!schema_.RowMatches(row)) return TxnResult::kInvalidRow;
  std::lock_guard lock(mu_);
  RowChain* chain = FindLocked([&](std::size_t k) -> const Value& {
    return row[schema_.primary_key[k]];
  });
  if (chain == nullptr) {
    chain = NewChainLocked(row);  // no version and no writer: writable
  } else {
    TxnResult writable = CheckWritableLocked(ctx, *chain);
    if (writable != TxnResult::kOk) return writable;
    // Duplicate if a row is visible to us (own pending insert included).
    if (VisibleRowLocked(ctx, *chain) != nullptr) {
      return TxnResult::kDuplicateKey;
    }
  }
  SetPendingLocked(ctx, *chain, std::move(row), claimed);
  return TxnResult::kOk;
}

TxnResult Table::UpdateIntent(const TxnCtx& ctx, const Row& pk,
                              const std::function<void(Row&)>& mutate,
                              const std::function<bool(const Row&)>& match,
                              RowChain** claimed) {
  std::lock_guard lock(mu_);
  RowChain* chain = FindLocked(pk);
  if (chain == nullptr) return TxnResult::kNotFound;
  TxnResult writable = CheckWritableLocked(ctx, *chain);
  if (writable != TxnResult::kOk) return writable;
  const Value* current = VisibleRowLocked(ctx, *chain);
  if (current == nullptr) return TxnResult::kNotFound;
  Row next = RowOf(current);
  if (match && !match(next)) return TxnResult::kNotFound;
  mutate(next);
  if (!schema_.RowMatches(next)) return TxnResult::kInvalidRow;
  // Updating primary-key columns is not supported (delete + insert instead).
  for (std::size_t k = 0; k < schema_.primary_key.size(); ++k) {
    if (next[schema_.primary_key[k]] != pk[k]) return TxnResult::kInvalidRow;
  }
  SetPendingLocked(ctx, *chain, std::move(next), claimed);
  return TxnResult::kOk;
}

TxnResult Table::DeleteIntent(const TxnCtx& ctx, const Row& pk,
                              const std::function<bool(const Row&)>& match,
                              RowChain** claimed) {
  std::lock_guard lock(mu_);
  RowChain* chain = FindLocked(pk);
  if (chain == nullptr) return TxnResult::kNotFound;
  TxnResult writable = CheckWritableLocked(ctx, *chain);
  if (writable != TxnResult::kOk) return writable;
  const Value* current = VisibleRowLocked(ctx, *chain);
  if (current == nullptr || (match && !match(RowOf(current)))) {
    return TxnResult::kNotFound;
  }
  SetPendingLocked(ctx, *chain, Row{}, claimed);
  return TxnResult::kOk;
}

// ---- commit and abort ----------------------------------------------------

void Table::InstallCommit(TxnId txn, RowChain& chain, Timestamp ts,
                          Timestamp horizon) {
  std::lock_guard lock(mu_);
  if (chain.writer() != txn) return;
  RowChain::History& h = *chain.history;
  Value* cells = chain.cells();
  const bool has_newest = chain.begin_ts != 0;
  const bool was_live = has_newest && chain.end_ts == kInfinity;
  // Terminate the previously live version, if any.
  if (was_live) chain.end_ts = ts;
  if (!h.pending.empty()) {
    if (has_newest) {
      // The pending row's cell array takes the superseded version.
      std::swap_ranges(cells, cells + schema_.columns.size(),
                       h.pending.begin());
      h.older.push_back(Version{chain.begin_ts, chain.end_ts,
                                std::move(h.pending)});
    } else {
      std::move(h.pending.begin(), h.pending.end(), cells);
    }
    chain.begin_ts = ts;
    chain.end_ts = kInfinity;
  } else if (was_live) {
    deletes_.push_back({ts, &chain});
  }
  h.writer = 0;
  h.pending.clear();
  if (chain.begin_ts == 0) {
    // A fresh insert deleted again: nothing to keep, and no bucket entry.
    EraseChainLocked(chain);
  } else {
    ReclaimLocked(chain, horizon);
    TrimHistoryLocked(chain);
  }
  EraseDeletedLocked(horizon);
}

void Table::ReclaimLocked(RowChain& chain, Timestamp horizon) {
  std::vector<Version>& older = chain.history->older;
  // Versions end in commit order, so the dead ones are a prefix.
  auto kept = std::find_if(older.begin(), older.end(), [&](const Version& v) {
    return v.end_ts > horizon;
  });
  if (kept == older.begin()) return;
  auto still_held = [&](std::size_t col, const Value& v) {
    return chain.cells()[col] == v ||
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

void Table::EraseDeletedLocked(Timestamp horizon) {
  std::vector<QueuedDelete> held;  // a writer holds the chain again
  while (!deletes_.empty() && deletes_.front().ts <= horizon) {
    const QueuedDelete queued = deletes_.front();
    deletes_.pop_front();
    RowChain& chain = *queued.chain;
    // Stale: the row was re-inserted after this delete; the version it
    // ended is now a superseded one, which ReclaimLocked drops.
    if (chain.end_ts != queued.ts) continue;
    if (chain.writer() != 0) {
      held.push_back(queued);
      continue;
    }
    // Every version ends at or before the delete, so none is readable.
    for (std::size_t slot = 0; slot < indexes_.size(); ++slot) {
      const std::size_t col = schema_.secondary_indexes[slot];
      UnlinkLocked(slot, chain.cells()[col], &chain);
      if (chain.history == nullptr) continue;
      for (const Version& v : chain.history->older) {
        UnlinkLocked(slot, v.data[col], &chain);
      }
    }
    EraseChainLocked(chain);
  }
  deletes_.insert(deletes_.end(), held.begin(), held.end());
}

void Table::AbortIntent(TxnId txn, RowChain& chain) {
  std::lock_guard lock(mu_);
  if (chain.writer() != txn) return;
  RowChain::History& h = *chain.history;
  // A pending delete holds no indexed value.
  if (!h.pending.empty()) ReindexLocked(chain, h.pending.data(), nullptr);
  if (chain.begin_ts == 0) {  // an aborted fresh insert leaves no trace
    EraseChainLocked(chain);
    return;
  }
  h.writer = 0;
  h.pending.clear();
  TrimHistoryLocked(chain);
}

// ---- maintenance ---------------------------------------------------------

std::size_t Table::Vacuum(Timestamp oldest_active) {
  std::lock_guard lock(mu_);
  std::size_t reclaimed = 0;
  auto dead = [&](Timestamp end_ts) {
    return end_ts != kInfinity && end_ts <= oldest_active;
  };
  std::vector<RowChain*> kept;
  kept.reserve(chain_count_);
  for (RowChain* chain : slots_) {
    if (chain == nullptr) continue;
    if (chain->history != nullptr) {
      reclaimed += std::erase_if(chain->history->older, [&](const Version& v) {
        return dead(v.end_ts);
      });
    }
    // Every older version ends before the newest begins, so a dead newest
    // leaves nothing behind it. Its key cells stay for the index.
    if (chain->begin_ts != 0 && dead(chain->end_ts)) {
      chain->begin_ts = 0;
      chain->end_ts = kInfinity;
      ++reclaimed;
    }
    TrimHistoryLocked(*chain);
    if (chain->begin_ts == 0 && chain->writer() == 0) {
      FreeChain(chain);
    } else {
      kept.push_back(chain);
    }
  }
  // Rebuild the primary-key index, the queue of deletes and the buckets
  // from the chains kept: each chain once per distinct value its kept
  // versions and pending intent hold.
  std::fill(slots_.begin(), slots_.end(), nullptr);
  chain_count_ = kept.size();
  deletes_.clear();
  for (auto& index : indexes_) index.clear();
  std::vector<const Value*> rows;
  for (RowChain* chain : kept) {
    PlaceLocked(chain);
    if (chain->begin_ts != 0 && chain->end_ts != kInfinity) {
      deletes_.push_back({chain->end_ts, chain});
    }
    rows.clear();
    if (chain->begin_ts != 0) rows.push_back(chain->cells());
    if (chain->history != nullptr) {
      for (const Version& v : chain->history->older) {
        rows.push_back(v.data.data());
      }
      if (!chain->history->pending.empty()) {
        rows.push_back(chain->history->pending.data());
      }
    }
    for (std::size_t slot = 0; slot < indexes_.size(); ++slot) {
      const std::size_t col = schema_.secondary_indexes[slot];
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Value& v = rows[i][col];
        bool seen = std::any_of(rows.begin(), rows.begin() + i,
                                [&](const Value* r) { return r[col] == v; });
        if (!seen) indexes_[slot][v].push_back(chain);
      }
    }
  }
  std::sort(deletes_.begin(), deletes_.end(),
            [](const QueuedDelete& a, const QueuedDelete& b) {
              return a.ts < b.ts;
            });
  return reclaimed;
}

std::size_t Table::ChainCount() const {
  std::lock_guard lock(mu_);
  return chain_count_;
}

}  // namespace iq::sql
