#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>
#include <variant>

#include "rdbms/table.h"

namespace iq::sql {
namespace {

TableSchema TwoColSchema() {
  return SchemaBuilder("T").AddInt("id").AddText("v").PrimaryKey({"id"}).Build();
}

TableSchema IndexedSchema() {
  return SchemaBuilder("T")
      .AddInt("id")
      .AddInt("group_id")
      .AddText("v")
      .PrimaryKey({"id"})
      .Index("group_id")
      .Build();
}

TEST(Schema, ColumnIndexFindsByName) {
  auto s = TwoColSchema();
  EXPECT_EQ(s.ColumnIndex("id"), 0u);
  EXPECT_EQ(s.ColumnIndex("v"), 1u);
  EXPECT_FALSE(s.ColumnIndex("missing"));
}

TEST(Schema, PrimaryKeyExtraction) {
  auto s = SchemaBuilder("F")
               .AddInt("a")
               .AddInt("b")
               .AddInt("c")
               .PrimaryKey({"a", "b"})
               .Build();
  Row row{V(1), V(2), V(3)};
  EXPECT_EQ(s.PrimaryKeyOf(row), (Row{V(1), V(2)}));
}

TEST(Schema, RowMatchesChecksArityAndTypes) {
  auto s = TwoColSchema();
  EXPECT_TRUE(s.RowMatches({V(1), V("x")}));
  EXPECT_TRUE(s.RowMatches({V(1), V()}));  // NULL allowed
  EXPECT_FALSE(s.RowMatches({V(1)}));
  EXPECT_FALSE(s.RowMatches({V("x"), V("y")}));
}

// Table-level tests drive the commit protocol as Transaction does: each
// intent reports the chain it claimed, and InstallCommit/AbortIntent take
// that chain back.
using Chain = Table::RowChain*;

/// Inserts `row` as transaction `id` on snapshot `id - 1` and commits it at
/// timestamp `id`.
void CommitInsert(Table& t, TxnId id, Row row) {
  Chain c = nullptr;
  ASSERT_EQ(t.InsertIntent(TxnCtx{id, id - 1}, std::move(row), &c),
            TxnResult::kOk);
  t.InstallCommit(id, *c, id);
}

/// Sets column `col` of row `pk` as transaction `id` on snapshot `id - 1`
/// and commits it at timestamp `id`.
void CommitSet(Table& t, TxnId id, const Row& pk, std::size_t col, Value v) {
  Chain c = nullptr;
  ASSERT_EQ(t.UpdateIntent(TxnCtx{id, id - 1}, pk,
                           [&](Row& r) { r[col] = v; }, {}, &c),
            TxnResult::kOk);
  t.InstallCommit(id, *c, id);
}

/// Deletes row `pk` as transaction `id` on snapshot `id - 1` and commits it
/// at timestamp `id`.
void CommitDelete(Table& t, TxnId id, const Row& pk) {
  Chain c = nullptr;
  ASSERT_EQ(t.DeleteIntent(TxnCtx{id, id - 1}, pk, {}, &c), TxnResult::kOk);
  t.InstallCommit(id, *c, id);
}

TEST(Table, InsertThenReadAtLaterSnapshot) {
  Table t(TwoColSchema());
  TxnCtx writer{1, 0};
  Chain c = nullptr;
  EXPECT_EQ(t.InsertIntent(writer, {V(1), V("a")}, &c), TxnResult::kOk);
  t.InstallCommit(1, *c, 1);
  TxnCtx reader{2, 1};
  auto row = t.Read(reader, {V(1)});
  ASSERT_TRUE(row);
  EXPECT_EQ((*row)[1], V("a"));
}

TEST(Table, UncommittedInsertInvisibleToOthersVisibleToSelf) {
  Table t(TwoColSchema());
  TxnCtx writer{1, 0};
  t.InsertIntent(writer, {V(1), V("a")});
  TxnCtx other{2, 0};
  EXPECT_FALSE(t.Read(other, {V(1)}));
  EXPECT_TRUE(t.Read(writer, {V(1)}));  // read-your-writes
}

TEST(Table, SnapshotDoesNotSeeLaterCommit) {
  Table t(TwoColSchema());
  CommitInsert(t, 1, {V(1), V("a")});
  TxnCtx old_reader{5, 0};  // snapshot before commit ts 1
  EXPECT_FALSE(t.Read(old_reader, {V(1)}));
  TxnCtx new_reader{6, 1};
  EXPECT_TRUE(t.Read(new_reader, {V(1)}));
}

TEST(Table, UpdateCreatesNewVersionOldSnapshotSeesOld) {
  Table t(TwoColSchema());
  CommitInsert(t, 1, {V(1), V("a")});
  TxnCtx w2{2, 1};
  Chain c = nullptr;
  EXPECT_EQ(t.UpdateIntent(w2, {V(1)}, [](Row& r) { r[1] = V("b"); }, {}, &c),
            TxnResult::kOk);
  t.InstallCommit(2, *c, 2);
  EXPECT_EQ((*t.Read(TxnCtx{3, 1}, {V(1)}))[1], V("a"));
  EXPECT_EQ((*t.Read(TxnCtx{4, 2}, {V(1)}))[1], V("b"));
}

TEST(Table, DeleteHidesFromLaterSnapshots) {
  Table t(TwoColSchema());
  CommitInsert(t, 1, {V(1), V("a")});
  TxnCtx w2{2, 1};
  Chain c = nullptr;
  EXPECT_EQ(t.DeleteIntent(w2, {V(1)}, {}, &c), TxnResult::kOk);
  t.InstallCommit(2, *c, 2);
  EXPECT_TRUE(t.Read(TxnCtx{3, 1}, {V(1)}));
  EXPECT_FALSE(t.Read(TxnCtx{4, 2}, {V(1)}));
}

TEST(Table, WriteWriteConflictOnPendingIntent) {
  Table t(TwoColSchema());
  CommitInsert(t, 1, {V(1), V("a")});
  TxnCtx w2{2, 1};
  TxnCtx w3{3, 1};
  EXPECT_EQ(t.UpdateIntent(w2, {V(1)}, [](Row& r) { r[1] = V("b"); }),
            TxnResult::kOk);
  EXPECT_EQ(t.UpdateIntent(w3, {V(1)}, [](Row& r) { r[1] = V("c"); }),
            TxnResult::kConflict);
}

TEST(Table, FirstCommitterWinsAgainstStaleSnapshot) {
  Table t(TwoColSchema());
  CommitInsert(t, 1, {V(1), V("a")});
  // w2 and w3 both start at snapshot 1; w2 commits first.
  CommitSet(t, 2, {V(1)}, 1, V("b"));
  TxnCtx w3{3, 1};
  EXPECT_EQ(t.UpdateIntent(w3, {V(1)}, [](Row& r) { r[1] = V("c"); }),
            TxnResult::kConflict);
}

TEST(Table, AbortReleasesIntent) {
  Table t(TwoColSchema());
  CommitInsert(t, 1, {V(1), V("a")});
  TxnCtx w2{2, 1};
  Chain c = nullptr;
  t.UpdateIntent(w2, {V(1)}, [](Row& r) { r[1] = V("b"); }, {}, &c);
  t.AbortIntent(2, *c);
  TxnCtx w3{3, 1};
  EXPECT_EQ(t.UpdateIntent(w3, {V(1)}, [](Row& r) { r[1] = V("c"); }),
            TxnResult::kOk);
}

TEST(Table, AbortedFreshInsertLeavesNoTrace) {
  Table t(TwoColSchema());
  TxnCtx w1{1, 0};
  Chain c = nullptr;
  t.InsertIntent(w1, {V(1), V("a")}, &c);
  t.AbortIntent(1, *c);
  EXPECT_EQ(t.ChainCount(), 0u);
  TxnCtx w2{2, 0};
  EXPECT_EQ(t.InsertIntent(w2, {V(1), V("b")}), TxnResult::kOk);
}

TEST(Table, OnlyTheFirstIntentOnARowClaimsIt) {
  Table t(TwoColSchema());
  CommitInsert(t, 1, {V(1), V("a")});
  TxnCtx w{2, 1};
  Chain first = nullptr;
  Chain second = nullptr;
  ASSERT_EQ(t.UpdateIntent(w, {V(1)}, [](Row& r) { r[1] = V("b"); }, {}, &first),
            TxnResult::kOk);
  ASSERT_EQ(t.DeleteIntent(w, {V(1)}, {}, &second), TxnResult::kOk);
  EXPECT_NE(first, nullptr);
  EXPECT_EQ(second, nullptr);  // one write record per row and transaction
  t.InstallCommit(2, *first, 2);
  EXPECT_FALSE(t.Read(TxnCtx{3, 2}, {V(1)}));
}

TEST(Table, MatchRejectionLeavesTheRowUnwritten) {
  Table t(TwoColSchema());
  CommitInsert(t, 1, {V(1), V("a")});
  TxnCtx w{2, 1};
  auto is_b = [](const Row& r) { return r[1] == V("b"); };
  EXPECT_EQ(t.UpdateIntent(w, {V(1)}, [](Row& r) { r[1] = V("c"); }, is_b),
            TxnResult::kNotFound);
  EXPECT_EQ(t.DeleteIntent(w, {V(1)}, is_b), TxnResult::kNotFound);
  // No intent was registered: another writer is not blocked.
  EXPECT_EQ(t.UpdateIntent(TxnCtx{3, 1}, {V(1)}, [](Row& r) { r[1] = V("d"); }),
            TxnResult::kOk);
}

TEST(Table, DuplicateInsertRejected) {
  Table t(TwoColSchema());
  CommitInsert(t, 1, {V(1), V("a")});
  TxnCtx w2{2, 1};
  EXPECT_EQ(t.InsertIntent(w2, {V(1), V("b")}), TxnResult::kDuplicateKey);
}

TEST(Table, ReinsertAfterDeleteAllowed) {
  Table t(TwoColSchema());
  CommitInsert(t, 1, {V(1), V("a")});
  CommitDelete(t, 2, {V(1)});
  TxnCtx w3{3, 2};
  Chain c = nullptr;
  EXPECT_EQ(t.InsertIntent(w3, {V(1), V("b")}, &c), TxnResult::kOk);
  t.InstallCommit(3, *c, 3);
  EXPECT_EQ((*t.Read(TxnCtx{4, 3}, {V(1)}))[1], V("b"));
}

TEST(Table, DeleteAfterSnapshotConflictsOnALongChain) {
  Table t(TwoColSchema());
  // 200 committed versions, as a hot row collects between vacuums: an
  // insert at ts 1, then one update per ts up to 200.
  CommitInsert(t, 1, {V(1), V("v1")});
  for (TxnId id = 2; id <= 200; ++id) {
    std::string text = "v";
    text += std::to_string(id);
    CommitSet(t, id, {V(1)}, 1, V(text));
  }
  // A writer snapshots at ts 200; then another transaction deletes the row.
  TxnCtx stale{300, 200};
  CommitDelete(t, 201, {V(1)});
  // The stale writer still sees the row, but the delete won it.
  ASSERT_TRUE(t.Read(stale, {V(1)}));
  EXPECT_EQ(t.UpdateIntent(stale, {V(1)}, [](Row& r) { r[1] = V("late"); }),
            TxnResult::kConflict);
  EXPECT_EQ(t.DeleteIntent(stale, {V(1)}), TxnResult::kConflict);
  // A snapshot taken after the delete sees no row and may re-insert it.
  TxnCtx later{301, 201};
  EXPECT_FALSE(t.Read(later, {V(1)}));
  Chain c = nullptr;
  EXPECT_EQ(t.InsertIntent(later, {V(1), V("again")}, &c), TxnResult::kOk);
  t.InstallCommit(301, *c, 202);
  EXPECT_EQ((*t.Read(TxnCtx{302, 202}, {V(1)}))[1], V("again"));
  EXPECT_EQ(t.UpdateIntent(stale, {V(1)}, [](Row& r) { r[1] = V("late"); }),
            TxnResult::kConflict);
}

TEST(Table, UpdateMissingRowIsNotFound) {
  Table t(TwoColSchema());
  TxnCtx w{1, 0};
  EXPECT_EQ(t.UpdateIntent(w, {V(9)}, [](Row&) {}), TxnResult::kNotFound);
  EXPECT_EQ(t.DeleteIntent(w, {V(9)}), TxnResult::kNotFound);
}

TEST(Table, PrimaryKeyMutationRejected) {
  Table t(TwoColSchema());
  CommitInsert(t, 1, {V(1), V("a")});
  TxnCtx w2{2, 1};
  EXPECT_EQ(t.UpdateIntent(w2, {V(1)}, [](Row& r) { r[0] = V(2); }),
            TxnResult::kInvalidRow);
}

TEST(Table, InvalidRowShapeRejected) {
  Table t(TwoColSchema());
  TxnCtx w{1, 0};
  EXPECT_EQ(t.InsertIntent(w, {V(1)}), TxnResult::kInvalidRow);
  EXPECT_EQ(t.InsertIntent(w, {V("x"), V("y")}), TxnResult::kInvalidRow);
}

TEST(Table, SecondaryIndexLookup) {
  Table t(IndexedSchema());
  TxnCtx w{1, 0};
  for (int i = 0; i < 10; ++i) {
    Chain c = nullptr;
    std::string text = "v";
    text += std::to_string(i);
    t.InsertIntent(w, {V(i), V(i % 3), V(text)}, &c);
    t.InstallCommit(1, *c, 1);
  }
  TxnCtx r{2, 1};
  auto rows = t.ReadWhereEq(r, 1, V(0));
  EXPECT_EQ(rows.size(), 4u);  // ids 0,3,6,9
  for (const auto& row : rows) EXPECT_EQ(row[1], V(0));
}

TEST(Table, IndexReflectsUpdates) {
  Table t(IndexedSchema());
  CommitInsert(t, 1, {V(1), V(10), V("a")});
  CommitSet(t, 2, {V(1)}, 1, V(20));
  TxnCtx r{3, 2};
  EXPECT_TRUE(t.ReadWhereEq(r, 1, V(10)).empty());
  EXPECT_EQ(t.ReadWhereEq(r, 1, V(20)).size(), 1u);
}

TEST(Table, IndexRespectsSnapshots) {
  Table t(IndexedSchema());
  CommitInsert(t, 1, {V(1), V(10), V("a")});
  CommitSet(t, 2, {V(1)}, 1, V(20));
  // The old snapshot still finds the row under its old indexed value.
  TxnCtx old_reader{3, 1};
  EXPECT_EQ(t.ReadWhereEq(old_reader, 1, V(10)).size(), 1u);
  EXPECT_TRUE(t.ReadWhereEq(old_reader, 1, V(20)).empty());
}

// ---- the index-reference invariant (table.h) ----------------------------

TEST(Table, AbortedFreshInsertLeavesNoBucketEntry) {
  Table t(IndexedSchema());
  CommitInsert(t, 1, {V(1), V(10), V("kept")});
  Chain c = nullptr;
  ASSERT_EQ(t.InsertIntent(TxnCtx{2, 1}, {V(2), V(10), V("x")}, &c),
            TxnResult::kOk);
  ASSERT_EQ(t.InsertIntent(TxnCtx{3, 1}, {V(3), V(30), V("y")}), TxnResult::kOk);
  t.AbortIntent(2, *c);  // erases the chain of id 2
  // A dangling bucket entry would be read here (ASan: heap-use-after-free).
  EXPECT_EQ(t.ReadWhereEq(TxnCtx{4, 1}, 1, V(10)).size(), 1u);
  EXPECT_TRUE(t.ReadWhereEq(TxnCtx{4, 1}, 1, V(30)).empty());
  // The same key re-inserted under the same value is found once.
  CommitInsert(t, 5, {V(2), V(10), V("again")});
  EXPECT_EQ(t.ReadWhereEq(TxnCtx{6, 5}, 1, V(10)).size(), 2u);
}

TEST(Table, AbortedFreshInsertProbeOfItsValueReturnsNothing) {
  Table t(IndexedSchema());
  Chain c = nullptr;
  ASSERT_EQ(t.InsertIntent(TxnCtx{1, 0}, {V(1), V(10), V("x")}, &c),
            TxnResult::kOk);
  EXPECT_EQ(t.ReadWhereEq(TxnCtx{1, 0}, 1, V(10)).size(), 1u);  // own intent
  t.AbortIntent(1, *c);
  EXPECT_TRUE(t.ReadWhereEq(TxnCtx{2, 0}, 1, V(10)).empty());
  EXPECT_EQ(t.ChainCount(), 0u);
}

TEST(Table, DeleteThenReinsertSameIndexedValueReturnedOnce) {
  Table t(IndexedSchema());
  CommitInsert(t, 1, {V(1), V(10), V("a")});
  CommitDelete(t, 2, {V(1)});
  EXPECT_TRUE(t.ReadWhereEq(TxnCtx{9, 2}, 1, V(10)).empty());
  CommitInsert(t, 3, {V(1), V(10), V("b")});
  auto rows = t.ReadWhereEq(TxnCtx{9, 3}, 1, V(10));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][2], V("b"));
  // The snapshot before the delete still finds the first incarnation.
  rows = t.ReadWhereEq(TxnCtx{9, 1}, 1, V(10));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][2], V("a"));
}

TEST(Table, IndexedValueChangedAToBToAReturnedOnceUnderA) {
  Table t(IndexedSchema());
  const Value a = V(10);
  const Value b = V(20);
  CommitInsert(t, 1, {V(1), a, V("x")});
  CommitSet(t, 2, {V(1)}, 1, b);
  CommitSet(t, 3, {V(1)}, 1, a);
  TxnCtx now{9, 3};
  EXPECT_EQ(t.ReadWhereEq(now, 1, a).size(), 1u);
  EXPECT_TRUE(t.ReadWhereEq(now, 1, b).empty());
  // A snapshot taken before A->B still finds the row under A only.
  TxnCtx before{9, 1};
  EXPECT_EQ(t.ReadWhereEq(before, 1, a).size(), 1u);
  EXPECT_TRUE(t.ReadWhereEq(before, 1, b).empty());
  // One taken between the updates finds it under B only.
  TxnCtx between{9, 2};
  EXPECT_TRUE(t.ReadWhereEq(between, 1, a).empty());
  EXPECT_EQ(t.ReadWhereEq(between, 1, b).size(), 1u);
}

TEST(Table, PendingIndexedValueIsUnlinkedWhenReplacedOrAborted) {
  Table t(IndexedSchema());
  CommitInsert(t, 1, {V(1), V(10), V("x")});
  // One transaction moves the row 10 -> 20 -> 30, then aborts.
  TxnCtx w{2, 1};
  Chain c = nullptr;
  ASSERT_EQ(t.UpdateIntent(w, {V(1)}, [](Row& r) { r[1] = V(20); }, {}, &c),
            TxnResult::kOk);
  EXPECT_EQ(t.ReadWhereEq(w, 1, V(20)).size(), 1u);
  EXPECT_TRUE(t.ReadWhereEq(w, 1, V(10)).empty());
  ASSERT_EQ(t.UpdateIntent(w, {V(1)}, [](Row& r) { r[1] = V(30); }),
            TxnResult::kOk);
  EXPECT_TRUE(t.ReadWhereEq(w, 1, V(20)).empty());
  EXPECT_EQ(t.ReadWhereEq(w, 1, V(30)).size(), 1u);
  t.AbortIntent(2, *c);
  // Later writers move it to 20 and then 30: each value finds it once.
  CommitSet(t, 3, {V(1)}, 1, V(20));
  EXPECT_EQ(t.ReadWhereEq(TxnCtx{9, 3}, 1, V(20)).size(), 1u);
  CommitSet(t, 4, {V(1)}, 1, V(30));
  EXPECT_EQ(t.ReadWhereEq(TxnCtx{9, 4}, 1, V(30)).size(), 1u);
  EXPECT_TRUE(t.ReadWhereEq(TxnCtx{9, 4}, 1, V(20)).empty());
}

TEST(Table, CommitDropsVersionsPastTheHorizonAndTheirBucketEntries) {
  Table t(IndexedSchema());
  CommitInsert(t, 1, {V(1), V(10), V("x")});
  // Each update commits at ts = id with the horizon at its own snapshot,
  // id - 1, as Database does when no other transaction is open.
  auto set = [&](TxnId id, Value v) {
    Chain c = nullptr;
    ASSERT_EQ(t.UpdateIntent(TxnCtx{id, id - 1}, {V(1)},
                             [&](Row& r) { r[1] = v; }, {}, &c),
              TxnResult::kOk);
    t.InstallCommit(id, *c, id, id - 1);
  };
  set(2, V(20));  // 10 ends at 2, past horizon 1: kept
  EXPECT_EQ(t.ReadWhereEq(TxnCtx{9, 1}, 1, V(10)).size(), 1u);
  set(3, V(30));  // drops 10 (ends at 2), and its bucket entry
  set(4, V(10));  // drops 20; the row is linked under 10 again
  // Had 10's entry outlived its version, the row would come back twice.
  EXPECT_EQ(t.ReadWhereEq(TxnCtx{9, 4}, 1, V(10)).size(), 1u);
  EXPECT_TRUE(t.ReadWhereEq(TxnCtx{9, 4}, 1, V(20)).empty());
  EXPECT_EQ(t.ReadWhereEq(TxnCtx{9, 3}, 1, V(30)).size(), 1u);
  EXPECT_EQ(t.Vacuum(4), 1u);  // only 30, which ends at 4, was left
}

TEST(Table, ProbeAfterVacuumStillFindsTheRow) {
  Table t(IndexedSchema());
  CommitInsert(t, 1, {V(1), V(10), V("a")});
  CommitInsert(t, 2, {V(2), V(10), V("b")});
  CommitSet(t, 3, {V(1)}, 1, V(20));
  CommitDelete(t, 4, {V(2)});
  // Snapshot 3 is still active: the delete of id 2 stays visible to it.
  EXPECT_EQ(t.Vacuum(3), 1u);  // id 1's version under 10
  EXPECT_EQ(t.ChainCount(), 2u);
  EXPECT_EQ(t.ReadWhereEq(TxnCtx{9, 3}, 1, V(10)).size(), 1u);  // id 2
  EXPECT_EQ(t.ReadWhereEq(TxnCtx{9, 3}, 1, V(20)).size(), 1u);  // id 1
  EXPECT_EQ(t.Vacuum(4), 1u);  // id 2's version, and its chain
  EXPECT_EQ(t.ChainCount(), 1u);
  EXPECT_TRUE(t.ReadWhereEq(TxnCtx{9, 4}, 1, V(10)).empty());
  auto rows = t.ReadWhereEq(TxnCtx{9, 4}, 1, V(20));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], V(1));
  // A writer's pending intent keeps its bucket entry across a vacuum.
  Chain c = nullptr;
  ASSERT_EQ(t.UpdateIntent(TxnCtx{5, 4}, {V(1)}, [](Row& r) { r[1] = V(50); },
                           {}, &c),
            TxnResult::kOk);
  t.Vacuum(4);
  EXPECT_EQ(t.ReadWhereEq(TxnCtx{5, 4}, 1, V(50)).size(), 1u);
  t.InstallCommit(5, *c, 5);
  EXPECT_EQ(t.ReadWhereEq(TxnCtx{9, 5}, 1, V(50)).size(), 1u);
}

TEST(Table, ScanAppliesPredicateToVisibleRows) {
  Table t(TwoColSchema());
  TxnCtx w{1, 0};
  for (int i = 0; i < 20; ++i) {
    Chain c = nullptr;
    t.InsertIntent(w, {V(i), V("v")}, &c);
    t.InstallCommit(1, *c, 1);
  }
  TxnCtx r{2, 1};
  auto rows = t.Scan(r, [](const Row& row) { return *AsInt(row[0]) < 5; });
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_EQ(t.VisibleCount(r), 20u);
}

TEST(Table, VacuumReclaimsDeadVersions) {
  Table t(TwoColSchema());
  CommitInsert(t, 1, {V(1), V("a")});
  for (Timestamp ts = 2; ts <= 10; ++ts) CommitSet(t, ts, {V(1)}, 1, V("x"));
  std::size_t reclaimed = t.Vacuum(10);
  EXPECT_EQ(reclaimed, 9u);
  EXPECT_TRUE(t.Read(TxnCtx{99, 10}, {V(1)}));
}

TEST(Table, VacuumKeepsVersionsVisibleToActiveSnapshots) {
  Table t(TwoColSchema());
  CommitInsert(t, 1, {V(1), V("a")});
  CommitSet(t, 2, {V(1)}, 1, V("b"));
  t.Vacuum(1);  // oldest active snapshot still needs version at ts 1
  EXPECT_EQ((*t.Read(TxnCtx{5, 1}, {V(1)}))[1], V("a"));
}

TEST(Value, ToStringFormats) {
  EXPECT_EQ(ToString(V()), "NULL");
  EXPECT_EQ(ToString(V(42)), "42");
  EXPECT_EQ(ToString(V("hi")), "'hi'");
  EXPECT_EQ(ToString(Row{V(1), V("x")}), "(1, 'x')");
}

TEST(Value, AccessorsAndNullChecks) {
  EXPECT_TRUE(IsNull(V()));
  EXPECT_FALSE(IsNull(V(0)));
  EXPECT_EQ(AsInt(V(7)), 7);
  EXPECT_FALSE(AsInt(V("x")));
  EXPECT_EQ(AsText(V("x")), "x");
  EXPECT_FALSE(AsText(V(7)));
}

TEST(Value, HashingConsistentWithEquality) {
  ValueHash h;
  EXPECT_EQ(h(V(42)), h(V(42)));
  EXPECT_EQ(h(V("abc")), h(V("abc")));
  RowHash rh;
  EXPECT_EQ(rh({V(1), V("a")}), rh({V(1), V("a")}));
}

// The 16-byte cell against the variant it replaced, over random cells.
// Texts of 15 bytes or fewer are stored in the cell and longer ones on the
// heap, so the lengths straddle that boundary; bytes with the high bit set
// and NULs check that text compares bytewise, as std::string does.
using RefCell = std::variant<std::monostate, std::int64_t, std::string>;

Value FromRef(const RefCell& r) {
  if (const auto* i = std::get_if<std::int64_t>(&r)) return V(*i);
  if (const auto* s = std::get_if<std::string>(&r)) return V(*s);
  return V();
}

RefCell DrawRef(std::mt19937_64& rng) {
  static constexpr std::size_t kLengths[] = {0, 1, 14, 15, 16, 17, 100};
  static constexpr std::int64_t kInts[] = {
      0, 1, -1, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  switch (rng() % 4) {
    case 0:
      return std::monostate{};
    case 1:
      return rng() % 2 == 0 ? kInts[rng() % std::size(kInts)]
                            : static_cast<std::int64_t>(rng() % 7) - 3;
    default: {
      // Few distinct bytes, so equal texts and shared prefixes are common.
      static constexpr char kBytes[] = {'a', 'b', '\0', '\xff'};
      std::string s(kLengths[rng() % std::size(kLengths)], 'a');
      for (char& c : s) c = rng() % 8 == 0 ? kBytes[rng() % 4] : 'a';
      return s;
    }
  }
}

std::string RefToString(const RefCell& r) {
  if (const auto* i = std::get_if<std::int64_t>(&r)) return std::to_string(*i);
  if (const auto* s = std::get_if<std::string>(&r)) return "'" + *s + "'";
  return "NULL";
}

TEST(Value, MatchesTheVariantReference) {
  std::mt19937_64 rng(29);
  ValueHash h;
  for (int i = 0; i < 20000; ++i) {
    const RefCell a = DrawRef(rng);
    const RefCell b = rng() % 4 == 0 ? a : DrawRef(rng);
    const Value va = FromRef(a);
    const Value vb = FromRef(b);
    SCOPED_TRACE(RefToString(a) + " vs " + RefToString(b));
    ASSERT_EQ(va == vb, a == b);
    ASSERT_EQ(va != vb, a != b);
    ASSERT_TRUE((va <=> vb) == (a <=> b));
    ASSERT_EQ(va < vb, a < b);
    if (a == b) {
      ASSERT_EQ(h(va), h(vb));
    }
    ASSERT_EQ(IsNull(va), std::holds_alternative<std::monostate>(a));
    const auto* ai = std::get_if<std::int64_t>(&a);
    ASSERT_EQ(AsInt(va), ai ? std::optional(*ai) : std::nullopt);
    const auto* as = std::get_if<std::string>(&a);
    ASSERT_EQ(AsText(va), as ? std::optional(*as) : std::nullopt);
    ASSERT_EQ(ToString(va), RefToString(a));
  }
}

TEST(Value, CopyMoveAndAssignmentAcrossKinds) {
  const std::string long_text(100, 'L');
  const std::vector<Value> cells = {V(), V(-7), V(""), V("fifteen-bytes!!"),
                                    V("sixteen-bytes!!!"), V(long_text)};
  for (const Value& from : cells) {
    for (const Value& to : cells) {
      Value copy = from;
      EXPECT_EQ(copy, from);
      Value moved = std::move(copy);
      EXPECT_EQ(moved, from);
      EXPECT_TRUE(IsNull(copy));  // a moved-from cell is NULL
      Value target = to;
      target = from;  // copy-assign over another kind (or the same)
      EXPECT_EQ(target, from);
      target = Value(to);  // move-assign back
      EXPECT_EQ(target, to);
      Value& alias = target;
      target = alias;
      EXPECT_EQ(target, to);
      target = std::move(alias);
      EXPECT_EQ(target, to);
    }
  }
  EXPECT_EQ(AsText(cells[5]), long_text);
}

}  // namespace
}  // namespace iq::sql
