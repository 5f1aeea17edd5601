#include <gtest/gtest.h>

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

TEST(Table, InsertThenReadAtLaterSnapshot) {
  Table t(TwoColSchema());
  TxnCtx writer{1, 0};
  EXPECT_EQ(t.InsertIntent(writer, {V(1), V("a")}), TxnResult::kOk);
  t.InstallCommit(1, {V(1)}, 1);
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
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V("a")});
  t.InstallCommit(1, {V(1)}, 1);
  TxnCtx old_reader{5, 0};  // snapshot before commit ts 1
  EXPECT_FALSE(t.Read(old_reader, {V(1)}));
  TxnCtx new_reader{6, 1};
  EXPECT_TRUE(t.Read(new_reader, {V(1)}));
}

TEST(Table, UpdateCreatesNewVersionOldSnapshotSeesOld) {
  Table t(TwoColSchema());
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V("a")});
  t.InstallCommit(1, {V(1)}, 1);
  TxnCtx w2{2, 1};
  EXPECT_EQ(t.UpdateIntent(w2, {V(1)}, [](Row& r) { r[1] = V("b"); }),
            TxnResult::kOk);
  t.InstallCommit(2, {V(1)}, 2);
  EXPECT_EQ((*t.Read(TxnCtx{3, 1}, {V(1)}))[1], V("a"));
  EXPECT_EQ((*t.Read(TxnCtx{4, 2}, {V(1)}))[1], V("b"));
}

TEST(Table, DeleteHidesFromLaterSnapshots) {
  Table t(TwoColSchema());
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V("a")});
  t.InstallCommit(1, {V(1)}, 1);
  TxnCtx w2{2, 1};
  EXPECT_EQ(t.DeleteIntent(w2, {V(1)}), TxnResult::kOk);
  t.InstallCommit(2, {V(1)}, 2);
  EXPECT_TRUE(t.Read(TxnCtx{3, 1}, {V(1)}));
  EXPECT_FALSE(t.Read(TxnCtx{4, 2}, {V(1)}));
}

TEST(Table, WriteWriteConflictOnPendingIntent) {
  Table t(TwoColSchema());
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V("a")});
  t.InstallCommit(1, {V(1)}, 1);
  TxnCtx w2{2, 1};
  TxnCtx w3{3, 1};
  EXPECT_EQ(t.UpdateIntent(w2, {V(1)}, [](Row& r) { r[1] = V("b"); }),
            TxnResult::kOk);
  EXPECT_EQ(t.UpdateIntent(w3, {V(1)}, [](Row& r) { r[1] = V("c"); }),
            TxnResult::kConflict);
}

TEST(Table, FirstCommitterWinsAgainstStaleSnapshot) {
  Table t(TwoColSchema());
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V("a")});
  t.InstallCommit(1, {V(1)}, 1);
  // w2 and w3 both start at snapshot 1; w2 commits first.
  TxnCtx w2{2, 1};
  t.UpdateIntent(w2, {V(1)}, [](Row& r) { r[1] = V("b"); });
  t.InstallCommit(2, {V(1)}, 2);
  TxnCtx w3{3, 1};
  EXPECT_EQ(t.UpdateIntent(w3, {V(1)}, [](Row& r) { r[1] = V("c"); }),
            TxnResult::kConflict);
}

TEST(Table, AbortReleasesIntent) {
  Table t(TwoColSchema());
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V("a")});
  t.InstallCommit(1, {V(1)}, 1);
  TxnCtx w2{2, 1};
  t.UpdateIntent(w2, {V(1)}, [](Row& r) { r[1] = V("b"); });
  t.AbortIntent(2, {V(1)});
  TxnCtx w3{3, 1};
  EXPECT_EQ(t.UpdateIntent(w3, {V(1)}, [](Row& r) { r[1] = V("c"); }),
            TxnResult::kOk);
}

TEST(Table, AbortedFreshInsertLeavesNoTrace) {
  Table t(TwoColSchema());
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V("a")});
  t.AbortIntent(1, {V(1)});
  EXPECT_EQ(t.ChainCount(), 0u);
  TxnCtx w2{2, 0};
  EXPECT_EQ(t.InsertIntent(w2, {V(1), V("b")}), TxnResult::kOk);
}

TEST(Table, DuplicateInsertRejected) {
  Table t(TwoColSchema());
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V("a")});
  t.InstallCommit(1, {V(1)}, 1);
  TxnCtx w2{2, 1};
  EXPECT_EQ(t.InsertIntent(w2, {V(1), V("b")}), TxnResult::kDuplicateKey);
}

TEST(Table, ReinsertAfterDeleteAllowed) {
  Table t(TwoColSchema());
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V("a")});
  t.InstallCommit(1, {V(1)}, 1);
  TxnCtx w2{2, 1};
  t.DeleteIntent(w2, {V(1)});
  t.InstallCommit(2, {V(1)}, 2);
  TxnCtx w3{3, 2};
  EXPECT_EQ(t.InsertIntent(w3, {V(1), V("b")}), TxnResult::kOk);
  t.InstallCommit(3, {V(1)}, 3);
  EXPECT_EQ((*t.Read(TxnCtx{4, 3}, {V(1)}))[1], V("b"));
}

TEST(Table, DeleteAfterSnapshotConflictsOnALongChain) {
  Table t(TwoColSchema());
  // 200 committed versions, as a hot row collects between vacuums: an
  // insert at ts 1, then one update per ts up to 200.
  ASSERT_EQ(t.InsertIntent(TxnCtx{1, 0}, {V(1), V("v1")}), TxnResult::kOk);
  t.InstallCommit(1, {V(1)}, 1);
  for (TxnId id = 2; id <= 200; ++id) {
    auto bump = [id](Row& r) { r[1] = V("v" + std::to_string(id)); };
    ASSERT_EQ(t.UpdateIntent(TxnCtx{id, id - 1}, {V(1)}, bump),
              TxnResult::kOk);
    t.InstallCommit(id, {V(1)}, id);
  }
  // A writer snapshots at ts 200; then another transaction deletes the row.
  TxnCtx stale{300, 200};
  ASSERT_EQ(t.DeleteIntent(TxnCtx{201, 200}, {V(1)}), TxnResult::kOk);
  t.InstallCommit(201, {V(1)}, 201);
  // The stale writer still sees the row, but the delete won it.
  ASSERT_TRUE(t.Read(stale, {V(1)}));
  EXPECT_EQ(t.UpdateIntent(stale, {V(1)}, [](Row& r) { r[1] = V("late"); }),
            TxnResult::kConflict);
  EXPECT_EQ(t.DeleteIntent(stale, {V(1)}), TxnResult::kConflict);
  // A snapshot taken after the delete sees no row and may re-insert it.
  TxnCtx later{301, 201};
  EXPECT_FALSE(t.Read(later, {V(1)}));
  EXPECT_EQ(t.InsertIntent(later, {V(1), V("again")}), TxnResult::kOk);
  t.InstallCommit(301, {V(1)}, 202);
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
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V("a")});
  t.InstallCommit(1, {V(1)}, 1);
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
    t.InsertIntent(w, {V(i), V(i % 3), V("v" + std::to_string(i))});
    t.InstallCommit(1, {V(i)}, 1);
  }
  TxnCtx r{2, 1};
  auto rows = t.ReadWhereEq(r, 1, V(0));
  EXPECT_EQ(rows.size(), 4u);  // ids 0,3,6,9
  for (const auto& row : rows) EXPECT_EQ(row[1], V(0));
}

TEST(Table, IndexReflectsUpdates) {
  Table t(IndexedSchema());
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V(10), V("a")});
  t.InstallCommit(1, {V(1)}, 1);
  TxnCtx w2{2, 1};
  t.UpdateIntent(w2, {V(1)}, [](Row& r) { r[1] = V(20); });
  t.InstallCommit(2, {V(1)}, 2);
  TxnCtx r{3, 2};
  EXPECT_TRUE(t.ReadWhereEq(r, 1, V(10)).empty());
  EXPECT_EQ(t.ReadWhereEq(r, 1, V(20)).size(), 1u);
}

TEST(Table, IndexRespectsSnapshots) {
  Table t(IndexedSchema());
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V(10), V("a")});
  t.InstallCommit(1, {V(1)}, 1);
  TxnCtx w2{2, 1};
  t.UpdateIntent(w2, {V(1)}, [](Row& r) { r[1] = V(20); });
  t.InstallCommit(2, {V(1)}, 2);
  // The old snapshot still finds the row under its old indexed value.
  TxnCtx old_reader{3, 1};
  EXPECT_EQ(t.ReadWhereEq(old_reader, 1, V(10)).size(), 1u);
  EXPECT_TRUE(t.ReadWhereEq(old_reader, 1, V(20)).empty());
}

TEST(Table, ScanAppliesPredicateToVisibleRows) {
  Table t(TwoColSchema());
  TxnCtx w{1, 0};
  for (int i = 0; i < 20; ++i) {
    t.InsertIntent(w, {V(i), V("v")});
    t.InstallCommit(1, {V(i)}, 1);
  }
  TxnCtx r{2, 1};
  auto rows = t.Scan(r, [](const Row& row) { return *AsInt(row[0]) < 5; });
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_EQ(t.VisibleCount(r), 20u);
}

TEST(Table, VacuumReclaimsDeadVersions) {
  Table t(TwoColSchema());
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V("a")});
  t.InstallCommit(1, {V(1)}, 1);
  for (Timestamp ts = 2; ts <= 10; ++ts) {
    TxnCtx w{ts, ts - 1};
    t.UpdateIntent(w, {V(1)}, [](Row& r) { r[1] = V("x"); });
    t.InstallCommit(ts, {V(1)}, ts);
  }
  std::size_t reclaimed = t.Vacuum(10);
  EXPECT_EQ(reclaimed, 9u);
  EXPECT_TRUE(t.Read(TxnCtx{99, 10}, {V(1)}));
}

TEST(Table, VacuumKeepsVersionsVisibleToActiveSnapshots) {
  Table t(TwoColSchema());
  TxnCtx w1{1, 0};
  t.InsertIntent(w1, {V(1), V("a")});
  t.InstallCommit(1, {V(1)}, 1);
  TxnCtx w2{2, 1};
  t.UpdateIntent(w2, {V(1)}, [](Row& r) { r[1] = V("b"); });
  t.InstallCommit(2, {V(1)}, 2);
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

}  // namespace
}  // namespace iq::sql
