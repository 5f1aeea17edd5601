#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "rdbms/database.h"

namespace iq::sql {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.CreateTable(SchemaBuilder("T")
                        .AddInt("id")
                        .AddInt("n")
                        .AddText("v")
                        .PrimaryKey({"id"})
                        .Build());
    auto txn = db_.Begin();
    for (int i = 0; i < 10; ++i) {
      txn->Insert("T", {V(i), V(0), V("init")});
    }
    ASSERT_EQ(txn->Commit(), TxnResult::kOk);
  }

  std::int64_t ReadN(int id) {
    auto txn = db_.Begin();
    auto row = txn->SelectByPk("T", {V(id)});
    txn->Rollback();
    return row ? *AsInt((*row)[1]) : -1;
  }

  Database db_;
};

TEST_F(DatabaseTest, CommitMakesWritesDurable) {
  auto txn = db_.Begin();
  EXPECT_EQ(txn->UpdateByPk("T", {V(1)}, {{"n", V(42)}}), TxnResult::kOk);
  EXPECT_EQ(txn->Commit(), TxnResult::kOk);
  EXPECT_EQ(ReadN(1), 42);
}

TEST_F(DatabaseTest, RollbackDiscardsWrites) {
  auto txn = db_.Begin();
  txn->UpdateByPk("T", {V(1)}, {{"n", V(42)}});
  txn->Rollback();
  EXPECT_EQ(ReadN(1), 0);
}

TEST_F(DatabaseTest, DestructorRollsBackActiveTxn) {
  {
    auto txn = db_.Begin();
    txn->UpdateByPk("T", {V(1)}, {{"n", V(42)}});
  }
  EXPECT_EQ(ReadN(1), 0);
}

TEST_F(DatabaseTest, SnapshotIsolationHidesConcurrentCommit) {
  auto reader = db_.Begin();  // snapshot taken here
  auto writer = db_.Begin();
  writer->UpdateByPk("T", {V(1)}, {{"n", V(99)}});
  writer->Commit();
  // The reader still sees the pre-commit value (repeatable read).
  auto row = reader->SelectByPk("T", {V(1)});
  EXPECT_EQ(*AsInt((*row)[1]), 0);
  // A new transaction sees the new value.
  EXPECT_EQ(ReadN(1), 99);
}

TEST_F(DatabaseTest, ReadYourOwnWrites) {
  auto txn = db_.Begin();
  txn->UpdateByPk("T", {V(1)}, {{"n", V(7)}});
  auto row = txn->SelectByPk("T", {V(1)});
  EXPECT_EQ(*AsInt((*row)[1]), 7);
  txn->Rollback();
}

TEST_F(DatabaseTest, WriteWriteConflictDoomsSecondWriter) {
  auto t1 = db_.Begin();
  auto t2 = db_.Begin();
  EXPECT_EQ(t1->UpdateByPk("T", {V(1)}, {{"n", V(1)}}), TxnResult::kOk);
  EXPECT_EQ(t2->UpdateByPk("T", {V(1)}, {{"n", V(2)}}), TxnResult::kConflict);
  EXPECT_EQ(t2->state(), Transaction::State::kAborted);
  EXPECT_EQ(t1->Commit(), TxnResult::kOk);
  EXPECT_EQ(ReadN(1), 1);
}

TEST_F(DatabaseTest, FirstCommitterWins) {
  auto t1 = db_.Begin();
  auto t2 = db_.Begin();
  EXPECT_EQ(t1->UpdateByPk("T", {V(1)}, {{"n", V(1)}}), TxnResult::kOk);
  EXPECT_EQ(t1->Commit(), TxnResult::kOk);
  // t2's snapshot predates t1's commit: its write must conflict.
  EXPECT_EQ(t2->UpdateByPk("T", {V(1)}, {{"n", V(2)}}), TxnResult::kConflict);
}

TEST_F(DatabaseTest, DisjointWritesBothCommit) {
  auto t1 = db_.Begin();
  auto t2 = db_.Begin();
  EXPECT_EQ(t1->UpdateByPk("T", {V(1)}, {{"n", V(1)}}), TxnResult::kOk);
  EXPECT_EQ(t2->UpdateByPk("T", {V(2)}, {{"n", V(2)}}), TxnResult::kOk);
  EXPECT_EQ(t1->Commit(), TxnResult::kOk);
  EXPECT_EQ(t2->Commit(), TxnResult::kOk);
  EXPECT_EQ(ReadN(1), 1);
  EXPECT_EQ(ReadN(2), 2);
}

TEST_F(DatabaseTest, InsertOfAShortRowIsInvalidAndReadsNothingPastIt) {
  // The primary key (a, b) names a column the one-cell row lacks: the shape
  // is checked before any key cell is read.
  db_.CreateTable(SchemaBuilder("F")
                      .AddInt("a")
                      .AddInt("b")
                      .AddInt("c")
                      .PrimaryKey({"a", "b"})
                      .Build());
  auto txn = db_.Begin();
  EXPECT_EQ(txn->Insert("F", {V(1)}), TxnResult::kInvalidRow);
  EXPECT_EQ(txn->state(), Transaction::State::kActive);
  EXPECT_EQ(txn->Insert("F", {V(1), V(2), V(3)}), TxnResult::kOk);
  EXPECT_EQ(txn->Commit(), TxnResult::kOk);
  auto reader = db_.Begin();
  EXPECT_EQ(reader->SelectAll("F").size(), 1u);
}

TEST_F(DatabaseTest, AbortedTxnRejectsFurtherOps) {
  auto t1 = db_.Begin();
  auto t2 = db_.Begin();
  t1->UpdateByPk("T", {V(1)}, {{"n", V(1)}});
  t2->UpdateByPk("T", {V(1)}, {{"n", V(2)}});  // conflicts, dooms t2
  EXPECT_EQ(t2->Insert("T", {V(100), V(0), V("x")}), TxnResult::kAborted);
  EXPECT_EQ(t2->Commit(), TxnResult::kAborted);
}

TEST_F(DatabaseTest, CommitTimestampsIncrease) {
  auto t1 = db_.Begin();
  t1->UpdateByPk("T", {V(1)}, {{"n", V(1)}});
  t1->Commit();
  auto t2 = db_.Begin();
  t2->UpdateByPk("T", {V(2)}, {{"n", V(2)}});
  t2->Commit();
  EXPECT_LT(t1->commit_ts(), t2->commit_ts());
}

TEST_F(DatabaseTest, RunTransactionRetriesOnConflict) {
  // A competing writer holds an intent on row 1, so the first attempt of
  // the RunTransaction body conflicts; the blocker then commits, letting
  // the retry succeed against a fresh snapshot.
  auto blocker = db_.Begin();
  blocker->UpdateByPk("T", {V(1)}, {{"n", V(50)}});
  int attempts = 0;
  bool committed = db_.RunTransaction(
      [&](Transaction& txn) {
        ++attempts;
        TxnResult r = txn.UpdateByPk("T", {V(1)}, {{"n", V(60)}});
        if (attempts == 1) {
          EXPECT_EQ(r, TxnResult::kConflict);
          blocker->Commit();
        }
        return true;
      },
      10);
  EXPECT_TRUE(committed);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(ReadN(1), 60);
}

TEST_F(DatabaseTest, RunTransactionBodyFalseMeansRollback) {
  bool committed = db_.RunTransaction([&](Transaction& txn) {
    txn.UpdateByPk("T", {V(1)}, {{"n", V(5)}});
    return false;
  });
  EXPECT_FALSE(committed);
  EXPECT_EQ(ReadN(1), 0);
}

TEST_F(DatabaseTest, TriggersFireInsideDml) {
  int fired = 0;
  db_.RegisterTrigger("T", DmlOp::kUpdate,
                      [&](Transaction&, const TriggerEvent& e) {
                        ++fired;
                        EXPECT_EQ(e.table, "T");
                        ASSERT_NE(e.old_row, nullptr);
                        ASSERT_NE(e.new_row, nullptr);
                        EXPECT_EQ(*AsInt((*e.old_row)[1]), 0);
                        EXPECT_EQ(*AsInt((*e.new_row)[1]), 33);
                      });
  auto txn = db_.Begin();
  txn->UpdateByPk("T", {V(3)}, {{"n", V(33)}});
  txn->Commit();
  EXPECT_EQ(fired, 1);
}

TEST_F(DatabaseTest, InsertAndDeleteTriggers) {
  int inserts = 0, deletes = 0;
  db_.RegisterTrigger("T", DmlOp::kInsert,
                      [&](Transaction&, const TriggerEvent&) { ++inserts; });
  db_.RegisterTrigger("T", DmlOp::kDelete,
                      [&](Transaction&, const TriggerEvent&) { ++deletes; });
  auto txn = db_.Begin();
  txn->Insert("T", {V(100), V(0), V("x")});
  txn->DeleteByPk("T", {V(100)});
  txn->Commit();
  EXPECT_EQ(inserts, 1);
  EXPECT_EQ(deletes, 1);
  db_.ClearTriggers();
}

TEST_F(DatabaseTest, TriggerDoesNotFireOnFailedDml) {
  int fired = 0;
  db_.RegisterTrigger("T", DmlOp::kInsert,
                      [&](Transaction&, const TriggerEvent&) { ++fired; });
  auto txn = db_.Begin();
  EXPECT_EQ(txn->Insert("T", {V(1), V(0), V("dup")}), TxnResult::kDuplicateKey);
  txn->Rollback();
  EXPECT_EQ(fired, 0);
  db_.ClearTriggers();
}

TEST_F(DatabaseTest, StatsTrackLifecycle) {
  auto before = db_.GetStats();
  auto txn = db_.Begin();
  txn->UpdateByPk("T", {V(1)}, {{"n", V(1)}});
  txn->Commit();
  auto t2 = db_.Begin();
  t2->Rollback();
  auto after = db_.GetStats();
  EXPECT_EQ(after.txns_started - before.txns_started, 2u);
  EXPECT_EQ(after.txns_committed - before.txns_committed, 1u);
  EXPECT_EQ(after.txns_aborted - before.txns_aborted, 1u);
}

TEST_F(DatabaseTest, VacuumPreservesCorrectness) {
  for (int round = 0; round < 5; ++round) {
    auto txn = db_.Begin();
    txn->UpdateByPk("T", {V(1)}, {{"n", V(round)}});
    txn->Commit();
  }
  EXPECT_GT(db_.Vacuum(), 0u);
  EXPECT_EQ(ReadN(1), 4);
}

// A commit drops the superseded versions no registered snapshot can read,
// so a long update loop leaves at most the last superseded version behind
// (the committing transaction's own snapshot still reads it).
TEST_F(DatabaseTest, CommitReclaimsSupersededVersions) {
  for (int i = 1; i <= 10000; ++i) {
    auto txn = db_.Begin();
    ASSERT_EQ(txn->UpdateByPk("T", {V(3)}, {{"n", V(i)}}), TxnResult::kOk);
    ASSERT_EQ(txn->Commit(), TxnResult::kOk);
  }
  EXPECT_LE(db_.Vacuum(), 1u);
  EXPECT_EQ(ReadN(3), 10000);
}

TEST_F(DatabaseTest, CommitKeepsVersionsAnOpenSnapshotReads) {
  auto reader = db_.Begin();
  for (int i = 1; i <= 100; ++i) {
    auto txn = db_.Begin();
    ASSERT_EQ(txn->UpdateByPk("T", {V(3)}, {{"n", V(i)}}), TxnResult::kOk);
    ASSERT_EQ(txn->Commit(), TxnResult::kOk);
  }
  auto row = reader->SelectByPk("T", {V(3)});
  ASSERT_TRUE(row);
  EXPECT_EQ((*row)[1], V(0));
  reader->Rollback();
  reader.reset();
  EXPECT_EQ(db_.Vacuum(), 100u);  // the reader's version and the 99 after it
}

// Readers begin and read a row while writers commit increments to it, so
// each commit computes its horizon while snapshots are being taken. A
// reader's snapshot must keep seeing the row, with a count between the
// increments finished before it began and those started before it read,
// and with the same count on a second read after more commits.
TEST_F(DatabaseTest, ReadersKeepTheirVersionsWhileWritersCommit) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kReads = 3000;
  constexpr int kMaxIncrements = 50000;  // per writer
  std::atomic<std::int64_t> started{0};
  std::atomic<std::int64_t> finished{0};
  std::atomic<int> readers_left{kReaders};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kMaxIncrements && readers_left.load() > 0; ++i) {
        bool committed = db_.RunTransaction(
            [&](Transaction& txn) {
              if (txn.UpdateByPk("T", {V(7)}, [](Row& row) {
                    row[1] = V(*AsInt(row[1]) + 1);
                  }) != TxnResult::kOk) {
                return false;
              }
              started.fetch_add(1);
              return true;
            },
            1000000);
        if (committed) finished.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReads; ++i) {
        const std::int64_t low = finished.load();
        auto txn = db_.Begin();
        auto first = txn->SelectByPk("T", {V(7)});
        const std::int64_t high = started.load();
        std::this_thread::yield();
        auto second = txn->SelectByPk("T", {V(7)});
        txn->Rollback();
        if (!first || !second) {
          bad.fetch_add(1);
          continue;
        }
        const std::int64_t n = *AsInt((*first)[1]);
        if (n < low || n > high || *second != *first) bad.fetch_add(1);
      }
      readers_left.fetch_sub(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(ReadN(7), finished.load());
}

TEST_F(DatabaseTest, ReadDelayConfigSlowsReads) {
  Database slow({.read_delay = 2 * kNanosPerMilli,
                 .write_delay = 0,
                 .commit_delay = 0,
                 .clock = nullptr});
  slow.CreateTable(
      SchemaBuilder("S").AddInt("id").PrimaryKey({"id"}).Build());
  auto txn = slow.Begin();
  Nanos t0 = SteadyClock::Instance().Now();
  txn->SelectByPk("S", {V(1)});
  EXPECT_GE(SteadyClock::Instance().Now() - t0, 2 * kNanosPerMilli);
}

// Property: under concurrent increments via RunTransaction, the final
// counter equals the number of successful commits - first-committer-wins
// never loses an update. (It is NOT starvation-free: a session may exhaust
// its retry budget under extreme single-row contention, like any
// optimistic engine, so we assert lost-update-freedom plus a high success
// floor rather than wait-freedom.)
TEST_F(DatabaseTest, ConcurrentIncrementsNeverLoseUpdates) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        bool ok = db_.RunTransaction(
            [&](Transaction& txn) {
              return txn.UpdateByPk("T", {V(5)}, [](Row& row) {
                       row[1] = V(*AsInt(row[1]) + 1);
                     }) == TxnResult::kOk;
            },
            5000);
        if (ok) committed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ReadN(5), committed.load());  // the invariant: nothing lost
  EXPECT_GE(committed.load(), kThreads * kIncrements * 3 / 4);
}

}  // namespace
}  // namespace iq::sql
