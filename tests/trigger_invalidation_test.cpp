#include <gtest/gtest.h>

#include <thread>

#include "casql/trigger_invalidation.h"
#include "check/oplog.h"
#include "core/iq_client.h"
#include "core/iq_server.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/remote_backend.h"
#include "rdbms/sql.h"
#include "util/worker_group.h"

namespace iq::casql {
namespace {

using net::FaultChannel;
using sql::DmlOp;
using sql::SchemaBuilder;
using sql::TriggerEvent;
using sql::V;

class TriggerInvalidationTest : public ::testing::Test {
 protected:
  // Sessions reach server_ over the wire through faulty_, which forwards
  // every round trip until a test arms it, and log to log_.
  TriggerInvalidationTest()
      : loop_(server_),
        faulty_(loop_),
        remote_(faulty_),
        client_(remote_, IQClient::Config{.op_log = &log_}),
        invalidator_(db_, client_) {
    db_.CreateTable(SchemaBuilder("Users")
                        .AddInt("id")
                        .AddInt("score")
                        .PrimaryKey({"id"})
                        .Build());
    auto txn = db_.Begin();
    txn->Insert("Users", {V(1), V(10)});
    txn->Insert("Users", {V(2), V(20)});
    txn->Commit();
    invalidator_.Register("Users", DmlOp::kUpdate, ProfileMapper());
    invalidator_.Register("Users", DmlOp::kDelete, ProfileMapper());
    invalidator_.Register("Users", DmlOp::kInsert, ProfileMapper());
  }

  static KeyMapper ProfileMapper() {
    return [](const TriggerEvent& e) {
      const sql::Row* row = e.new_row != nullptr ? e.new_row : e.old_row;
      return std::vector<std::string>{
          "Profile:" + std::to_string(*sql::AsInt((*row)[0]))};
    };
  }

  static std::string Key(int id) { return "Profile:" + std::to_string(id); }

  std::int64_t Score(int id) {
    auto txn = db_.Begin();
    return *sql::AsInt((*txn->SelectByPk("Users", {V(id)}))[1]);
  }

  sql::Database db_;
  IQServer server_;
  net::LoopbackChannel loop_;
  FaultChannel faulty_;
  net::RemoteBackend remote_;
  check::OpLog log_;
  IQClient client_;
  TriggerInvalidator invalidator_;
};

TEST_F(TriggerInvalidationTest, CommitDeletesImpactedKeys) {
  server_.store().Set(Key(1), "cached");
  auto session = invalidator_.BeginSession();
  sql::Query(session->txn(), "UPDATE Users SET score = score + 1 WHERE id = 1");
  // Deferred delete: the old value is still visible mid-session.
  EXPECT_TRUE(server_.store().Get(Key(1)));
  EXPECT_TRUE(session->Commit());
  EXPECT_FALSE(server_.store().Get(Key(1)));
}

TEST_F(TriggerInvalidationTest, UncoveredKeysUntouched) {
  server_.store().Set(Key(2), "other");
  auto session = invalidator_.BeginSession();
  sql::Query(session->txn(), "UPDATE Users SET score = 0 WHERE id = 1");
  session->Commit();
  EXPECT_TRUE(server_.store().Get(Key(2)));
}

TEST_F(TriggerInvalidationTest, AbortLeavesValues) {
  server_.store().Set(Key(1), "cached");
  auto session = invalidator_.BeginSession();
  sql::Query(session->txn(), "UPDATE Users SET score = 0 WHERE id = 1");
  session->Abort();
  EXPECT_EQ(server_.store().Get(Key(1))->value, "cached");
  EXPECT_FALSE(server_.LeaseOn(Key(1)));
  // The rollback really happened.
  auto txn = db_.Begin();
  EXPECT_EQ(*sql::AsInt((*txn->SelectByPk("Users", {V(1)}))[1]), 10);
}

TEST_F(TriggerInvalidationTest, DestructionActsAsAbort) {
  server_.store().Set(Key(1), "cached");
  {
    auto session = invalidator_.BeginSession();
    sql::Query(session->txn(), "UPDATE Users SET score = 0 WHERE id = 1");
  }
  EXPECT_EQ(server_.store().Get(Key(1))->value, "cached");
  EXPECT_FALSE(server_.LeaseOn(Key(1)));
}

TEST_F(TriggerInvalidationTest, QuarantineVoidsRacingReaderLease) {
  // The Figure 3 race, trigger-style, now prevented: a reader that took an
  // I lease before the trigger fired cannot install its stale value.
  GetReply reader = server_.IQget(Key(1), 999);
  ASSERT_EQ(reader.status, GetReply::Status::kMissGrantedI);
  auto session = invalidator_.BeginSession();
  sql::Query(session->txn(), "UPDATE Users SET score = 99 WHERE id = 1");
  // Reader computed "score=10" from a pre-commit snapshot; its install is
  // dropped because the trigger's QaReg voided the I lease.
  EXPECT_EQ(server_.IQset(Key(1), "score=10", reader.token),
            StoreResult::kNotStored);
  session->Commit();
  EXPECT_FALSE(server_.store().Get(Key(1)));
}

TEST_F(TriggerInvalidationTest, UnconfirmedQuarantineFailsTheCommit) {
  // The cache tier drops the trigger's QaReg: the key is not quarantined,
  // so committing would leave score=10 cached with no Q lease to expire.
  server_.store().Set(Key(1), "score=10");
  auto session = invalidator_.BeginSession();
  faulty_.Arm({FaultChannel::Fault::kDropRequest, "qareg"});
  sql::Query(session->txn(), "UPDATE Users SET score = score + 1 WHERE id = 1");
  EXPECT_FALSE(session->Commit());
  EXPECT_EQ(Score(1), 10);
  EXPECT_EQ(server_.store().Get(Key(1))->value, "score=10");
  EXPECT_FALSE(server_.LeaseOn(Key(1)));
}

TEST_F(TriggerInvalidationTest, UnconfirmedSessionIdFailsTheCommit) {
  // No id was minted and none can be: the session has nothing to
  // quarantine under, so it must not commit.
  server_.store().Set(Key(1), "score=10");
  faulty_.Arm({FaultChannel::Fault::kDown, ""});
  auto session = invalidator_.BeginSession();
  EXPECT_EQ(TriggerInvalidator::ActiveTid(), 0u);
  sql::Query(session->txn(), "UPDATE Users SET score = score + 1 WHERE id = 1");
  EXPECT_FALSE(session->Commit());
  EXPECT_EQ(Score(1), 10);
  EXPECT_EQ(server_.store().Get(Key(1))->value, "score=10");
  EXPECT_FALSE(server_.LeaseOn(Key(1)));
}

TEST_F(TriggerInvalidationTest, LostSessionIdIsReMintedByTheTrigger) {
  // BeginSession's genid is lost, but the tier is back by the time the
  // trigger quarantines: the session re-mints its id and commits.
  server_.store().Set(Key(1), "score=10");
  faulty_.Arm({FaultChannel::Fault::kDropRequest, "genid"});
  auto session = invalidator_.BeginSession();
  EXPECT_EQ(TriggerInvalidator::ActiveTid(), 0u);
  sql::Query(session->txn(), "UPDATE Users SET score = score + 1 WHERE id = 1");
  EXPECT_NE(TriggerInvalidator::ActiveTid(), 0u);
  EXPECT_TRUE(session->Commit());
  EXPECT_EQ(Score(1), 11);
  EXPECT_FALSE(server_.store().Get(Key(1)));
  EXPECT_EQ(server_.LeaseCount(), 0u);
}

TEST_F(TriggerInvalidationTest, CommittedSessionLogsInvalThenCommit) {
  auto session = invalidator_.BeginSession();
  sql::Query(session->txn(), "UPDATE Users SET score = score + 1 WHERE id = 1");
  EXPECT_TRUE(session->Commit());
  std::vector<check::OpRecord> ops = log_.Snapshot();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].kind, check::OpKind::kInval);
  EXPECT_EQ(ops[0].key_hash, TraceKeyHash(Key(1)));
  EXPECT_EQ(ops[1].kind, check::OpKind::kCommit);
  EXPECT_NE(ops[0].session, 0u);
  EXPECT_EQ(ops[1].session, ops[0].session);
}

TEST_F(TriggerInvalidationTest, MultiRowDmlQuarantinesEachRow) {
  server_.store().Set(Key(1), "a");
  server_.store().Set(Key(2), "b");
  auto session = invalidator_.BeginSession();
  sql::Query(session->txn(), "UPDATE Users SET score = 0 WHERE score > 0");
  session->Commit();
  EXPECT_FALSE(server_.store().Get(Key(1)));
  EXPECT_FALSE(server_.store().Get(Key(2)));
}

TEST_F(TriggerInvalidationTest, InsertAndDeleteCovered) {
  server_.store().Set(Key(3), "phantom");
  auto session = invalidator_.BeginSession();
  sql::Query(session->txn(), "INSERT INTO Users VALUES (3, 30)");
  session->Commit();
  EXPECT_FALSE(server_.store().Get(Key(3)));

  server_.store().Set(Key(3), "cached");
  auto session2 = invalidator_.BeginSession();
  sql::Query(session2->txn(), "DELETE FROM Users WHERE id = 3");
  session2->Commit();
  EXPECT_FALSE(server_.store().Get(Key(3)));
}

TEST_F(TriggerInvalidationTest, DmlOutsideManagedSessionSkipsQuarantine) {
  server_.store().Set(Key(1), "cached");
  auto txn = db_.Begin();
  sql::Query(*txn, "UPDATE Users SET score = 5 WHERE id = 1");
  txn->Commit();
  // No managed session: the trigger had nothing to attach to.
  EXPECT_TRUE(server_.store().Get(Key(1)));
  EXPECT_FALSE(server_.LeaseOn(Key(1)));
}

TEST_F(TriggerInvalidationTest, ActiveTidScopedToSession) {
  EXPECT_EQ(TriggerInvalidator::ActiveTid(), 0u);
  {
    auto session = invalidator_.BeginSession();
    EXPECT_NE(TriggerInvalidator::ActiveTid(), 0u);
    session->Commit();
    EXPECT_EQ(TriggerInvalidator::ActiveTid(), 0u);
  }
}

TEST_F(TriggerInvalidationTest, ActiveTidIsPerThread) {
  auto session = invalidator_.BeginSession();
  SessionId here = TriggerInvalidator::ActiveTid();
  EXPECT_NE(here, 0u);
  SessionId elsewhere = 1;
  std::thread other([&] { elsewhere = TriggerInvalidator::ActiveTid(); });
  other.join();
  EXPECT_EQ(elsewhere, 0u);
  session->Abort();
}

TEST_F(TriggerInvalidationTest, OverlappingSessionsQuarantineUnderTheirOwnTxn) {
  // Two managed sessions open on one thread: A's DML must quarantine under
  // A, whichever session began last and whenever the other one ends.
  for (bool other_ends_first : {false, true}) {
    SCOPED_TRACE(other_ends_first ? "B ends before A's DML"
                                  : "B aborts after A's DML");
    server_.store().Set(Key(1), "score=" + std::to_string(Score(1)));
    auto a = invalidator_.BeginSession();
    SessionId a_id = TriggerInvalidator::ActiveTid();
    auto b = invalidator_.BeginSession();
    if (other_ends_first) {
      EXPECT_TRUE(b->Commit());
    }
    sql::Query(a->txn(), "UPDATE Users SET score = score + 1 WHERE id = 1");
    if (!other_ends_first) b->Abort();
    EXPECT_EQ(TriggerInvalidator::ActiveTid(), a_id);
    EXPECT_TRUE(a->Commit());
    EXPECT_FALSE(server_.store().Get(Key(1)));
    EXPECT_EQ(server_.LeaseCount(), 0u);
  }
  EXPECT_EQ(Score(1), 12);
}

TEST_F(TriggerInvalidationTest, ConcurrentManagedSessionsStayConsistent) {
  // Writers bump scores through managed sessions; readers read through the
  // cache with I leases. The cache must always converge to the database.
  auto compute = [&](int id) {
    auto txn = db_.Begin();
    auto row = txn->SelectByPk("Users", {V(id)});
    return std::to_string(*sql::AsInt((*row)[1]));
  };
  WorkerGroup group;
  group.Start(4, [&](int worker, const std::atomic<bool>&) {
    if (worker < 2) {
      for (int i = 0; i < 50; ++i) {
        auto session = invalidator_.BeginSession();
        auto r = sql::Query(session->txn(),
                            "UPDATE Users SET score = score + 1 WHERE id = 1");
        if (r.ok()) {
          session->Commit();
        } else {
          session->Abort();
        }
      }
    } else {
      for (int i = 0; i < 100; ++i) {
        GetReply r = server_.IQget(Key(1), 5000 + static_cast<SessionId>(worker));
        if (r.status == GetReply::Status::kMissGrantedI) {
          server_.IQset(Key(1), compute(1), r.token);
        }
      }
    }
  });
  group.StopAndJoin();
  // Converged: a fresh read-through returns the final database value.
  auto final_txn = db_.Begin();
  std::string db_value =
      std::to_string(*sql::AsInt((*final_txn->SelectByPk("Users", {V(1)}))[1]));
  auto cached = server_.store().Get(Key(1));
  if (cached) {
    EXPECT_EQ(cached->value, db_value);
  }
}

}  // namespace
}  // namespace iq::casql
