#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.h"
#include "core/iq_server.h"
#include "casql/casql.h"

namespace iq::casql {
namespace {

using sql::SchemaBuilder;
using sql::Transaction;
using sql::TxnResult;
using sql::V;

/// Fixture: one table Counters(id, n) with row (1, 100); KVS key "K"
/// caches the textual counter.
class CasqlTest : public ::testing::Test {
 protected:
  CasqlTest() {
    db_.CreateTable(SchemaBuilder("Counters")
                        .AddInt("id")
                        .AddInt("n")
                        .PrimaryKey({"id"})
                        .Build());
    auto txn = db_.Begin();
    txn->Insert("Counters", {V(1), V(100)});
    txn->Commit();
  }

  CasqlConfig Config(Technique t, Consistency c,
                     LeasePlacement p = LeasePlacement::kInsideTxn) {
    CasqlConfig cfg;
    cfg.technique = t;
    cfg.consistency = c;
    cfg.placement = p;
    cfg.client.backoff_base = 10 * kNanosPerMicro;
    cfg.client.backoff_cap = 100 * kNanosPerMicro;
    return cfg;
  }

  std::int64_t DbValue() {
    auto txn = db_.Begin();
    auto row = txn->SelectByPk("Counters", {V(1)});
    txn->Rollback();
    return row ? *sql::AsInt((*row)[1]) : -1;
  }

  static ComputeFn ComputeK() {
    return [](Transaction& txn) -> std::optional<std::string> {
      auto row = txn.SelectByPk("Counters", {V(1)});
      if (!row) return std::nullopt;
      return std::to_string(*sql::AsInt((*row)[1]));
    };
  }

  /// A write session that adds `delta` to the row and maintains key "K".
  WriteSpec AddSpec(std::int64_t delta) {
    WriteSpec spec;
    spec.body = [delta](Transaction& txn) {
      return txn.UpdateByPk("Counters", {V(1)}, [delta](sql::Row& row) {
               row[1] = V(*sql::AsInt(row[1]) + delta);
             }) == TxnResult::kOk;
    };
    KeyUpdate u;
    u.key = "K";
    u.refresh = [delta](const std::optional<std::string>& old)
        -> std::optional<std::string> {
      if (!old) return std::nullopt;
      return std::to_string(std::stoll(*old) + delta);
    };
    u.delta = delta >= 0
                  ? DeltaOp{DeltaOp::Kind::kIncr, {},
                            static_cast<std::uint64_t>(delta)}
                  : DeltaOp{DeltaOp::Kind::kDecr, {},
                            static_cast<std::uint64_t>(-delta)};
    spec.updates.push_back(std::move(u));
    return spec;
  }

  sql::Database db_;
  IQServer server_;
};

// ---- read sessions -------------------------------------------------------------

TEST_F(CasqlTest, ReadThroughComputesOnMissThenHits) {
  CasqlSystem system(db_, server_, Config(Technique::kInvalidate, Consistency::kIQ));
  auto conn = system.Connect();
  auto first = conn->Read("K", ComputeK());
  EXPECT_TRUE(first.computed);
  EXPECT_EQ(first.value, "100");
  auto second = conn->Read("K", ComputeK());
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.value, "100");
}

TEST_F(CasqlTest, PlainReadAlsoCaches) {
  CasqlSystem system(db_, server_, Config(Technique::kInvalidate, Consistency::kNone));
  auto conn = system.Connect();
  conn->Read("K", ComputeK());
  EXPECT_EQ(server_.store().Get("K")->value, "100");
}

TEST_F(CasqlTest, ReadOfMissingEntityReturnsNullopt) {
  CasqlSystem system(db_, server_, Config(Technique::kInvalidate, Consistency::kIQ));
  auto conn = system.Connect();
  auto out = conn->Read("Absent", [](Transaction&) -> std::optional<std::string> {
    return std::nullopt;
  });
  EXPECT_FALSE(out.value);
  // The I lease must have been dropped so others are not blocked.
  EXPECT_FALSE(server_.LeaseOn("Absent"));
}

// ---- write sessions, parameterized over all client designs ---------------------

struct ClientDesign {
  Technique technique;
  Consistency consistency;
  LeasePlacement placement;
};

class WriteSessionTest : public CasqlTest,
                         public ::testing::WithParamInterface<ClientDesign> {};

TEST_P(WriteSessionTest, CommittedWriteUpdatesBothStores) {
  const auto& d = GetParam();
  CasqlSystem system(db_, server_, Config(d.technique, d.consistency, d.placement));
  auto conn = system.Connect();
  conn->Read("K", ComputeK());  // warm the cache
  auto out = conn->Write(AddSpec(+50));
  EXPECT_TRUE(out.committed);
  EXPECT_EQ(DbValue(), 150);
  // Whatever the technique, a subsequent read must observe 150 (invalidate
  // deletes the key; refresh/incremental update it in place).
  auto read = conn->Read("K", ComputeK());
  ASSERT_TRUE(read.value);
  EXPECT_EQ(*read.value, "150");
}

TEST_P(WriteSessionTest, AbortedBodyLeavesBothStoresUntouched) {
  const auto& d = GetParam();
  CasqlSystem system(db_, server_, Config(d.technique, d.consistency, d.placement));
  auto conn = system.Connect();
  conn->Read("K", ComputeK());
  WriteSpec spec = AddSpec(+50);
  spec.body = [](Transaction&) { return false; };  // constraint violation
  auto out = conn->Write(spec);
  EXPECT_FALSE(out.committed);
  EXPECT_EQ(DbValue(), 100);
  auto read = conn->Read("K", ComputeK());
  ASSERT_TRUE(read.value);
  EXPECT_EQ(*read.value, "100");
}

TEST_P(WriteSessionTest, SequentialWritesAccumulate) {
  const auto& d = GetParam();
  CasqlSystem system(db_, server_, Config(d.technique, d.consistency, d.placement));
  auto conn = system.Connect();
  conn->Read("K", ComputeK());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(conn->Write(AddSpec(+10)).committed);
  }
  EXPECT_EQ(DbValue(), 150);
  auto read = conn->Read("K", ComputeK());
  EXPECT_EQ(*read.value, "150");
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, WriteSessionTest,
    ::testing::Values(
        ClientDesign{Technique::kInvalidate, Consistency::kNone,
                     LeasePlacement::kInsideTxn},
        ClientDesign{Technique::kInvalidate, Consistency::kReadLease,
                     LeasePlacement::kInsideTxn},
        ClientDesign{Technique::kInvalidate, Consistency::kIQ,
                     LeasePlacement::kInsideTxn},
        ClientDesign{Technique::kInvalidate, Consistency::kIQ,
                     LeasePlacement::kPriorToTxn},
        ClientDesign{Technique::kRefresh, Consistency::kNone,
                     LeasePlacement::kInsideTxn},
        ClientDesign{Technique::kRefresh, Consistency::kCas,
                     LeasePlacement::kInsideTxn},
        ClientDesign{Technique::kRefresh, Consistency::kIQ,
                     LeasePlacement::kInsideTxn},
        ClientDesign{Technique::kRefresh, Consistency::kIQ,
                     LeasePlacement::kPriorToTxn},
        ClientDesign{Technique::kIncremental, Consistency::kNone,
                     LeasePlacement::kInsideTxn},
        ClientDesign{Technique::kIncremental, Consistency::kIQ,
                     LeasePlacement::kInsideTxn},
        ClientDesign{Technique::kIncremental, Consistency::kIQ,
                     LeasePlacement::kPriorToTxn}));

// ---- IQ-specific behaviors ----------------------------------------------------

TEST_F(CasqlTest, IQInvalidateDeletesKeyAtCommit) {
  CasqlSystem system(db_, server_, Config(Technique::kInvalidate, Consistency::kIQ));
  auto conn = system.Connect();
  conn->Read("K", ComputeK());
  conn->Write(AddSpec(+1));
  EXPECT_FALSE(server_.store().Get("K"));  // invalidated
}

TEST_F(CasqlTest, IQRefreshKeepsKeyResident) {
  CasqlSystem system(db_, server_, Config(Technique::kRefresh, Consistency::kIQ));
  auto conn = system.Connect();
  conn->Read("K", ComputeK());
  conn->Write(AddSpec(+1));
  ASSERT_TRUE(server_.store().Get("K"));
  EXPECT_EQ(server_.store().Get("K")->value, "101");
}

TEST_F(CasqlTest, IQIncrementalAppliesDeltaServerSide) {
  CasqlSystem system(db_, server_,
                     Config(Technique::kIncremental, Consistency::kIQ));
  auto conn = system.Connect();
  conn->Read("K", ComputeK());
  conn->Write(AddSpec(+7));
  EXPECT_EQ(server_.store().Get("K")->value, "107");
}

TEST_F(CasqlTest, RefreshSkipsOnKvsMiss) {
  // Paper Section 4.2: on a miss the application may skip the update.
  CasqlSystem system(db_, server_, Config(Technique::kRefresh, Consistency::kIQ));
  auto conn = system.Connect();
  auto out = conn->Write(AddSpec(+50));  // "K" not cached
  EXPECT_TRUE(out.committed);
  EXPECT_FALSE(server_.store().Get("K"));
  EXPECT_EQ(DbValue(), 150);
}

TEST_F(CasqlTest, MixedModeInvalidateFlagDeletesListKey) {
  CasqlSystem system(db_, server_,
                     Config(Technique::kIncremental, Consistency::kIQ));
  server_.store().Set("List", "a,b");
  auto conn = system.Connect();
  conn->Read("K", ComputeK());
  WriteSpec spec = AddSpec(+1);
  KeyUpdate inv;
  inv.key = "List";
  inv.invalidate = true;
  spec.updates.push_back(std::move(inv));
  EXPECT_TRUE(conn->Write(spec).committed);
  EXPECT_EQ(server_.store().Get("K")->value, "101");  // delta applied
  EXPECT_FALSE(server_.store().Get("List"));          // invalidated
}

// ---- restart accounting, parameterized over every IQ design ---------------

struct IQDesign {
  Technique technique;
  LeasePlacement placement;
};

class IQRestartTest : public CasqlTest,
                      public ::testing::WithParamInterface<IQDesign> {
 protected:
  CasqlConfig DesignConfig() {
    return Config(GetParam().technique, Consistency::kIQ, GetParam().placement);
  }
};

TEST_P(IQRestartTest, RdbmsConflictRestartsSession) {
  CasqlSystem system(db_, server_, DesignConfig());
  auto conn = system.Connect();
  conn->Read("K", ComputeK());
  // A blocker holds a write intent on the row; it commits from inside the
  // session body on the first attempt, so the retry succeeds.
  auto blocker = db_.Begin();
  blocker->UpdateByPk("Counters", {V(1)}, {{"n", V(500)}});
  bool released = false;
  WriteSpec spec;
  spec.body = [&](Transaction& txn) {
    TxnResult r = txn.UpdateByPk("Counters", {V(1)}, [](sql::Row& row) {
      row[1] = V(*sql::AsInt(row[1]) + 1);
    });
    if (!released) {
      released = true;
      blocker->Commit();
    }
    return r == TxnResult::kOk;
  };
  spec.updates = AddSpec(+1).updates;
  auto out = conn->Write(spec);
  EXPECT_TRUE(out.committed);
  EXPECT_EQ(out.rdbms_restarts, 1);
  EXPECT_EQ(out.q_restarts, 0);
  EXPECT_EQ(out.transport_restarts, 0);
  EXPECT_EQ(DbValue(), 501);
  EXPECT_EQ(server_.LeaseCount(), 0u);
}

TEST_P(IQRestartTest, QLeaseConflictRestartsAndEventuallySucceeds) {
  CasqlSystem system(db_, server_, DesignConfig());
  auto conn = system.Connect();
  conn->Read("K", ComputeK());
  // A foreign session holds a Q(refresh) lease on "K". Another thread
  // releases it once the session has been turned away, or once the session
  // is done: a QaReg voids the lease instead of waiting behind it.
  SessionId intruder = server_.GenID();
  server_.QaRead("K", intruder);
  std::atomic<bool> done{false};
  std::thread releaser([&] {
    while (!done.load() && server_.Stats().q_rejected == 0) {
      std::this_thread::yield();
    }
    server_.Abort(intruder);
  });
  auto out = conn->Write(AddSpec(+50));
  done.store(true);
  releaser.join();
  EXPECT_TRUE(out.committed);
  EXPECT_EQ(out.rdbms_restarts, 0);
  EXPECT_EQ(out.transport_restarts, 0);
  if (GetParam().technique == Technique::kInvalidate) {
    EXPECT_EQ(out.q_restarts, 0);
    EXPECT_FALSE(server_.store().Get("K"));
  } else {
    EXPECT_GE(out.q_restarts, 1);
    EXPECT_EQ(server_.store().Get("K")->value, "150");
  }
  EXPECT_EQ(DbValue(), 150);
  EXPECT_EQ(server_.LeaseCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllIQDesigns, IQRestartTest,
    ::testing::Values(
        IQDesign{Technique::kInvalidate, LeasePlacement::kInsideTxn},
        IQDesign{Technique::kInvalidate, LeasePlacement::kPriorToTxn},
        IQDesign{Technique::kRefresh, LeasePlacement::kInsideTxn},
        IQDesign{Technique::kRefresh, LeasePlacement::kPriorToTxn},
        IQDesign{Technique::kIncremental, LeasePlacement::kInsideTxn},
        IQDesign{Technique::kIncremental, LeasePlacement::kPriorToTxn}),
    [](const ::testing::TestParamInfo<IQDesign>& info) {
      return std::string(ToString(info.param.technique)) +
             (info.param.placement == LeasePlacement::kPriorToTxn ? "Prior"
                                                                   : "Inside");
    });

// ---- staleness auditor ---------------------------------------------------

TEST_F(CasqlTest, AuditDetectsPoisonedCacheEntry) {
  CasqlConfig cfg = Config(Technique::kRefresh, Consistency::kIQ);
  cfg.audit_rate = 1.0;
  CasqlSystem system(db_, server_, cfg);
  auto conn = system.Connect();
  conn->Read("K", ComputeK());  // miss + install
  // Corrupt the entry behind the framework's back — the kind of bug the
  // auditor exists to catch.
  server_.store().Set("K", "31337");
  auto out = conn->Read("K", ComputeK());
  EXPECT_TRUE(out.hit);
  AuditStats a = system.audit_stats();
  EXPECT_GE(a.samples, 1u);
  EXPECT_GE(a.stale_reads_detected, 1u);
  // The audit is an observer: it must leave the entry in place (SaR with no
  // replacement value), not silently repair it.
  EXPECT_EQ(server_.store().Get("K")->value, "31337");
}

TEST_F(CasqlTest, AuditDetectsPoisonUnderBaselineConsistency) {
  CasqlConfig cfg = Config(Technique::kRefresh, Consistency::kNone);
  cfg.audit_rate = 1.0;
  CasqlSystem system(db_, server_, cfg);
  auto conn = system.Connect();
  conn->Read("K", ComputeK());
  server_.store().Set("K", "31337");
  auto out = conn->Read("K", ComputeK());
  EXPECT_TRUE(out.hit);
  AuditStats a = system.audit_stats();
  EXPECT_GE(a.samples, 1u);
  EXPECT_GE(a.stale_reads_detected, 1u);
}

TEST_F(CasqlTest, AuditCleanRunHasNoFalsePositives) {
  CasqlConfig cfg = Config(Technique::kRefresh, Consistency::kIQ);
  cfg.audit_rate = 1.0;
  CasqlSystem system(db_, server_, cfg);
  auto conn = system.Connect();
  conn->Read("K", ComputeK());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(conn->Write(AddSpec(+1)).committed);
    auto out = conn->Read("K", ComputeK());
    EXPECT_EQ(out.value, std::to_string(DbValue()));
  }
  AuditStats a = system.audit_stats();
  EXPECT_GE(a.samples, 1u);
  EXPECT_EQ(a.stale_reads_detected, 0u);
}

TEST_F(CasqlTest, AuditDisabledRecordsNothing) {
  CasqlSystem system(db_, server_,
                     Config(Technique::kRefresh, Consistency::kIQ));
  auto conn = system.Connect();
  conn->Read("K", ComputeK());
  conn->Read("K", ComputeK());
  AuditStats a = system.audit_stats();
  EXPECT_EQ(a.samples, 0u);
  EXPECT_EQ(a.stale_reads_detected, 0u);
  EXPECT_EQ(a.skipped, 0u);
}

// ---- op log: the history casql's sessions write certifies --------------------

class CertifiedHistoryTest : public CasqlTest,
                             public ::testing::WithParamInterface<Technique> {};

// Four threads of reads and writes on one traced server: the op log their
// IQ sessions (plus casql's read_db records) wrote, joined with the drained
// lease trace, must replay as a certified history.
TEST_P(CertifiedHistoryTest, ConcurrentReadsAndWritesCertify) {
  IQServer::Config server_cfg;
  server_cfg.trace_capacity = 1 << 14;
  IQServer server(CacheStore::Config{}, server_cfg);
  check::OpLog log;
  CasqlConfig cfg = Config(GetParam(), Consistency::kIQ);
  cfg.audit_rate = 0.1;
  cfg.client.op_log = &log;
  CasqlSystem system(db_, server, cfg);
  std::atomic<int> commits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto conn = system.Connect();
      for (int i = 0; i < 200; ++i) {
        if ((i + t) % 4 == 0) {
          if (conn->Write(AddSpec(+1)).committed) ++commits;
        } else {
          conn->Read("K", ComputeK());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(DbValue(), 100 + commits.load());

  check::TraceSource src;
  src.name = "server";
  src.events = server.TraceSnapshot(std::numeric_limits<std::size_t>::max());
  src.info = server.TraceInfoTotal();
  src.has_info = true;
  check::CheckReport report = check::CheckHistory({src}, log.Snapshot());
  EXPECT_TRUE(report.certified()) << report.Summary();
  EXPECT_GT(report.reads_checked + report.reads_exempt, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, CertifiedHistoryTest,
                         ::testing::Values(Technique::kInvalidate,
                                           Technique::kRefresh,
                                           Technique::kIncremental));

TEST_F(CasqlTest, ToStringsAreHumanReadable) {
  EXPECT_STREQ(ToString(Technique::kInvalidate), "invalidate");
  EXPECT_STREQ(ToString(Technique::kRefresh), "refresh");
  EXPECT_STREQ(ToString(Technique::kIncremental), "incremental");
  EXPECT_STREQ(ToString(Consistency::kNone), "none");
  EXPECT_STREQ(ToString(Consistency::kCas), "cas");
  EXPECT_STREQ(ToString(Consistency::kReadLease), "read-lease");
  EXPECT_STREQ(ToString(Consistency::kIQ), "IQ");
  EXPECT_STREQ(ToString(LeasePlacement::kPriorToTxn), "prior-to-txn");
  EXPECT_STREQ(ToString(LeasePlacement::kInsideTxn), "inside-txn");
}

}  // namespace
}  // namespace iq::casql
