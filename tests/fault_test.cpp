// Fault injection across the stack: the FaultChannel harness itself, the
// transport-error status on every wire verb, the session layer's
// transport-error accounting and lazy id re-mint, the casql
// restart discipline that keeps a dropped QaReg from leaving a permanently
// stale value (the anomaly of Section 2 with a dead connection instead of a
// racing reader), and the ShardedBackend circuit breaker.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "casql/casql.h"
#include "core/iq_client.h"
#include "core/iq_server.h"
#include "core/sharded_backend.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/remote_backend.h"

namespace iq {
namespace {

using casql::CasqlConfig;
using casql::CasqlSystem;
using casql::Consistency;
using casql::Technique;
using net::FaultChannel;
using sql::SchemaBuilder;
using sql::Transaction;
using sql::TxnResult;
using sql::V;

FaultChannel::Rule Drop(FaultChannel::Fault fault, std::string match,
                        int skip = 0, int count = 1) {
  FaultChannel::Rule r;
  r.fault = fault;
  r.match = std::move(match);
  r.skip = skip;
  r.count = count;
  return r;
}

/// An in-process server behind the fault injector: a RemoteBackend over a
/// FaultChannel over a LoopbackChannel.
struct FaultyServer {
  IQServer server;
  net::LoopbackChannel loop{server};
  FaultChannel fault{loop};
  net::RemoteBackend backend{fault};

  /// Fail the next round trip matching `match` before it reaches the server.
  void DropNext(const std::string& match) {
    fault.Arm(Drop(FaultChannel::Fault::kDropRequest, match));
  }
  /// Every round trip fails from the next one on, until Heal().
  void Down() { fault.Arm(Drop(FaultChannel::Fault::kDown, "")); }
};

// ---- the FaultChannel harness itself ------------------------------------

TEST(FaultChannelTest, SkipCountDownAndHeal) {
  IQServer server;
  net::LoopbackChannel inner(server);
  FaultChannel fault(inner);
  std::string reply;

  fault.Arm(Drop(FaultChannel::Fault::kDropRequest, "get", /*skip=*/1));
  EXPECT_TRUE(fault.RoundTrip("get k\r\n", &reply));   // let through
  EXPECT_FALSE(fault.RoundTrip("get k\r\n", &reply));  // fired
  EXPECT_TRUE(fault.RoundTrip("get k\r\n", &reply));   // disarmed
  EXPECT_EQ(fault.faults_injected(), 1u);

  fault.Arm(Drop(FaultChannel::Fault::kDown, ""));
  EXPECT_FALSE(fault.RoundTrip("get k\r\n", &reply));
  EXPECT_TRUE(fault.down());
  // Down outlives the (consumed) rule until healed, and every round trip
  // it fails counts.
  EXPECT_FALSE(fault.RoundTrip("get k\r\n", &reply));
  EXPECT_EQ(fault.faults_injected(), 3u);
  fault.Heal();
  EXPECT_TRUE(fault.RoundTrip("get k\r\n", &reply));
  EXPECT_EQ(fault.faults_injected(), 3u);
}

TEST(FaultChannelTest, DropResponseExecutesServerSide) {
  IQServer server;
  net::LoopbackChannel inner(server);
  FaultChannel fault(inner);
  net::RemoteBackend backend(fault);

  fault.Arm(Drop(FaultChannel::Fault::kDropResponse, "set"));
  EXPECT_EQ(backend.Set("k", "v"), StoreResult::kTransportError);
  // The asymmetric case: the server executed the request, only the reply
  // was lost. The client must not assume either outcome.
  ASSERT_TRUE(server.store().Get("k").has_value());
  EXPECT_EQ(server.store().Get("k")->value, "v");
}

// ---- transport-error status on every wire verb --------------------------

class WireFaultTest : public ::testing::Test {
 protected:
  WireFaultTest() : inner_(server_), fault_(inner_), backend_(fault_) {}

  void DropNext(const std::string& match) {
    fault_.Arm(Drop(FaultChannel::Fault::kDropRequest, match));
  }

  IQServer server_;
  net::LoopbackChannel inner_;
  FaultChannel fault_;
  net::RemoteBackend backend_;
};

TEST_F(WireFaultTest, EveryVerbReportsTransportErrorNotAMiss) {
  DropNext("genid");
  EXPECT_EQ(backend_.GenID(), 0u);
  SessionId sid = backend_.GenID();
  ASSERT_NE(sid, 0u);

  DropNext("iqget");
  EXPECT_EQ(backend_.IQget("k", sid).status, GetReply::Status::kTransportError);
  DropNext("iqset");
  EXPECT_EQ(backend_.IQset("k", "v", 1), StoreResult::kTransportError);
  DropNext("qaread");
  EXPECT_EQ(backend_.QaRead("k", sid).status,
            QaReadReply::Status::kTransportError);
  DropNext("sar");
  EXPECT_EQ(backend_.SaR("k", std::string_view("v"), 1),
            StoreResult::kTransportError);
  DropNext("qareg");
  EXPECT_EQ(backend_.QaReg(sid, "k"), QuarantineResult::kTransportError);
  DropNext("iqincr");
  EXPECT_EQ(backend_.IQDelta(sid, "k", DeltaOp{DeltaOp::Kind::kIncr, {}, 1}),
            QuarantineResult::kTransportError);
  ASSERT_EQ(backend_.Set("g", "1"), StoreResult::kStored);
  DropNext("gets");  // RemoteBackend reads via gets (cas unique included)
  EXPECT_EQ(backend_.Get("g"), std::nullopt);
  DropNext("set ");
  EXPECT_EQ(backend_.Set("g", "2"), StoreResult::kTransportError);
  backend_.Abort(sid);
  EXPECT_EQ(fault_.faults_injected(), 9u);
}

TEST_F(WireFaultTest, DroppedQaRegResponseIsAnErrorNotAGrant) {
  SessionId sid = backend_.GenID();
  ASSERT_NE(sid, 0u);
  fault_.Arm(Drop(FaultChannel::Fault::kDropResponse, "qareg"));
  // The server granted and registered the quarantine; the reply was lost.
  // Before the fix this surfaced as kGranted — the permanent-staleness bug.
  EXPECT_EQ(backend_.QaReg(sid, "k"), QuarantineResult::kTransportError);
  EXPECT_EQ(server_.LeaseCount(), 1u);
  // Abort (the mandated reaction) releases the orphaned lease.
  backend_.Abort(sid);
  EXPECT_EQ(server_.LeaseCount(), 0u);
}

TEST_F(WireFaultTest, CommitRuleHitsTheSwapCarryingFrame) {
  // The SaRs travel in the commit's frame, so a rule on "commit" drops
  // them too: a dropped request installs nothing and strands the Q leases
  // for expiry to reclaim; a dropped response installed everything.
  ASSERT_EQ(backend_.Set("a", "old"), StoreResult::kStored);
  ASSERT_EQ(backend_.Set("b", "old"), StoreResult::kStored);
  SessionId sid = backend_.GenID();
  for (FaultChannel::Fault kind : {FaultChannel::Fault::kDropRequest,
                                   FaultChannel::Fault::kDropResponse}) {
    std::vector<LeaseReply> leases =
        backend_.Acquire(sid, {{LeaseRequest::Kind::kQaRead, "a"},
                               {LeaseRequest::Kind::kQaRead, "b"}});
    ASSERT_EQ(leases.size(), 2u);
    ASSERT_EQ(leases[1].status, LeaseReply::Status::kGranted);
    fault_.Arm(Drop(kind, "commit"));
    std::vector<StoreResult> stored = backend_.CommitSwaps(
        sid, {{"a", "new", leases[0].token}, {"b", "new", leases[1].token}});
    EXPECT_EQ(stored, std::vector<StoreResult>(
                          2, StoreResult::kTransportError));
    const bool executed = kind == FaultChannel::Fault::kDropResponse;
    EXPECT_EQ(server_.store().Get("a")->value, executed ? "new" : "old");
    EXPECT_EQ(server_.store().Get("b")->value, executed ? "new" : "old");
    EXPECT_EQ(server_.LeaseCount(), executed ? 0u : 2u);
    backend_.Abort(sid);
    EXPECT_EQ(server_.LeaseCount(), 0u);
  }
  EXPECT_EQ(fault_.faults_injected(), 2u);
}

// ---- the headline: a dropped QaReg must not leave a stale value ----------

class CasqlFaultTest : public ::testing::Test {
 protected:
  CasqlFaultTest() : inner_(server_), fault_(inner_), backend_(fault_) {
    db_.CreateTable(
        SchemaBuilder("T").AddInt("id").AddInt("n").PrimaryKey({"id"}).Build());
    auto txn = db_.Begin();
    txn->Insert("T", {V(1), V(0)});
    txn->Commit();
  }

  CasqlConfig Config() {
    CasqlConfig cfg;
    cfg.technique = Technique::kInvalidate;
    cfg.consistency = Consistency::kIQ;
    cfg.client.backoff_base = 20 * kNanosPerMicro;
    cfg.client.backoff_cap = kNanosPerMilli;
    return cfg;
  }

  static std::optional<std::string> Compute(Transaction& txn) {
    auto row = txn.SelectByPk("T", {V(1)});
    if (!row) return std::nullopt;
    return std::to_string(*sql::AsInt((*row)[1]));
  }

  casql::WriteSpec IncrementSpec() {
    casql::WriteSpec spec;
    spec.body = [](Transaction& txn) {
      return txn.UpdateByPk("T", {V(1)}, [](sql::Row& row) {
               row[1] = V(*sql::AsInt(row[1]) + 1);
             }) == TxnResult::kOk;
    };
    casql::KeyUpdate u;
    u.key = "K";
    spec.updates.push_back(std::move(u));
    return spec;
  }

  // Cache "0" under `keys`, drop the first qareg request (one QaReg, or
  // the acquire frame carrying several) per `fault`, write n=1, and require
  // the session to have restarted instead of committing around the dead
  // quarantine: the cache must never still say "0" afterwards.
  void RunScenario(FaultChannel::Fault kind,
                   const std::vector<std::string>& keys = {"K"}) {
    CasqlSystem system(db_, backend_, Config());
    auto conn = system.Connect();
    casql::WriteSpec spec = IncrementSpec();
    spec.updates.clear();
    for (const std::string& key : keys) {
      auto cached = conn->Read(key, Compute);
      ASSERT_TRUE(cached.value);
      ASSERT_EQ(*cached.value, "0");
      ASSERT_EQ(server_.store().Get(key)->value, "0");
      casql::KeyUpdate u;
      u.key = key;
      spec.updates.push_back(std::move(u));
    }

    fault_.Arm(Drop(kind, "qareg"));
    casql::WriteOutcome out = conn->Write(spec);
    EXPECT_TRUE(out.committed);
    EXPECT_GE(out.transport_restarts, 1);
    EXPECT_EQ(fault_.faults_injected(), 1u);

    // The committed write invalidated the keys despite the fault: no lease
    // is stranded and the stale "0" is gone from the cache.
    EXPECT_EQ(server_.LeaseCount(), 0u);
    for (const std::string& key : keys) {
      auto item = server_.store().Get(key);
      EXPECT_TRUE(!item.has_value() || item->value != "0") << key;
      auto read = conn->Read(key, Compute);
      ASSERT_TRUE(read.value);
      EXPECT_EQ(*read.value, "1") << key;
    }
  }

  sql::Database db_;
  IQServer server_;
  net::LoopbackChannel inner_;
  FaultChannel fault_;
  net::RemoteBackend backend_;
};

TEST_F(CasqlFaultTest, DroppedQaRegRequestDoesNotLeaveAStaleValue) {
  RunScenario(FaultChannel::Fault::kDropRequest);
}

TEST_F(CasqlFaultTest, DroppedQaRegResponseDoesNotLeaveAStaleValue) {
  RunScenario(FaultChannel::Fault::kDropResponse);
}

TEST_F(CasqlFaultTest, DroppedQaRegFrameRequestDoesNotLeaveAStaleValue) {
  RunScenario(FaultChannel::Fault::kDropRequest, {"K", "K2", "K3"});
}

TEST_F(CasqlFaultTest, DroppedQaRegFrameResponseDoesNotLeaveAStaleValue) {
  RunScenario(FaultChannel::Fault::kDropResponse, {"K", "K2", "K3"});
}

TEST_F(CasqlFaultTest, WriteNeverCommitsWhileTheCacheIsDown) {
  CasqlConfig cfg = Config();
  cfg.max_session_restarts = 3;
  CasqlSystem system(db_, backend_, cfg);
  auto conn = system.Connect();
  conn->Read("K", Compute);

  fault_.Arm(Drop(FaultChannel::Fault::kDown, ""));
  casql::WriteOutcome out = conn->Write(IncrementSpec());
  EXPECT_FALSE(out.committed);
  EXPECT_EQ(out.transport_restarts, 3);
  // Every attempt rolled the RDBMS back: committing with no quarantine in
  // place would strand "0" in the cache forever.
  auto txn = db_.Begin();
  auto row = txn->SelectByPk("T", {V(1)});
  ASSERT_TRUE(row);
  EXPECT_EQ(*sql::AsInt((*row)[1]), 0);
  txn->Rollback();

  // Reads meanwhile degrade to RDBMS pass-through instead of spinning.
  auto read = conn->Read("K2", Compute);
  EXPECT_TRUE(read.computed);
  ASSERT_TRUE(read.value);
  EXPECT_EQ(*read.value, "0");

  fault_.Heal();
  out = conn->Write(IncrementSpec());
  EXPECT_TRUE(out.committed);
  auto after = conn->Read("K", Compute);
  ASSERT_TRUE(after.value);
  EXPECT_EQ(*after.value, "1");
}

// ---- the client session layer over a faulty channel -----------------------

TEST(SessionFaultTest, SessionCountsTransportErrorsSeparately) {
  FaultyServer f;
  IQClient::Config cfg;
  cfg.backoff_base = 20 * kNanosPerMicro;
  cfg.backoff_cap = kNanosPerMilli;
  IQClient client(f.backend, cfg);
  auto session = client.NewSession();

  f.DropNext("qareg");
  EXPECT_EQ(session->Quarantine("k"), ClientQResult::kTransportError);
  EXPECT_EQ(session->stats().transport_errors, 1u);
  EXPECT_EQ(session->stats().q_conflicts, 0u);
  session->Abort();
  EXPECT_EQ(session->Quarantine("k"), ClientQResult::kGranted);
  session->Abort();

  // A transport error on the read path degrades to pass-through: read the
  // RDBMS, install nothing (no token exists to install with).
  f.DropNext("iqget");
  EXPECT_EQ(session->Get("k").status, ClientGetResult::Status::kMissNoInstall);
  EXPECT_EQ(session->stats().transport_errors, 2u);
  EXPECT_EQ(f.fault.faults_injected(), 2u);
}

TEST(SessionFaultTest, SessionMintedWhileDownHealsAfterReconnect) {
  FaultyServer f;
  IQClient client(f.backend);
  f.Down();
  auto session = client.NewSession();
  EXPECT_EQ(session->id(), 0u);  // minted against a dead server
  EXPECT_EQ(session->Quarantine("k"), ClientQResult::kTransportError);
  f.fault.Heal();
  // The id is re-minted lazily on the next operation.
  EXPECT_EQ(session->Quarantine("k"), ClientQResult::kGranted);
  EXPECT_NE(session->id(), 0u);
  session->Commit();
  EXPECT_EQ(f.server.LeaseCount(), 0u);
}

TEST(SessionFaultTest, SessionMintedWhileDownHealsOnTheReadPath) {
  // Regression: Get() used to skip the lazy id re-mint, so a session minted
  // against a dead server kept issuing IQget under session 0 — and an I
  // lease granted to session 0 could never be released by Commit/Abort
  // once a later write verb switched the id.
  FaultyServer f;
  IQClient client(f.backend);
  f.Down();
  auto session = client.NewSession();
  EXPECT_EQ(session->id(), 0u);
  EXPECT_EQ(session->Get("k").status, ClientGetResult::Status::kMissNoInstall);
  EXPECT_GE(session->stats().transport_errors, 1u);
  f.fault.Heal();
  // The first read after reconnect re-mints the id before IQget; the I
  // lease it wins belongs to the healed session, so its Put installs (and
  // consumes the lease) instead of being orphaned under session 0.
  EXPECT_EQ(session->Get("k").status,
            ClientGetResult::Status::kMissRecompute);
  EXPECT_NE(session->id(), 0u);
  EXPECT_EQ(f.server.LeaseCount(), 1u);
  session->Put("k", "healed");
  EXPECT_EQ(f.server.store().Get("k")->value, "healed");
  EXPECT_EQ(f.server.LeaseCount(), 0u);
}

// ---- the ShardedBackend circuit breaker ----------------------------------

std::string KeyOn(const ShardedBackend& router, std::size_t shard,
                  const char* prefix) {
  for (int i = 0; i < 10000; ++i) {
    std::string key = prefix + std::to_string(i);
    if (router.ShardFor(key) == shard) return key;
  }
  ADD_FAILURE() << "no key found for shard " << shard;
  return {};
}

TEST(ShardedFaultTest, BreakerTripsFailsFastAndHealsThroughAProbe) {
  FaultyServer f0;
  IQServer s1;
  ManualClock clock;
  ShardedBackend::Config cfg;
  cfg.clock = &clock;
  cfg.down_after_errors = 3;
  cfg.probe_interval = 1000;
  ShardedBackend router(
      {{"s0", &f0.backend, 1, {}, {}, {}, {}}, {"s1", &s1, 1, {}, {}, {}, {}}},
      cfg);
  std::string k0 = KeyOn(router, 0, "a");
  std::string k1 = KeyOn(router, 1, "b");
  ASSERT_EQ(router.Set(k0, "v0"), StoreResult::kStored);
  ASSERT_EQ(router.Set(k1, "v1"), StoreResult::kStored);

  f0.Down();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(router.IQget(k0).status, GetReply::Status::kTransportError);
    EXPECT_EQ(router.ShardDown(0), i == 2);  // trips on the third error
  }
  EXPECT_EQ(f0.fault.faults_injected(), 3u);

  // Down: requests fail fast without reaching the child (probe not due).
  EXPECT_EQ(router.IQget(k0).status, GetReply::Status::kTransportError);
  EXPECT_EQ(router.IQset(k0, "x", 1), StoreResult::kTransportError);
  EXPECT_EQ(f0.fault.faults_injected(), 3u);
  // Degraded plain read: a miss (pass-through), never a hang or stale hit.
  EXPECT_FALSE(router.Get(k0).has_value());
  // The healthy shard is untouched.
  ASSERT_TRUE(router.Get(k1).has_value());
  EXPECT_EQ(router.Get(k1)->value, "v1");

  // The server comes back, but the shard stays down until a probe is due...
  f0.fault.Heal();
  EXPECT_EQ(router.IQget(k0).status, GetReply::Status::kTransportError);
  EXPECT_TRUE(router.ShardDown(0));
  // ...then the first probe's success heals it for everyone.
  clock.Advance(2000);
  EXPECT_EQ(router.IQget(k0).status, GetReply::Status::kHit);
  EXPECT_FALSE(router.ShardDown(0));
  EXPECT_EQ(router.Get(k0)->value, "v0");

  ShardedBackendStats rs = router.router_stats();
  EXPECT_EQ(rs.shard_trips, 1u);
  EXPECT_EQ(rs.shard_recoveries, 1u);
  EXPECT_GE(rs.transport_errors, 3u);
  std::string stats = router.FormatStats();
  EXPECT_NE(stats.find("STAT shard_trips 1"), std::string::npos);
  EXPECT_NE(stats.find("STAT shard0_down 0"), std::string::npos);
  EXPECT_NE(stats.find("STAT shard0_transport_errors"), std::string::npos);
}

TEST(ShardedFaultTest, FailedProbeKeepsTheShardDown) {
  FaultyServer f0;
  IQServer s1;
  ManualClock clock;
  ShardedBackend::Config cfg;
  cfg.clock = &clock;
  cfg.down_after_errors = 1;
  cfg.probe_interval = 1000;
  ShardedBackend router(
      {{"s0", &f0.backend, 1, {}, {}, {}, {}}, {"s1", &s1, 1, {}, {}, {}, {}}},
      cfg);
  std::string k0 = KeyOn(router, 0, "a");

  f0.Down();
  EXPECT_EQ(router.IQget(k0).status, GetReply::Status::kTransportError);
  ASSERT_TRUE(router.ShardDown(0));

  // Each interval admits exactly one probe; while it keeps failing the
  // shard stays down and everyone else keeps failing fast.
  for (int round = 0; round < 3; ++round) {
    clock.Advance(1500);
    std::uint64_t reached = f0.fault.faults_injected();
    EXPECT_EQ(router.IQget(k0).status, GetReply::Status::kTransportError);
    EXPECT_EQ(f0.fault.faults_injected(), reached + 1);  // the probe
    EXPECT_EQ(router.IQget(k0).status, GetReply::Status::kTransportError);
    EXPECT_EQ(f0.fault.faults_injected(), reached + 1);  // fast-failed
    EXPECT_TRUE(router.ShardDown(0));
  }
  EXPECT_EQ(router.router_stats().shard_recoveries, 0u);
}

TEST(ShardedFaultTest, CasqlDegradesReadsAndFailsWritesFastOnADownShard) {
  FaultyServer f0;
  IQServer s1;
  ShardedBackend::Config rcfg;  // real clock: casql back-off sleeps in it
  rcfg.down_after_errors = 1;
  rcfg.probe_interval = kNanosPerMilli;
  ShardedBackend router(
      {{"s0", &f0.backend, 1, {}, {}, {}, {}}, {"s1", &s1, 1, {}, {}, {}, {}}},
      rcfg);
  std::string k0 = KeyOn(router, 0, "a");

  sql::Database db;
  db.CreateTable(
      SchemaBuilder("T").AddInt("id").AddInt("n").PrimaryKey({"id"}).Build());
  {
    auto txn = db.Begin();
    txn->Insert("T", {V(1), V(0)});
    txn->Commit();
  }
  CasqlConfig cfg;
  cfg.technique = Technique::kInvalidate;
  cfg.consistency = Consistency::kIQ;
  cfg.max_session_restarts = 4;
  cfg.client.backoff_base = 20 * kNanosPerMicro;
  cfg.client.backoff_cap = 200 * kNanosPerMicro;
  CasqlSystem system(db, router, cfg);
  auto conn = system.Connect();
  auto compute = [](Transaction& txn) -> std::optional<std::string> {
    auto row = txn.SelectByPk("T", {V(1)});
    if (!row) return std::nullopt;
    return std::to_string(*sql::AsInt((*row)[1]));
  };

  f0.Down();
  // Reads on the down shard pass through to the RDBMS, installing nothing.
  auto read = conn->Read(k0, compute);
  EXPECT_TRUE(read.computed);
  ASSERT_TRUE(read.value);
  EXPECT_EQ(*read.value, "0");
  EXPECT_FALSE(f0.server.store().Get(k0).has_value());

  // Writes fail fast after the restart budget — never an uncached commit.
  casql::WriteSpec spec;
  spec.body = [](Transaction& txn) {
    return txn.UpdateByPk("T", {V(1)}, [](sql::Row& row) {
             row[1] = V(*sql::AsInt(row[1]) + 1);
           }) == TxnResult::kOk;
  };
  casql::KeyUpdate u;
  u.key = k0;
  spec.updates.push_back(std::move(u));
  casql::WriteOutcome out = conn->Write(spec);
  EXPECT_FALSE(out.committed);
  EXPECT_EQ(out.transport_restarts, 4);
  {
    auto txn = db.Begin();
    EXPECT_EQ(*sql::AsInt((*txn->SelectByPk("T", {V(1)}))[1]), 0);
    txn->Rollback();
  }

  // Shard heals; the same connection's next write goes through.
  f0.fault.Heal();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  out = conn->Write(spec);
  EXPECT_TRUE(out.committed);
  auto after = conn->Read(k0, compute);
  ASSERT_TRUE(after.value);
  EXPECT_EQ(*after.value, "1");
  EXPECT_EQ(router.router_stats().shard_trips, 1u);
  EXPECT_GE(router.router_stats().shard_recoveries, 1u);
}

}  // namespace
}  // namespace iq
