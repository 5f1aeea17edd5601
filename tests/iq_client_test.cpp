#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "check/oplog.h"
#include "core/iq_server.h"
#include "core/iq_client.h"
#include "core/sharded_backend.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/remote_backend.h"

namespace iq {
namespace {

IQClient::Config FastBackoff() {
  IQClient::Config cfg;
  cfg.backoff_base = 10 * kNanosPerMicro;
  cfg.backoff_cap = 100 * kNanosPerMicro;
  return cfg;
}

class IQClientTest : public ::testing::Test {
 protected:
  IQClientTest() : client_(server_, FastBackoff()) {}
  IQServer server_;
  IQClient client_;
};

TEST_F(IQClientTest, SessionsGetDistinctIds) {
  auto a = client_.NewSession();
  auto b = client_.NewSession();
  EXPECT_NE(a->id(), b->id());
}

TEST_F(IQClientTest, GetHitReturnsValue) {
  server_.store().Set("k", "v");
  auto s = client_.NewSession();
  auto r = s->Get("k");
  EXPECT_EQ(r.status, ClientGetResult::Status::kHit);
  EXPECT_EQ(r.value, "v");
}

TEST_F(IQClientTest, MissRecomputeThenPutInstalls) {
  auto s = client_.NewSession();
  auto r = s->Get("k");
  ASSERT_EQ(r.status, ClientGetResult::Status::kMissRecompute);
  s->Put("k", "computed");
  EXPECT_EQ(server_.store().Get("k")->value, "computed");
}

TEST_F(IQClientTest, PutWithoutLeaseIsIgnored) {
  auto s = client_.NewSession();
  s->Put("k", "value");  // never obtained an I lease
  EXPECT_FALSE(server_.store().Get("k"));
}

TEST_F(IQClientTest, TokensAreTransparentToCaller) {
  // The session tracks the token internally; a second session's Put cannot
  // hijack the first session's lease.
  auto s1 = client_.NewSession();
  auto s2 = client_.NewSession();
  ASSERT_EQ(s1->Get("k").status, ClientGetResult::Status::kMissRecompute);
  s2->Put("k", "intruder");
  EXPECT_FALSE(server_.store().Get("k"));
  s1->Put("k", "legit");
  EXPECT_EQ(server_.store().Get("k")->value, "legit");
}

TEST_F(IQClientTest, GetBacksOffWhileContendedThenTimesOut) {
  auto holder = client_.NewSession();
  ASSERT_EQ(holder->Get("k").status, ClientGetResult::Status::kMissRecompute);
  auto waiter = client_.NewSession();
  auto r = waiter->Get("k", /*max_retries=*/3);
  EXPECT_EQ(r.status, ClientGetResult::Status::kTimeout);
  EXPECT_EQ(waiter->stats().get_backoffs, 3u);
}

TEST_F(IQClientTest, GetRetriesUntilHolderInstalls) {
  auto holder = client_.NewSession();
  ASSERT_EQ(holder->Get("k").status, ClientGetResult::Status::kMissRecompute);
  std::thread installer([&] {
    SleepFor(server_.clock(), kNanosPerMilli);
    holder->Put("k", "fresh");
  });
  auto waiter = client_.NewSession();
  auto r = waiter->Get("k", 10000);
  installer.join();
  EXPECT_EQ(r.status, ClientGetResult::Status::kHit);
  EXPECT_EQ(r.value, "fresh");
}

TEST_F(IQClientTest, QaReadGrantAndConflict) {
  server_.store().Set("k", "v0");
  auto s1 = client_.NewSession();
  auto s2 = client_.NewSession();
  std::optional<std::string> v1, v2;
  EXPECT_EQ(s1->QaRead("k", v1), ClientQResult::kGranted);
  EXPECT_EQ(v1, "v0");
  EXPECT_EQ(s2->QaRead("k", v2), ClientQResult::kQConflict);
  EXPECT_EQ(s2->stats().q_conflicts, 1u);
}

TEST_F(IQClientTest, SaRUpdatesAndReleases) {
  server_.store().Set("k", "v0");
  auto s = client_.NewSession();
  std::optional<std::string> old;
  s->QaRead("k", old);
  s->SaR("k", "v1");
  EXPECT_EQ(server_.store().Get("k")->value, "v1");
  // Lease released: another session may now QaRead.
  auto s2 = client_.NewSession();
  std::optional<std::string> v;
  EXPECT_EQ(s2->QaRead("k", v), ClientQResult::kGranted);
}

TEST_F(IQClientTest, SaRWithoutQaReadIsIgnored) {
  server_.store().Set("k", "v0");
  auto s = client_.NewSession();
  s->SaR("k", "hijack");
  EXPECT_EQ(server_.store().Get("k")->value, "v0");
}

TEST_F(IQClientTest, QuarantineThenCommitDeletes) {
  server_.store().Set("k", "v0");
  auto s = client_.NewSession();
  s->Quarantine("k");
  EXPECT_TRUE(server_.store().Get("k"));  // deferred delete
  s->Commit();
  EXPECT_FALSE(server_.store().Get("k"));
}

TEST_F(IQClientTest, QuarantineThenAbortKeepsValue) {
  server_.store().Set("k", "v0");
  auto s = client_.NewSession();
  s->Quarantine("k");
  s->Abort();
  EXPECT_EQ(server_.store().Get("k")->value, "v0");
}

TEST_F(IQClientTest, DeltaHelpersBuildCorrectOps) {
  server_.store().Set("list", "a");
  server_.store().Set("count", "10");
  auto s = client_.NewSession();
  EXPECT_EQ(s->Acquire({{LeaseRequest::Kind::kDelta, "list",
                         DeltaOp{DeltaOp::Kind::kAppend, ",b", 0}}}),
            ClientQResult::kGranted);
  EXPECT_EQ(s->Acquire({{LeaseRequest::Kind::kDelta, "count",
                         DeltaOp{DeltaOp::Kind::kIncr, {}, 5}}}),
            ClientQResult::kGranted);
  s->Commit();
  EXPECT_EQ(server_.store().Get("list")->value, "a,b");
  EXPECT_EQ(server_.store().Get("count")->value, "15");

  auto s2 = client_.NewSession();
  EXPECT_EQ(s2->Acquire({{LeaseRequest::Kind::kDelta, "count",
                          DeltaOp{DeltaOp::Kind::kDecr, {}, 3}}}),
            ClientQResult::kGranted);
  s2->Commit();
  EXPECT_EQ(server_.store().Get("count")->value, "12");
}

TEST_F(IQClientTest, DeltaConflictReportedToCaller) {
  auto s1 = client_.NewSession();
  auto s2 = client_.NewSession();
  EXPECT_EQ(s1->Acquire({{LeaseRequest::Kind::kDelta, "k",
                          DeltaOp{DeltaOp::Kind::kAppend, "x", 0}}}),
            ClientQResult::kGranted);
  EXPECT_EQ(s2->Acquire({{LeaseRequest::Kind::kDelta, "k",
                          DeltaOp{DeltaOp::Kind::kAppend, "y", 0}}}),
            ClientQResult::kQConflict);
}

TEST_F(IQClientTest, AbortReleasesEverything) {
  auto s = client_.NewSession();
  std::optional<std::string> v;
  s->QaRead("a", v);
  s->Quarantine("b");
  s->Acquire({{LeaseRequest::Kind::kDelta, "c",
               DeltaOp{DeltaOp::Kind::kAppend, "x", 0}}});
  s->Abort();
  EXPECT_FALSE(server_.LeaseOn("a"));
  EXPECT_FALSE(server_.LeaseOn("b"));
  EXPECT_FALSE(server_.LeaseOn("c"));
}

TEST_F(IQClientTest, DestructorActsAsAbort) {
  {
    auto s = client_.NewSession();
    std::optional<std::string> v;
    s->QaRead("k", v);
  }
  EXPECT_FALSE(server_.LeaseOn("k"));
}

TEST_F(IQClientTest, DropLeaseUnblocksOtherReaders) {
  auto s1 = client_.NewSession();
  ASSERT_EQ(s1->Get("k").status, ClientGetResult::Status::kMissRecompute);
  s1->DropLease("k");  // compute found nothing worth caching
  auto s2 = client_.NewSession();
  EXPECT_EQ(s2->Get("k").status, ClientGetResult::Status::kMissRecompute);
}

TEST_F(IQClientTest, BackoffSleepsAndResets) {
  auto s = client_.NewSession();
  Nanos t0 = server_.clock().Now();
  s->Backoff();
  s->Backoff();
  EXPECT_GT(server_.clock().Now() - t0, 0);
  s->Commit();  // resets the attempt counter; just verify no crash
  s->Backoff();
}

TEST_F(IQClientTest, RestartedSessionBackoffResetsToBase) {
  IQClient::Config cfg;
  cfg.backoff_base = 10 * kNanosPerMicro;
  cfg.backoff_cap = 10 * kNanosPerMilli;
  IQClient client(server_, cfg);
  auto s = client.NewSession();
  for (int i = 0; i < 12; ++i) s->Backoff();
  EXPECT_EQ(s->backoff_attempt(), 12);
  // Fully escalated: the next wait is at least cap/2 (the jitter floor).
  Nanos t0 = server_.clock().Now();
  s->Backoff();
  EXPECT_GE(server_.clock().Now() - t0, 5 * kNanosPerMilli);
  // A restarted session resets to base delay: its first backoff must be
  // far below the escalated wait, not stuck at the cap.
  s->ResetBackoff();
  EXPECT_EQ(s->backoff_attempt(), 0);
  t0 = server_.clock().Now();
  s->Backoff();
  EXPECT_LT(server_.clock().Now() - t0, 5 * kNanosPerMilli);
  EXPECT_EQ(s->backoff_attempt(), 1);
}

TEST_F(IQClientTest, FixedBackoffConfigSupported) {
  IQClient::Config cfg = FastBackoff();
  cfg.exponential_backoff = false;
  IQClient fixed_client(server_, cfg);
  auto s = fixed_client.NewSession();
  s->Backoff();  // exercises the FixedBackoff path
  SUCCEED();
}

TEST_F(IQClientTest, BackoffEscalatesAcrossRejectAbortRetries) {
  // casql's retry shape — rejected QaRead, Abort(), Backoff() — must wait
  // longer on every retry (exponential back-off); only Commit() resets.
  server_.store().Set("k", "v0");
  auto holder = client_.NewSession();
  auto s = client_.NewSession();
  std::optional<std::string> v;
  ASSERT_EQ(holder->QaRead("k", v), ClientQResult::kGranted);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_EQ(s->QaRead("k", v), ClientQResult::kQConflict);
    s->Abort();
    s->Backoff();
    EXPECT_EQ(s->backoff_attempt(), i);
  }
  holder->Commit();
  ASSERT_EQ(s->QaRead("k", v), ClientQResult::kGranted);
  s->Commit();
  EXPECT_EQ(s->backoff_attempt(), 0);
}

// ---- the op log: every verb writes its own record ---------------------------

using K = check::OpKind;

class SessionOpLogTest : public ::testing::Test {
 protected:
  SessionOpLogTest()
      : server_(CacheStore::Config{},
                IQServer::Config{.near_validity = kNanosPerSec}) {}
  IQClient::Config Logged() {
    IQClient::Config cfg = FastBackoff();
    cfg.near_capacity = 8;
    cfg.op_log = &log_;
    return cfg;
  }
  std::vector<K> Kinds() const {
    std::vector<K> kinds;
    for (const check::OpRecord& r : log_.Snapshot()) kinds.push_back(r.kind);
    return kinds;
  }

  check::OpLog log_;
  IQServer server_;
};

TEST_F(SessionOpLogTest, EachVerbLogsItsRecord) {
  IQClient client(server_, Logged());
  server_.store().Set("h", "v0");
  server_.store().Set("c", "5");
  auto s = client.NewSession();
  std::optional<std::string> v;
  ASSERT_EQ(s->Get("h").status, ClientGetResult::Status::kHit);
  ASSERT_TRUE(s->Get("h").near_hit);  // zero round trips, logged all the same
  ASSERT_EQ(s->Get("m").status, ClientGetResult::Status::kMissRecompute);
  s->Put("m", "x");  // its caller logs the value as read_db
  ASSERT_EQ(s->QaRead("h", v), ClientQResult::kGranted);
  EXPECT_EQ(s->SaR("h", "v1"), StoreResult::kStored);
  EXPECT_EQ(s->SaR("h", "v2"), StoreResult::kNotStored);  // lease released
  ASSERT_EQ(s->Quarantine("q"), ClientQResult::kGranted);
  ASSERT_EQ(s->QaRead("c", v), ClientQResult::kGranted);
  ASSERT_EQ(s->Acquire({{LeaseRequest::Kind::kDelta, "c",
                         DeltaOp{DeltaOp::Kind::kIncr, {}, 1}}}),
            ClientQResult::kGranted);
  ASSERT_EQ(s->QaRead("c", v), ClientQResult::kGranted);  // own-update probe
  EXPECT_EQ(v, "6");
  s->Commit();
  s->Abort();

  EXPECT_EQ(Kinds(), (std::vector<K>{K::kReadHit, K::kReadHit, K::kReadMiss,
                                     K::kReadHit, K::kWrite, K::kInval,
                                     K::kReadHit, K::kDelta, K::kReadOwn,
                                     K::kCommit, K::kAbort}));
  std::vector<check::OpRecord> ops = log_.Snapshot();
  EXPECT_EQ(ops[0].value_hash, check::OpValueHash("v0"));
  EXPECT_EQ(ops[1].value_hash, check::OpValueHash("v0"));
  EXPECT_EQ(ops[2].value_hash, check::kNoValueHash);
  EXPECT_EQ(ops[4].key_hash, TraceKeyHash("h"));
  EXPECT_EQ(ops[4].value_hash, check::OpValueHash("v1"));
  EXPECT_EQ(ops[8].value_hash, check::OpValueHash("6"));
  EXPECT_NE(ops[0].session, 0u);
  for (const check::OpRecord& r : ops) EXPECT_EQ(r.session, ops[0].session);
}

TEST_F(SessionOpLogTest, AbortAfterATransportFailureLogsTransportError) {
  net::LoopbackChannel loop(server_);
  net::FaultChannel fault(loop);
  net::RemoteBackend remote(fault);
  IQClient client(remote, Logged());
  auto s = client.NewSession();
  std::optional<std::string> v;
  fault.Arm({net::FaultChannel::Fault::kDropRequest, "qaread"});
  EXPECT_EQ(s->QaRead("k", v), ClientQResult::kTransportError);
  s->Abort();
  ASSERT_EQ(s->QaRead("k", v), ClientQResult::kGranted);
  fault.Arm({net::FaultChannel::Fault::kDropRequest, "sar "});
  EXPECT_EQ(s->SaR("k", "v1"), StoreResult::kTransportError);
  s->Abort();
  ASSERT_EQ(s->QaRead("k", v), ClientQResult::kGranted);
  s->Abort();  // this logical session saw no transport failure
  EXPECT_EQ(Kinds(), (std::vector<K>{K::kTransportError, K::kReadMiss,
                                     K::kWrite, K::kTransportError,
                                     K::kReadMiss, K::kAbort}));
}

/// Loopback channel that notes the op log's size as each sar request leaves.
class SarWatch final : public net::Channel {
 public:
  SarWatch(IQServer& server, const check::OpLog& log)
      : inner_(server), log_(log) {}
  bool RoundTrip(const std::string& request, std::string* reply) override {
    if (request.rfind("sar ", 0) == 0) log_size_at_sar = log_.size();
    return inner_.RoundTrip(request, reply);
  }
  std::size_t log_size_at_sar = 0;

 private:
  net::LoopbackChannel inner_;
  const check::OpLog& log_;
};

TEST_F(SessionOpLogTest, WriteIntentIsLoggedBeforeTheInstall) {
  SarWatch channel(server_, log_);
  net::RemoteBackend remote(channel);
  IQClient client(remote, Logged());
  auto s = client.NewSession();
  std::optional<std::string> v;
  ASSERT_EQ(s->QaRead("k", v), ClientQResult::kGranted);
  EXPECT_EQ(s->SaR("k", "v1"), StoreResult::kStored);
  EXPECT_EQ(channel.log_size_at_sar, 2u);  // read_miss, then the write
  EXPECT_EQ(Kinds().back(), K::kWrite);
}

TEST_F(SessionOpLogTest, ClientsOverSeparateRoutersLogDistinctSessions) {
  // Each per-thread router numbers its virtual sessions from 1; the op log
  // must still tell the two threads' sessions apart.
  IQServer other;
  ShardedBackend r1({{"a", &server_, 1, {}, {}, {}, {}},
                     {"b", &other, 1, {}, {}, {}, {}}});
  ShardedBackend r2({{"a", &server_, 1, {}, {}, {}, {}},
                     {"b", &other, 1, {}, {}, {}, {}}});
  IQClient c1(r1, Logged());
  IQClient c2(r2, Logged());
  auto s1 = c1.NewSession();
  auto s2 = c2.NewSession();
  EXPECT_EQ(s1->id(), s2->id());
  s1->Commit();
  s2->Commit();
  std::vector<check::OpRecord> ops = log_.Snapshot();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_NE(ops[0].session, ops[1].session);
}

}  // namespace
}  // namespace iq
