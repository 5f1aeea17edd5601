#include <gtest/gtest.h>

#include "core/iq_server.h"
#include "util/clock.h"

namespace iq {
namespace {

IQServer::Config DefaultConfig(const Clock* clock = nullptr,
                               bool deferred_delete = true,
                               Nanos lifetime = 0) {
  IQServer::Config cfg;
  cfg.lease_lifetime = lifetime;
  cfg.deferred_delete = deferred_delete;
  cfg.clock = clock;
  return cfg;
}

class IQServerTest : public ::testing::Test {
 protected:
  IQServerTest() : server_(CacheStore::Config{}, DefaultConfig()) {}
  IQServer server_;
};

// ---- IQget / IQset (I leases) -----------------------------------------------

TEST_F(IQServerTest, GetHitReturnsValue) {
  server_.store().Set("k", "v");
  GetReply r = server_.IQget("k");
  EXPECT_EQ(r.status, GetReply::Status::kHit);
  EXPECT_EQ(r.value, "v");
}

TEST_F(IQServerTest, MissGrantsILease) {
  GetReply r = server_.IQget("k");
  EXPECT_EQ(r.status, GetReply::Status::kMissGrantedI);
  EXPECT_NE(r.token, 0u);
  EXPECT_EQ(server_.LeaseOn("k"), LeaseKind::kInhibit);
}

TEST_F(IQServerTest, SecondMissBacksOff) {
  server_.IQget("k", 1);
  GetReply r = server_.IQget("k", 2);
  EXPECT_EQ(r.status, GetReply::Status::kMissBackoff);
  EXPECT_EQ(server_.Stats().backoffs, 1u);
}

TEST_F(IQServerTest, AtMostOneILeasePerKey) {
  GetReply first = server_.IQget("k", 1);
  GetReply second = server_.IQget("k", 2);
  GetReply third = server_.IQget("k", 3);
  EXPECT_EQ(first.status, GetReply::Status::kMissGrantedI);
  EXPECT_EQ(second.status, GetReply::Status::kMissBackoff);
  EXPECT_EQ(third.status, GetReply::Status::kMissBackoff);
  EXPECT_EQ(server_.Stats().i_granted, 1u);
}

TEST_F(IQServerTest, IQsetWithValidTokenStores) {
  GetReply r = server_.IQget("k");
  EXPECT_EQ(server_.IQset("k", "v", r.token), StoreResult::kStored);
  EXPECT_EQ(server_.IQget("k").value, "v");
  EXPECT_FALSE(server_.LeaseOn("k"));  // lease released
}

TEST_F(IQServerTest, IQsetWithWrongTokenIgnored) {
  GetReply r = server_.IQget("k");
  EXPECT_EQ(server_.IQset("k", "v", r.token + 999), StoreResult::kNotStored);
  EXPECT_EQ(server_.IQget("k", 7).status, GetReply::Status::kMissBackoff);
  EXPECT_GE(server_.Stats().stale_sets_dropped, 1u);
}

TEST_F(IQServerTest, IQsetWithZeroTokenIgnored) {
  EXPECT_EQ(server_.IQset("k", "v", 0), StoreResult::kNotStored);
  EXPECT_FALSE(server_.store().Get("k"));
}

TEST_F(IQServerTest, HitDoesNotGrantLease) {
  server_.store().Set("k", "v");
  server_.IQget("k");
  EXPECT_FALSE(server_.LeaseOn("k"));
}

// ---- QaReg / DaR (invalidate) --------------------------------------------------

TEST_F(IQServerTest, QaRegAlwaysGranted) {
  SessionId t1 = server_.GenID();
  SessionId t2 = server_.GenID();
  EXPECT_EQ(server_.QaReg(t1, "k"), QuarantineResult::kGranted);
  EXPECT_EQ(server_.QaReg(t2, "k"), QuarantineResult::kGranted);  // shared
  EXPECT_EQ(server_.LeaseOn("k"), LeaseKind::kQInvalidate);
}

TEST_F(IQServerTest, QaRegVoidsILease) {
  GetReply reader = server_.IQget("k", 1);
  ASSERT_EQ(reader.status, GetReply::Status::kMissGrantedI);
  SessionId tid = server_.GenID();
  server_.QaReg(tid, "k");
  // The reader's install is now dropped (Section 3.2).
  EXPECT_EQ(server_.IQset("k", "stale", reader.token), StoreResult::kNotStored);
  EXPECT_EQ(server_.Stats().i_voided, 1u);
}

TEST_F(IQServerTest, DeferredDeleteKeepsOldValueVisible) {
  server_.store().Set("k", "old");
  SessionId tid = server_.GenID();
  server_.QaReg(tid, "k");
  // Readers hit the old version: they serialize before the writer
  // (the Section 3.3 re-arrangement window).
  GetReply r = server_.IQget("k", 42);
  EXPECT_EQ(r.status, GetReply::Status::kHit);
  EXPECT_EQ(r.value, "old");
}

TEST_F(IQServerTest, EagerDeleteModeRemovesImmediately) {
  ManualClock clock;
  IQServer server(CacheStore::Config{},
                  DefaultConfig(&clock, /*deferred_delete=*/false));
  server.store().Set("k", "old");
  SessionId tid = server.GenID();
  server.QaReg(tid, "k");
  EXPECT_FALSE(server.store().Get("k"));
  GetReply r = server.IQget("k", 42);
  EXPECT_EQ(r.status, GetReply::Status::kMissBackoff);
}

TEST_F(IQServerTest, OwnQuarantinedKeyReadsAsMissNoLease) {
  server_.store().Set("k", "old");
  SessionId tid = server_.GenID();
  server_.QaReg(tid, "k");
  // The quarantining session must observe its own update via the RDBMS:
  // it gets a miss with no lease and no backoff (Section 3.3).
  GetReply r = server_.IQget("k", tid);
  EXPECT_EQ(r.status, GetReply::Status::kMissNoLease);
}

TEST_F(IQServerTest, DaRDeletesQuarantinedKeysAndReleases) {
  server_.store().Set("a", "1");
  server_.store().Set("b", "2");
  SessionId tid = server_.GenID();
  server_.QaReg(tid, "a");
  server_.QaReg(tid, "b");
  server_.DaR(tid);
  EXPECT_FALSE(server_.store().Get("a"));
  EXPECT_FALSE(server_.store().Get("b"));
  EXPECT_FALSE(server_.LeaseOn("a"));
  EXPECT_FALSE(server_.LeaseOn("b"));
}

TEST_F(IQServerTest, SharedQInvalidateReleasesPerHolder) {
  server_.store().Set("k", "v");
  SessionId t1 = server_.GenID();
  SessionId t2 = server_.GenID();
  server_.QaReg(t1, "k");
  server_.QaReg(t2, "k");
  server_.DaR(t1);
  // t2 still holds: key deleted but lease remains.
  EXPECT_FALSE(server_.store().Get("k"));
  EXPECT_EQ(server_.LeaseOn("k"), LeaseKind::kQInvalidate);
  server_.DaR(t2);
  EXPECT_FALSE(server_.LeaseOn("k"));
}

TEST_F(IQServerTest, AbortLeavesValueInPlace) {
  server_.store().Set("k", "keep");
  SessionId tid = server_.GenID();
  server_.QaReg(tid, "k");
  server_.Abort(tid);
  EXPECT_EQ(server_.store().Get("k")->value, "keep");
  EXPECT_FALSE(server_.LeaseOn("k"));
}

// ---- QaRead / SaR (refresh) -----------------------------------------------------

TEST_F(IQServerTest, QaReadReturnsValueAndToken) {
  server_.store().Set("k", "v");
  QaReadReply r = server_.QaRead("k", 1);
  EXPECT_EQ(r.status, QaReadReply::Status::kGranted);
  EXPECT_EQ(r.value, "v");
  EXPECT_NE(r.token, 0u);
  EXPECT_EQ(server_.LeaseOn("k"), LeaseKind::kQRefresh);
}

TEST_F(IQServerTest, QaReadOnMissGrantsWithNullValue) {
  QaReadReply r = server_.QaRead("k", 1);
  EXPECT_EQ(r.status, QaReadReply::Status::kGranted);
  EXPECT_FALSE(r.value);
}

TEST_F(IQServerTest, SecondQaReadRejected) {
  server_.QaRead("k", 1);
  QaReadReply r = server_.QaRead("k", 2);
  EXPECT_EQ(r.status, QaReadReply::Status::kReject);
  EXPECT_EQ(server_.Stats().q_rejected, 1u);
}

TEST_F(IQServerTest, QaReadIdempotentForSameSession) {
  QaReadReply a = server_.QaRead("k", 1);
  QaReadReply b = server_.QaRead("k", 1);
  EXPECT_EQ(b.status, QaReadReply::Status::kGranted);
  EXPECT_EQ(a.token, b.token);
}

TEST_F(IQServerTest, QaReadVoidsILease) {
  GetReply reader = server_.IQget("k", 1);
  QaReadReply writer = server_.QaRead("k", 2);
  EXPECT_EQ(writer.status, QaReadReply::Status::kGranted);
  EXPECT_EQ(server_.IQset("k", "stale", reader.token), StoreResult::kNotStored);
}

TEST_F(IQServerTest, SaRSwapsValueAndReleases) {
  server_.store().Set("k", "old");
  QaReadReply q = server_.QaRead("k", 1);
  EXPECT_EQ(server_.SaR("k", "new", q.token), StoreResult::kStored);
  EXPECT_EQ(server_.store().Get("k")->value, "new");
  EXPECT_FALSE(server_.LeaseOn("k"));
}

TEST_F(IQServerTest, SaRWithNullReleasesWithoutWriting) {
  server_.store().Set("k", "old");
  QaReadReply q = server_.QaRead("k", 1);
  EXPECT_EQ(server_.SaR("k", std::nullopt, q.token), StoreResult::kStored);
  EXPECT_EQ(server_.store().Get("k")->value, "old");
  EXPECT_FALSE(server_.LeaseOn("k"));
}

TEST_F(IQServerTest, SaRWithStaleTokenIgnored) {
  server_.store().Set("k", "old");
  QaReadReply q = server_.QaRead("k", 1);
  server_.Abort(1);  // releases the lease
  EXPECT_EQ(server_.SaR("k", "new", q.token), StoreResult::kNotFound);
  EXPECT_EQ(server_.store().Get("k")->value, "old");
}

TEST_F(IQServerTest, ReadersHitOldVersionDuringRefreshQuarantine) {
  server_.store().Set("k", "old");
  server_.QaRead("k", 1);
  GetReply r = server_.IQget("k", 99);
  // Section 4.2.2 optimization: the reader consumes the older version and
  // serializes before the writer.
  EXPECT_EQ(r.status, GetReply::Status::kHit);
  EXPECT_EQ(r.value, "old");
}

TEST_F(IQServerTest, QaRegOverRefreshLeaseWins) {
  // Cross-technique: invalidation preempts a refresh lease (deletes are
  // always safe); the refresh session's SaR becomes a no-op.
  server_.store().Set("k", "old");
  QaReadReply q = server_.QaRead("k", 1);
  SessionId tid = server_.GenID();
  EXPECT_EQ(server_.QaReg(tid, "k"), QuarantineResult::kGranted);
  EXPECT_EQ(server_.SaR("k", "refreshed", q.token), StoreResult::kNotFound);
  server_.DaR(tid);
  EXPECT_FALSE(server_.store().Get("k"));
}

// A writer W whose Q(refresh) lease a QaReg voids may already have
// committed its RDBMS transaction: its dropped swap or discarded delta was
// all that would have replaced the old value. So the void deletes the value
// at once, and a read after W's commit must not hit the pre-W version while
// the invalidator is still in flight. Parameter: W updates by delta (true)
// or by QaRead and SaR (false).
class QaRegVoidTest : public IQServerTest,
                      public ::testing::WithParamInterface<bool> {};

TEST_P(QaRegVoidTest, VoidedWritersOldValueIsNotServed) {
  const bool delta = GetParam();
  server_.store().Set("k", "10");
  SessionId w = server_.GenID();
  LeaseToken token = 0;
  if (delta) {
    ASSERT_EQ(server_.IQDelta(w, "k", DeltaOp{DeltaOp::Kind::kIncr, {}, 1}),
              QuarantineResult::kGranted);
  } else {
    QaReadReply q = server_.QaRead("k", w);
    ASSERT_EQ(q.status, QaReadReply::Status::kGranted);
    token = q.token;
  }
  SessionId i = server_.GenID();
  ASSERT_EQ(server_.QaReg(i, "k"), QuarantineResult::kGranted);
  if (!delta) {
    EXPECT_EQ(server_.SaR("k", "11", token), StoreResult::kNotFound);
  }
  server_.Commit(w);
  GetReply during = server_.IQget("k", server_.GenID());
  EXPECT_NE(during.value, "10");
  EXPECT_EQ(during.status, GetReply::Status::kMissBackoff);
  server_.Commit(i);
  GetReply after = server_.IQget("k", server_.GenID());
  EXPECT_EQ(after.status, GetReply::Status::kMissGrantedI);
  EXPECT_EQ(server_.Stats().q_ref_voided, 1u);
}

INSTANTIATE_TEST_SUITE_P(DeltaAndRefresh, QaRegVoidTest, ::testing::Bool());

// ---- IQDelta / Commit / Abort (incremental update) ----------------------------

TEST_F(IQServerTest, DeltasBufferUntilCommit) {
  server_.store().Set("k", "A");
  SessionId tid = server_.GenID();
  server_.IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kAppend, "B", 0});
  server_.IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kAppend, "C", 0});
  EXPECT_EQ(server_.store().Get("k")->value, "A");  // not yet applied
  server_.Commit(tid);
  EXPECT_EQ(server_.store().Get("k")->value, "ABC");
  EXPECT_FALSE(server_.LeaseOn("k"));
}

TEST_F(IQServerTest, DeltaOnMissingKeyIsNoopAtCommit) {
  SessionId tid = server_.GenID();
  server_.IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kAppend, "B", 0});
  server_.Commit(tid);
  EXPECT_FALSE(server_.store().Get("k"));
}

TEST_F(IQServerTest, IncrDecrDeltas) {
  server_.store().Set("n", "10");
  SessionId tid = server_.GenID();
  server_.IQDelta(tid, "n", DeltaOp{DeltaOp::Kind::kIncr, {}, 5});
  server_.IQDelta(tid, "n", DeltaOp{DeltaOp::Kind::kDecr, {}, 2});
  server_.Commit(tid);
  EXPECT_EQ(server_.store().Get("n")->value, "13");
}

TEST_F(IQServerTest, PrependDelta) {
  server_.store().Set("k", "tail");
  SessionId tid = server_.GenID();
  server_.IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kPrepend, "head-", 0});
  server_.Commit(tid);
  EXPECT_EQ(server_.store().Get("k")->value, "head-tail");
}

TEST(IQServerDeltaTest, CommittedDeltaIsAnIncrOrAppendOfTheItem) {
  // A committed delta changes the item as memcached's own incr and append
  // do: flags and expiry stay, and the store counts the verb, not a get
  // plus a set.
  ManualClock clock;
  IQServer server(CacheStore::Config{}, DefaultConfig(&clock));
  constexpr Nanos kTtl = 100 * kNanosPerSec;
  server.store().Set("n", "41", /*flags=*/7, kTtl);
  server.store().Set("s", "ab", /*flags=*/9, kTtl);
  ASSERT_EQ(server.IQDelta(1, "n", DeltaOp{DeltaOp::Kind::kIncr, {}, 1}),
            QuarantineResult::kGranted);
  ASSERT_EQ(server.IQDelta(1, "s", DeltaOp{DeltaOp::Kind::kAppend, "c", 0}),
            QuarantineResult::kGranted);
  const CacheStats before = server.store().Stats();
  server.Commit(1);
  const CacheStats after = server.store().Stats();
  EXPECT_EQ(after.incr_decrs - before.incr_decrs, 1u);
  EXPECT_EQ(after.appends - before.appends, 1u);
  EXPECT_EQ(after.gets - before.gets, 0u);
  EXPECT_EQ(after.get_hits - before.get_hits, 0u);
  EXPECT_EQ(after.sets - before.sets, 0u);
  auto n = server.store().Get("n");
  ASSERT_TRUE(n);
  EXPECT_EQ(n->value, "42");
  EXPECT_EQ(n->flags, 7u);
  auto s = server.store().Get("s");
  ASSERT_TRUE(s);
  EXPECT_EQ(s->value, "abc");
  EXPECT_EQ(s->flags, 9u);
  clock.Advance(kTtl - 1);
  EXPECT_TRUE(server.store().Get("n"));
  clock.Advance(1);
  EXPECT_FALSE(server.store().Get("n"));
  EXPECT_FALSE(server.store().Get("s"));
}

TEST_F(IQServerTest, ConflictingDeltaRejected) {
  SessionId t1 = server_.GenID();
  SessionId t2 = server_.GenID();
  EXPECT_EQ(server_.IQDelta(t1, "k", DeltaOp{DeltaOp::Kind::kAppend, "X", 0}),
            QuarantineResult::kGranted);
  EXPECT_EQ(server_.IQDelta(t2, "k", DeltaOp{DeltaOp::Kind::kAppend, "Y", 0}),
            QuarantineResult::kReject);
}

TEST_F(IQServerTest, SameSessionDeltasShareLease) {
  SessionId tid = server_.GenID();
  EXPECT_EQ(server_.IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kAppend, "X", 0}),
            QuarantineResult::kGranted);
  EXPECT_EQ(server_.IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kAppend, "Y", 0}),
            QuarantineResult::kGranted);
}

TEST_F(IQServerTest, AbortDiscardsDeltas) {
  server_.store().Set("k", "A");
  SessionId tid = server_.GenID();
  server_.IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kAppend, "B", 0});
  server_.Abort(tid);
  EXPECT_EQ(server_.store().Get("k")->value, "A");
  EXPECT_FALSE(server_.LeaseOn("k"));
}

TEST_F(IQServerTest, HolderSeesOwnPendingDeltas) {
  server_.store().Set("k", "A");
  SessionId tid = server_.GenID();
  server_.IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kAppend, "B", 0});
  GetReply own = server_.IQget("k", tid);
  EXPECT_EQ(own.status, GetReply::Status::kHit);
  EXPECT_EQ(own.value, "AB");  // Section 4.2.2 own-update visibility
  GetReply other = server_.IQget("k", 9999);
  EXPECT_EQ(other.value, "A");  // others still see the old version
}

TEST_F(IQServerTest, DeltaVoidsILease) {
  GetReply reader = server_.IQget("k", 1);
  SessionId tid = server_.GenID();
  server_.IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kAppend, "B", 0});
  EXPECT_EQ(server_.IQset("k", "stale", reader.token), StoreResult::kNotStored);
}

TEST_F(IQServerTest, QaReadAfterDeltaSeesOwnPendingDeltas) {
  // Delta first, then the same session re-reads via QaRead: the reply must
  // replay the buffered deltas (Section 4.2.2 own-update visibility), not
  // return the pre-delta store value.
  server_.store().Set("k", "A");
  SessionId tid = server_.GenID();
  server_.IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kAppend, "B", 0});
  QaReadReply r = server_.QaRead("k", tid);
  ASSERT_EQ(r.status, QaReadReply::Status::kGranted);
  ASSERT_TRUE(r.value);
  EXPECT_EQ(*r.value, "AB");
  // Other sessions still see the committed version through IQget.
  EXPECT_EQ(server_.IQget("k", 9999).value, "A");
}

TEST_F(IQServerTest, QaReadReacquisitionSeesOwnPendingDeltas) {
  // QaRead first (taking the Q lease), deltas buffered after, then the
  // idempotent re-acquisition: same rule, other order.
  server_.store().Set("k", "A");
  SessionId tid = server_.GenID();
  QaReadReply first = server_.QaRead("k", tid);
  ASSERT_EQ(first.status, QaReadReply::Status::kGranted);
  EXPECT_EQ(*first.value, "A");
  server_.IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kAppend, "B", 0});
  server_.IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kAppend, "C", 0});
  QaReadReply again = server_.QaRead("k", tid);
  ASSERT_EQ(again.status, QaReadReply::Status::kGranted);
  EXPECT_EQ(again.token, first.token);
  ASSERT_TRUE(again.value);
  EXPECT_EQ(*again.value, "ABC");
}

// ---- expiry -------------------------------------------------------------------

class IQServerExpiryTest : public ::testing::Test {
 protected:
  IQServerExpiryTest()
      : server_(CacheStore::Config{.shard_count = 4,
                                   .memory_budget_bytes = 0,
                                   .clock = &clock_},
                DefaultConfig(&clock_, true, 1000)) {}
  ManualClock clock_;
  IQServer server_;
};

TEST_F(IQServerExpiryTest, ExpiredILeaseVacates) {
  GetReply r = server_.IQget("k", 1);
  ASSERT_EQ(r.status, GetReply::Status::kMissGrantedI);
  clock_.Advance(1000);
  // A new reader may now take the I lease.
  GetReply r2 = server_.IQget("k", 2);
  EXPECT_EQ(r2.status, GetReply::Status::kMissGrantedI);
  // The original holder's install is dropped (different token).
  EXPECT_EQ(server_.IQset("k", "v", r.token), StoreResult::kNotStored);
  EXPECT_GE(server_.Stats().leases_expired, 1u);
}

TEST_F(IQServerExpiryTest, ExpiredQLeaseDeletesKey) {
  server_.store().Set("k", "v");
  server_.QaRead("k", 1);
  clock_.Advance(1000);
  GetReply r = server_.IQget("k", 2);
  // The key died with the lease: a fresh I lease is granted to recompute.
  EXPECT_EQ(r.status, GetReply::Status::kMissGrantedI);
  EXPECT_EQ(server_.Stats().expiry_deletes, 1u);
}

TEST_F(IQServerExpiryTest, ExpiredQInvalidateDeletesKey) {
  server_.store().Set("k", "v");
  SessionId tid = server_.GenID();
  server_.QaReg(tid, "k");
  clock_.Advance(1000);
  EXPECT_FALSE(server_.LeaseOn("k"));
  EXPECT_FALSE(server_.store().Get("k"));
}

TEST_F(IQServerExpiryTest, SaRAfterExpiryIgnored) {
  server_.store().Set("k", "old");
  QaReadReply q = server_.QaRead("k", 1);
  clock_.Advance(1000);
  EXPECT_EQ(server_.SaR("k", "late", q.token), StoreResult::kNotFound);
  EXPECT_FALSE(server_.store().Get("k"));  // deleted by expiry
}

TEST_F(IQServerExpiryTest, UnexpiredLeaseStillEnforced) {
  server_.QaRead("k", 1);
  clock_.Advance(999);
  EXPECT_EQ(server_.QaRead("k", 2).status, QaReadReply::Status::kReject);
}

TEST_F(IQServerExpiryTest, SweepExpiredReclaimsIdleLeases) {
  server_.store().Set("a", "1");
  server_.store().Set("b", "2");
  server_.QaRead("a", 1);
  server_.QaReg(2, "b");
  server_.IQget("c", 3);  // I lease
  EXPECT_EQ(server_.LeaseCount(), 3u);
  clock_.Advance(1000);
  // Nothing touches the keys: lazy expiry alone would leave all three.
  EXPECT_EQ(server_.SweepExpired(), 3u);
  EXPECT_EQ(server_.LeaseCount(), 0u);
  // Q-leased keys died with their leases; the I-leased key never existed.
  EXPECT_FALSE(server_.store().Get("a"));
  EXPECT_FALSE(server_.store().Get("b"));
}

TEST_F(IQServerExpiryTest, SweepLeavesLiveLeasesAlone) {
  server_.QaRead("a", 1);
  clock_.Advance(999);
  EXPECT_EQ(server_.SweepExpired(), 0u);
  EXPECT_EQ(server_.LeaseOn("a"), LeaseKind::kQRefresh);
}

TEST_F(IQServerExpiryTest, SweepOnEmptyServerIsZero) {
  EXPECT_EQ(server_.SweepExpired(), 0u);
}

TEST_F(IQServerExpiryTest, QaReadReacquisitionExtendsLease) {
  // Every holder touch renews the deadline: a session alive at t=600 must
  // not lose its lease at t=1000 just because it was granted at t=0.
  server_.store().Set("k", "v");
  ASSERT_EQ(server_.QaRead("k", 1).status, QaReadReply::Status::kGranted);
  clock_.Advance(600);
  ASSERT_EQ(server_.QaRead("k", 1).status, QaReadReply::Status::kGranted);
  clock_.Advance(600);  // t=1200, past the original deadline of 1000
  EXPECT_EQ(server_.QaRead("k", 2).status, QaReadReply::Status::kReject);
  EXPECT_EQ(server_.Stats().leases_expired, 0u);
  EXPECT_TRUE(server_.store().Get("k"));
}

TEST_F(IQServerExpiryTest, BufferedDeltaExtendsLease) {
  server_.store().Set("k", "A");
  server_.IQDelta(1, "k", DeltaOp{DeltaOp::Kind::kAppend, "B", 0});
  clock_.Advance(600);
  server_.IQDelta(1, "k", DeltaOp{DeltaOp::Kind::kAppend, "C", 0});
  clock_.Advance(600);  // t=1200: lease renewed at 600, deadline 1600
  EXPECT_EQ(server_.LeaseOn("k"), LeaseKind::kQRefresh);
  server_.Commit(1);
  EXPECT_EQ(server_.store().Get("k")->value, "ABC");
  EXPECT_EQ(server_.Stats().expiry_deletes, 0u);
}

TEST_F(IQServerExpiryTest, OwnHolderGetExtendsLease) {
  server_.store().Set("k", "A");
  server_.IQDelta(1, "k", DeltaOp{DeltaOp::Kind::kAppend, "B", 0});
  clock_.Advance(600);
  // The holder's own-update read is a touch too.
  EXPECT_EQ(server_.IQget("k", 1).value, "AB");
  clock_.Advance(600);
  EXPECT_EQ(server_.LeaseOn("k"), LeaseKind::kQRefresh);
}

TEST_F(IQServerExpiryTest, SharedQaRegExtendsLease) {
  server_.store().Set("k", "v");
  server_.QaReg(1, "k");
  clock_.Advance(600);
  server_.QaReg(2, "k");  // sharing renews the deadline for both holders
  clock_.Advance(600);
  EXPECT_EQ(server_.LeaseOn("k"), LeaseKind::kQInvalidate);
}

TEST_F(IQServerExpiryTest, ReleaseOfExpiredLeaseTakesExpiryPath) {
  // A release arriving after the deadline must account the lease as
  // expired (and delete the Q-leased key), not silently drop it as if the
  // session had finished in time.
  server_.store().Set("k", "v");
  ASSERT_EQ(server_.QaRead("k", 1).status, QaReadReply::Status::kGranted);
  clock_.Advance(1000);
  server_.ReleaseKey(1, "k");
  EXPECT_EQ(server_.Stats().leases_expired, 1u);
  EXPECT_EQ(server_.Stats().expiry_deletes, 1u);
  EXPECT_FALSE(server_.store().Get("k"));
  EXPECT_FALSE(server_.LeaseOn("k"));
}

// ---- misc -----------------------------------------------------------------------

TEST_F(IQServerTest, GenIDsAreUnique) {
  SessionId a = server_.GenID();
  SessionId b = server_.GenID();
  EXPECT_NE(a, b);
}

TEST_F(IQServerTest, ReleaseKeyDropsSingleLease) {
  SessionId tid = server_.GenID();
  server_.QaRead("a", tid);
  server_.QaRead("b", tid);
  server_.ReleaseKey(tid, "a");
  EXPECT_FALSE(server_.LeaseOn("a"));
  EXPECT_EQ(server_.LeaseOn("b"), LeaseKind::kQRefresh);
}

TEST_F(IQServerTest, DeleteVoidRemovesValueAndILease) {
  server_.store().Set("k", "v");
  server_.IQget("k2", 1);  // I lease on k2
  EXPECT_TRUE(server_.DeleteVoid("k"));
  EXPECT_FALSE(server_.store().Get("k"));
  GetReply r = server_.IQget("k2", 1);
  (void)r;
  server_.DeleteVoid("k2");
  EXPECT_FALSE(server_.LeaseOn("k2"));
}

TEST_F(IQServerTest, CommitIsIdempotent) {
  server_.store().Set("k", "v");
  SessionId tid = server_.GenID();
  server_.QaReg(tid, "k");
  server_.Commit(tid);
  server_.Commit(tid);  // second commit finds nothing registered
  EXPECT_FALSE(server_.LeaseOn("k"));
}

TEST_F(IQServerTest, StatsCountCommitsAndAborts) {
  SessionId t1 = server_.GenID();
  server_.QaReg(t1, "k");
  server_.Commit(t1);
  SessionId t2 = server_.GenID();
  server_.QaReg(t2, "k");
  server_.Abort(t2);
  auto stats = server_.Stats();
  EXPECT_GE(stats.commits, 1u);
  EXPECT_GE(stats.aborts, 1u);
  EXPECT_EQ(stats.q_inv_granted, 2u);
}

// ---- compatibility matrices (Figure 5), parameterized -------------------------

enum class Existing { kNone, kI, kQInv, kQRef };

struct MatrixCase {
  Existing existing;
  // Expected outcomes for each requested lease from a DIFFERENT session:
  GetReply::Status get_status;          // requesting I via IQget (cold key)
  QuarantineResult qareg_result;        // requesting Q-invalidate
  QaReadReply::Status qaread_status;    // requesting Q-refresh
};

class CompatibilityMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(CompatibilityMatrixTest, MatchesFigure5) {
  const MatrixCase& c = GetParam();

  auto make_server = [] {
    return std::make_unique<IQServer>(CacheStore::Config{}, DefaultConfig());
  };
  constexpr SessionId kHolder = 100;
  constexpr SessionId kRequester = 200;
  auto install_existing = [&](IQServer& s) {
    switch (c.existing) {
      case Existing::kNone: break;
      case Existing::kI: s.IQget("k", kHolder); break;
      case Existing::kQInv: s.QaReg(kHolder, "k"); break;
      case Existing::kQRef: s.QaRead("k", kHolder); break;
    }
  };

  {
    auto s = make_server();
    install_existing(*s);
    EXPECT_EQ(s->IQget("k", kRequester).status, c.get_status);
  }
  {
    auto s = make_server();
    install_existing(*s);
    EXPECT_EQ(s->QaReg(kRequester, "k"), c.qareg_result);
  }
  {
    auto s = make_server();
    install_existing(*s);
    EXPECT_EQ(s->QaRead("k", kRequester).status, c.qaread_status);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Figure5, CompatibilityMatrixTest,
    ::testing::Values(
        // No existing lease: I granted, Q granted, Q-refresh granted.
        MatrixCase{Existing::kNone, GetReply::Status::kMissGrantedI,
                   QuarantineResult::kGranted, QaReadReply::Status::kGranted},
        // Existing I: reader backs off; writers void it and proceed.
        MatrixCase{Existing::kI, GetReply::Status::kMissBackoff,
                   QuarantineResult::kGranted, QaReadReply::Status::kGranted},
        // Existing Q-invalidate: reader backs off (cold key); QaReg shares;
        // QaRead is rejected (Figure 5b: abort requester).
        MatrixCase{Existing::kQInv, GetReply::Status::kMissBackoff,
                   QuarantineResult::kGranted, QaReadReply::Status::kReject},
        // Existing Q-refresh: reader backs off (cold key); QaReg voids it
        // (delete always safe); QaRead rejected.
        MatrixCase{Existing::kQRef, GetReply::Status::kMissBackoff,
                   QuarantineResult::kGranted, QaReadReply::Status::kReject}));

// ---- restarts: ids and tokens never repeat across incarnations ------------

TEST(IQServerRestartTest, PreRestartSessionIdIsRejectedWhileAnotherHolds) {
  // Clients keep their session ids across a reconnect. A restarted server
  // that re-issued an old id would treat the old holder's QaRead as the new
  // session's idempotent re-acquisition: two writers on one Q lease.
  SessionId old_id = 0;
  {
    IQServer before;
    old_id = before.GenID();
  }
  IQServer after;
  after.store().Set("k", "v");
  SessionId fresh = after.GenID();
  EXPECT_NE(fresh, old_id);
  ASSERT_EQ(after.QaRead("k", fresh).status, QaReadReply::Status::kGranted);
  EXPECT_EQ(after.QaRead("k", old_id).status, QaReadReply::Status::kReject);
}

TEST(IQServerRestartTest, PreRestartTokenDoesNotInstall) {
  LeaseToken old_token = 0;
  {
    IQServer before;
    GetReply miss = before.IQget("k", before.GenID());
    ASSERT_EQ(miss.status, GetReply::Status::kMissGrantedI);
    old_token = miss.token;
  }
  IQServer after;
  GetReply miss = after.IQget("k", after.GenID());
  ASSERT_EQ(miss.status, GetReply::Status::kMissGrantedI);
  EXPECT_EQ(after.IQset("k", "computed before the restart", old_token),
            StoreResult::kNotStored);
  EXPECT_EQ(after.IQset("k", "fresh", miss.token), StoreResult::kStored);
}

// ---- every lease transition, pinned ------------------------------------------
//
// One scripted run through each transition the server performs, on a
// one-shard store so the trace ring holds its events in program order. Each
// step pins the exact (kind, session, key) events it records, and the run
// ends by pinning all 13 counters. The sessions are fixed numbers, not GenID
// results, so the expected events are literal.

struct PinnedEvent {
  LeaseTraceKind kind;
  SessionId session;
  std::string key;
};

class TransitionPinTest : public ::testing::Test {
 protected:
  static constexpr Nanos kLifetime = 10 * kNanosPerSec;
  static constexpr Nanos kValidity = kNanosPerSec;

  static IQServer::Config PinConfig(const Clock* clock, bool deferred) {
    IQServer::Config cfg = DefaultConfig(clock, deferred, kLifetime);
    cfg.near_validity = kValidity;
    return cfg;
  }

  explicit TransitionPinTest(bool deferred = true)
      : clock_(1000 * kNanosPerSec),
        server_(CacheStore::Config{.shard_count = 1},
                PinConfig(&clock_, deferred)) {}

  /// The events recorded since the last call are exactly `want`.
  void ExpectEvents(const std::vector<PinnedEvent>& want) {
    std::vector<std::string> expected;
    for (const PinnedEvent& e : want) {
      keys_.push_back(e.key);
      expected.push_back(Describe(e.kind, e.session, TraceKeyHash(e.key)));
    }
    const std::vector<TraceEvent> all = server_.TraceSnapshot(4096);
    ASSERT_GE(all.size(), seen_);
    std::vector<std::string> got;
    for (std::size_t i = seen_; i < all.size(); ++i) {
      got.push_back(Describe(all[i].kind, all[i].session, all[i].key_hash));
    }
    seen_ = all.size();
    EXPECT_EQ(got, expected);
  }

  std::string Describe(LeaseTraceKind kind, SessionId session,
                       std::uint64_t key_hash) const {
    std::string key = "#";
    key.append(std::to_string(key_hash));
    for (const std::string& k : keys_) {
      if (TraceKeyHash(k) == key_hash) key = k;
    }
    std::string out = ToString(kind);
    out.append(" s").append(std::to_string(session)).append(" ").append(key);
    return out;
  }

  void ExpectStats(const IQServerStats& want) {
    const IQServerStats got = server_.Stats();
    for (const IQStatsField& f : kIQStatsFields) {
      EXPECT_EQ(got.*f.member, want.*f.member) << f.name;
    }
  }

  ManualClock clock_;
  IQServer server_;
  std::size_t seen_ = 0;
  std::vector<std::string> keys_;
};

using LT = LeaseTraceKind;
using GS = GetReply::Status;
using QS = QaReadReply::Status;

TEST_F(TransitionPinTest, EveryTransition) {
  // -- I leases: grant, back-off, install, stale drop.
  GetReply i1 = server_.IQget("i1", 1);
  ASSERT_EQ(i1.status, GS::kMissGrantedI);
  EXPECT_EQ(server_.IQget("i1", 2).status, GS::kMissBackoff);
  EXPECT_EQ(server_.IQset("i1", "v", i1.token), StoreResult::kStored);
  EXPECT_EQ(server_.IQset("i1", "v2", i1.token), StoreResult::kNotStored);
  ExpectEvents({{LT::kIGrant, 1, "i1"}, {LT::kRelease, 1, "i1"}});

  // -- I void by QaRead; the voided install drops; the swap releases.
  GetReply i2 = server_.IQget("i2", 3);
  QaReadReply q20 = server_.QaRead("i2", 20);
  ASSERT_EQ(q20.status, QS::kGranted);
  EXPECT_FALSE(q20.value);
  EXPECT_EQ(server_.IQset("i2", "x", i2.token), StoreResult::kNotStored);
  EXPECT_EQ(server_.SaR("i2", "w", q20.token), StoreResult::kStored);
  ExpectEvents({{LT::kIGrant, 3, "i2"},
                {LT::kIVoid, 3, "i2"},
                {LT::kQRefGrant, 20, "i2"},
                {LT::kRelease, 20, "i2"}});

  // -- I void by QaReg, then the quarantine commits.
  server_.IQget("i3", 4);
  EXPECT_EQ(server_.QaReg(21, "i3"), QuarantineResult::kGranted);
  server_.Commit(21);
  ExpectEvents({{LT::kIGrant, 4, "i3"},
                {LT::kIVoid, 4, "i3"},
                {LT::kQInvGrant, 21, "i3"},
                {LT::kCommit, 21, "i3"}});

  // -- I void by IQDelta, then the delta session aborts.
  server_.IQget("i4", 5);
  EXPECT_EQ(server_.IQDelta(22, "i4", DeltaOp{DeltaOp::Kind::kAppend, "z", 0}),
            QuarantineResult::kGranted);
  server_.Abort(22);
  ExpectEvents({{LT::kIGrant, 5, "i4"},
                {LT::kIVoid, 5, "i4"},
                {LT::kQRefGrant, 22, "i4"},
                {LT::kAbort, 22, "i4"}});

  // -- I void by DeleteVoid.
  server_.IQget("i5", 6);
  EXPECT_FALSE(server_.DeleteVoid("i5"));
  ExpectEvents({{LT::kIGrant, 6, "i5"}, {LT::kIVoid, 6, "i5"}});

  // -- Q(refresh): grant, buffered delta, re-acquire and own-update read
  //    (both replay the delta), foreign hit on the old value, two rejects,
  //    commit.
  server_.store().Set("r1", "10");
  QaReadReply q30 = server_.QaRead("r1", 30);
  ASSERT_EQ(q30.status, QS::kGranted);
  EXPECT_EQ(q30.value, "10");
  EXPECT_EQ(server_.IQDelta(30, "r1", DeltaOp{DeltaOp::Kind::kIncr, {}, 5}),
            QuarantineResult::kGranted);
  QaReadReply again = server_.QaRead("r1", 30);
  EXPECT_EQ(again.token, q30.token);
  EXPECT_EQ(again.value, "15");
  EXPECT_EQ(server_.IQget("r1", 30).value, "15");
  EXPECT_EQ(server_.IQget("r1", 31).value, "10");
  EXPECT_EQ(server_.QaRead("r1", 31).status, QS::kReject);
  EXPECT_EQ(server_.IQDelta(31, "r1", DeltaOp{DeltaOp::Kind::kDecr, {}, 1}),
            QuarantineResult::kReject);
  server_.Commit(30);
  EXPECT_EQ(server_.store().Get("r1")->value, "15");
  ExpectEvents({{LT::kQRefGrant, 30, "r1"},
                {LT::kReject, 31, "r1"},
                {LT::kReject, 31, "r1"},
                {LT::kCommit, 30, "r1"}});

  // -- Q(refresh) on a missing key: a foreign reader backs off; abort.
  EXPECT_FALSE(server_.QaRead("r2", 32).value);
  EXPECT_EQ(server_.IQget("r2", 33).status, GS::kMissBackoff);
  server_.Abort(32);
  ExpectEvents({{LT::kQRefGrant, 32, "r2"}, {LT::kAbort, 32, "r2"}});

  // -- Q(refresh) expiry deletes the key; the late swap drops.
  server_.store().Set("r3", "v");
  QaReadReply q34 = server_.QaRead("r3", 34);
  clock_.Advance(kLifetime);
  EXPECT_EQ(server_.SaR("r3", "late", q34.token), StoreResult::kNotFound);
  EXPECT_FALSE(server_.store().Get("r3"));
  ExpectEvents({{LT::kQRefGrant, 34, "r3"}, {LT::kExpireDelete, 34, "r3"}});

  // -- Q(invalidate): grant, share, the holder's own miss, a foreign hit on
  //    the old value, one holder aborts, the other commits the delete.
  server_.store().Set("v1", "old");
  EXPECT_EQ(server_.QaReg(40, "v1"), QuarantineResult::kGranted);
  EXPECT_EQ(server_.QaReg(41, "v1"), QuarantineResult::kGranted);
  EXPECT_EQ(server_.IQget("v1", 40).status, GS::kMissNoLease);
  EXPECT_EQ(server_.IQget("v1", 42).value, "old");
  server_.Abort(41);
  EXPECT_TRUE(server_.store().Get("v1"));
  server_.Commit(40);
  EXPECT_FALSE(server_.store().Get("v1"));
  ExpectEvents({{LT::kQInvGrant, 40, "v1"},
                {LT::kQInvGrant, 41, "v1"},
                {LT::kAbort, 41, "v1"},
                {LT::kCommit, 40, "v1"}});

  // -- Q(invalidate) release; a foreign reader of a missing quarantined key
  //    backs off; DaR commits.
  server_.QaReg(43, "v2");
  server_.ReleaseKey(43, "v2");
  server_.QaReg(45, "v3");
  EXPECT_EQ(server_.IQget("v3", 46).status, GS::kMissBackoff);
  server_.DaR(45);
  ExpectEvents({{LT::kQInvGrant, 43, "v2"},
                {LT::kRelease, 43, "v2"},
                {LT::kQInvGrant, 45, "v3"},
                {LT::kCommit, 45, "v3"}});

  // -- The cross-technique void: QaReg voids a Q(refresh) and deletes now;
  //    the voided swap drops and its session's commit finds nothing.
  server_.store().Set("x1", "old");
  QaReadReply q50 = server_.QaRead("x1", 50);
  server_.QaReg(51, "x1");
  EXPECT_FALSE(server_.store().Get("x1"));
  EXPECT_EQ(server_.SaR("x1", "new", q50.token), StoreResult::kNotFound);
  server_.Commit(51);
  server_.Commit(50);
  ExpectEvents({{LT::kQRefGrant, 50, "x1"},
                {LT::kQRefVoid, 50, "x1"},
                {LT::kQInvGrant, 51, "x1"},
                {LT::kCommit, 51, "x1"}});

  // -- ReleaseKey on a Q(refresh) and on an I lease.
  server_.QaRead("x2", 52);
  server_.ReleaseKey(52, "x2");
  server_.IQget("x3", 53);
  server_.ReleaseKey(53, "x3");
  EXPECT_FALSE(server_.LeaseOn("x3"));
  ExpectEvents({{LT::kQRefGrant, 52, "x2"},
                {LT::kRelease, 52, "x2"},
                {LT::kIGrant, 53, "x3"},
                {LT::kRelease, 53, "x3"}});

  // -- SweepExpired: an I lease expires; later a Q(invalidate) expires with
  //    its key while a younger lease stays. One overdue lease per sweep, so
  //    the order of the lease map does not show.
  server_.IQget("e1", 60);
  clock_.Advance(kLifetime);
  server_.store().Set("e2", "v");
  server_.QaReg(61, "e2");
  EXPECT_EQ(server_.SweepExpired(), 1u);
  clock_.Advance(kLifetime / 2);
  server_.QaRead("e3", 62);
  clock_.Advance(kLifetime / 2);
  EXPECT_EQ(server_.SweepExpired(), 1u);
  EXPECT_FALSE(server_.store().Get("e2"));
  server_.Abort(62);
  server_.Commit(61);
  ExpectEvents({{LT::kIGrant, 60, "e1"},
                {LT::kQInvGrant, 61, "e2"},
                {LT::kExpire, 60, "e1"},
                {LT::kQRefGrant, 62, "e3"},
                {LT::kExpireDelete, 0, "e2"},
                {LT::kAbort, 62, "e3"}});

  // -- The holdover under near_validity (DESIGN.md §4.10): a clean hit
  //    grants validity, so the committed delete waits for it to lapse. The
  //    old value stays readable, a joining holder re-lives the entry and
  //    its abort keeps the pending delete, and the lapse reclaims the entry
  //    silently.
  server_.store().Set("h1", "old");
  GetReply hit = server_.IQget("h1", 70);
  EXPECT_EQ(hit.validity, kValidity);
  server_.QaReg(71, "h1");
  server_.Commit(71);
  EXPECT_EQ(server_.IQget("h1", 72).value, "old");
  EXPECT_EQ(server_.IQget("h1", 72).validity, 0);
  server_.QaReg(73, "h1");
  server_.Abort(73);
  EXPECT_EQ(server_.LeaseOn("h1"), LeaseKind::kQInvalidate);
  clock_.Advance(kValidity);
  EXPECT_FALSE(server_.LeaseOn("h1"));
  EXPECT_FALSE(server_.store().Get("h1"));
  ExpectEvents({{LT::kQInvGrant, 71, "h1"},
                {LT::kCommit, 71, "h1"},
                {LT::kQInvGrant, 73, "h1"},
                {LT::kAbort, 73, "h1"}});

  // -- A holdover whose grants lapse while a joined holder remains: that
  //    holder's release, or abort, performs the pending delete.
  for (SessionId s : {80, 82}) {
    const std::string key = s == 80 ? "h2" : "h3";
    server_.store().Set(key, "old");
    server_.IQget(key, 79);
    server_.QaReg(s, key);
    server_.Commit(s);
    server_.QaReg(s + 1, key);
    clock_.Advance(kValidity);
    EXPECT_TRUE(server_.store().Get(key));
    if (s == 80) {
      server_.ReleaseKey(s + 1, key);
    } else {
      server_.Abort(s + 1);
    }
    EXPECT_FALSE(server_.store().Get(key));
    EXPECT_FALSE(server_.LeaseOn(key));
  }
  ExpectEvents({{LT::kQInvGrant, 80, "h2"},
                {LT::kCommit, 80, "h2"},
                {LT::kQInvGrant, 81, "h2"},
                {LT::kRelease, 81, "h2"},
                {LT::kQInvGrant, 82, "h3"},
                {LT::kCommit, 82, "h3"},
                {LT::kQInvGrant, 83, "h3"},
                {LT::kAbort, 83, "h3"}});

  // -- Two holders under a live grant: the first commit leaves the delete
  //    pending behind the second holder, the second starts the holdover,
  //    and SweepExpired reclaims it silently once the grant lapses.
  server_.store().Set("h4", "old");
  server_.IQget("h4", 89);
  server_.QaReg(90, "h4");
  server_.QaReg(91, "h4");
  server_.Commit(90);
  server_.Commit(91);
  EXPECT_TRUE(server_.store().Get("h4"));
  clock_.Advance(kValidity);
  EXPECT_EQ(server_.SweepExpired(), 1u);
  EXPECT_FALSE(server_.store().Get("h4"));
  ExpectEvents({{LT::kQInvGrant, 90, "h4"},
                {LT::kQInvGrant, 91, "h4"},
                {LT::kCommit, 90, "h4"},
                {LT::kCommit, 91, "h4"}});

  EXPECT_EQ(server_.LeaseCount(), 0u);
  IQServerStats want;
  want.i_granted = 7;
  want.i_voided = 4;
  want.q_ref_voided = 1;
  want.backoffs = 3;
  want.stale_sets_dropped = 4;
  want.q_inv_granted = 15;
  want.q_ref_granted = 8;
  want.q_rejected = 2;
  want.leases_expired = 3;
  want.expiry_deletes = 2;
  want.commits = 12;
  want.aborts = 6;
  want.near_grants = 4;
  ExpectStats(want);
}

// The same grants under eager delete: QaReg removes the value at once, in
// both its grant and its share, and a foreign reader backs off.
class EagerTransitionPinTest : public TransitionPinTest {
 protected:
  EagerTransitionPinTest() : TransitionPinTest(/*deferred=*/false) {}
};

TEST_F(EagerTransitionPinTest, QuarantineDeletesAtOnce) {
  server_.store().Set("k", "old");
  server_.QaReg(1, "k");
  EXPECT_FALSE(server_.store().Get("k"));
  server_.store().Set("k", "again");
  server_.QaReg(2, "k");
  EXPECT_FALSE(server_.store().Get("k"));
  EXPECT_EQ(server_.IQget("k", 3).status, GS::kMissBackoff);
  server_.store().Set("r", "old");
  server_.QaRead("r", 4);
  EXPECT_EQ(server_.IQget("r", 5).status, GS::kMissBackoff);
  server_.Commit(1);
  server_.Abort(2);
  server_.Commit(4);
  ExpectEvents({{LT::kQInvGrant, 1, "k"},
                {LT::kQInvGrant, 2, "k"},
                {LT::kQRefGrant, 4, "r"},
                {LT::kCommit, 1, "k"},
                {LT::kAbort, 2, "k"},
                {LT::kCommit, 4, "r"}});
  IQServerStats want;
  want.backoffs = 2;
  want.q_inv_granted = 2;
  want.q_ref_granted = 1;
  want.commits = 2;
  want.aborts = 1;
  ExpectStats(want);
}

}  // namespace
}  // namespace iq
