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

}  // namespace
}  // namespace iq
