#include "core/iq_server.h"
#include <gtest/gtest.h>

#include "bg/actions.h"
#include "bg/codec.h"
#include "bg/social_graph.h"
#include "bg/validation.h"
#include "bg/workload.h"
#include "core/sharded_backend.h"

namespace iq::bg {
namespace {

// ---- codecs ------------------------------------------------------------------

TEST(Codec, ProfileRoundTrip) {
  ProfileValue p{"alice", 7, 3};
  auto decoded = DecodeProfile(EncodeProfile(p));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->name, "alice");
  EXPECT_EQ(decoded->friend_count, 7);
  EXPECT_EQ(decoded->pending_count, 3);
}

TEST(Codec, ProfileWithEmptyName) {
  auto decoded = DecodeProfile(EncodeProfile({"", 0, 0}));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->name, "");
}

TEST(Codec, ProfileDecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeProfile(""));
  EXPECT_FALSE(DecodeProfile("no-pipes"));
  EXPECT_FALSE(DecodeProfile("a|b|c"));
  EXPECT_FALSE(DecodeProfile("a|1"));
}

TEST(Codec, IdListRoundTrip) {
  std::set<MemberId> ids{5, 1, 9};
  EXPECT_EQ(EncodeIdList(ids), "1,5,9");
  EXPECT_EQ(DecodeIdList("1,5,9"), ids);
  EXPECT_TRUE(DecodeIdList("").empty());
}

TEST(Codec, IdListAddRemove) {
  std::string list = EncodeIdList({1, 2});
  list = IdListAdd(list, 3);
  EXPECT_EQ(list, "1,2,3");
  list = IdListAdd(list, 2);  // idempotent
  EXPECT_EQ(list, "1,2,3");
  list = IdListRemove(list, 1);
  EXPECT_EQ(list, "2,3");
  list = IdListRemove(list, 99);  // absent: no-op
  EXPECT_EQ(list, "2,3");
}

TEST(Codec, KeyBuildersAreDistinct) {
  EXPECT_EQ(ProfileKey(5), "Profile:{5}");
  EXPECT_EQ(FriendsKey(5), "Friends:{5}");
  EXPECT_EQ(PendingKey(5), "Pending:{5}");
  EXPECT_EQ(TopKKey(5), "TopK:5");
  EXPECT_EQ(CommentsKey(5), "Comments:5");
  EXPECT_EQ(PendingCountKey(5), "PC:{5}");
  EXPECT_EQ(FriendCountKey(5), "FC:{5}");
}

// ---- graph loader ---------------------------------------------------------------

TEST(SocialGraph, InitialFriendsFormRing) {
  GraphConfig g{100, 4, 1, 1};
  auto friends = InitialFriends(g, 0);
  EXPECT_EQ(friends, (std::set<MemberId>{1, 2, 98, 99}));
  // Symmetry: if b is a's friend, a is b's friend.
  for (MemberId f : friends) {
    EXPECT_TRUE(InitialFriends(g, f).contains(0));
  }
}

TEST(SocialGraph, LoaderPopulatesAllTables) {
  sql::Database db;
  CreateBgTables(db);
  GraphConfig g{50, 4, 2, 3};
  LoadGraph(db, g);
  auto txn = db.Begin();
  EXPECT_EQ(txn->SelectAll("Users").size(), 50u);
  EXPECT_EQ(txn->SelectAll("Friendship").size(), 50u * 4);  // both directions
  EXPECT_EQ(txn->SelectAll("Resources").size(), 100u);
  EXPECT_EQ(txn->SelectAll("Manipulation").size(), 300u);
}

TEST(SocialGraph, LoadedCountsMatchInitialFriends) {
  sql::Database db;
  CreateBgTables(db);
  GraphConfig g{30, 6, 1, 1};
  LoadGraph(db, g);
  auto txn = db.Begin();
  auto row = txn->SelectByPk("Users", {sql::V(7)});
  ASSERT_TRUE(row);
  EXPECT_EQ(*sql::AsInt((*row)[3]),
            static_cast<std::int64_t>(InitialFriends(g, 7).size()));
  EXPECT_EQ(*sql::AsInt((*row)[2]), 0);  // no pending invitations initially
}

TEST(PairPoolTest, AddTakeRoundTrip) {
  PairPool pool;
  Rng rng(1);
  EXPECT_FALSE(pool.TakeRandom(rng));
  pool.Add(1, 2);
  pool.Add(3, 4);
  EXPECT_EQ(pool.Size(), 2u);
  auto a = pool.TakeRandom(rng);
  auto b = pool.TakeRandom(rng);
  ASSERT_TRUE(a && b);
  EXPECT_NE(*a, *b);
  EXPECT_FALSE(pool.TakeRandom(rng));
}

TEST(PairPoolTest, SeedFromGraphCountsPairs) {
  ActionPools pools;
  GraphConfig g{20, 4, 1, 1};
  pools.SeedFromGraph(g);
  EXPECT_EQ(pools.confirmed.Size(), 20u * 4 / 2);  // unordered pairs
  EXPECT_EQ(pools.pending.Size(), 0u);
}

// ---- validation ------------------------------------------------------------------

TEST(Validation, CleanCounterHistoryPasses) {
  Validator v;
  v.SetInitialCounter("c", 10);
  ThreadLog log;
  log.LogCounterWrite("c", 0, 10, +1);   // completes before the read
  log.LogCounterRead("c", 20, 30, 11);   // sees it: OK
  v.Absorb(std::move(log));
  auto report = v.Validate();
  EXPECT_EQ(report.reads_checked, 1u);
  EXPECT_EQ(report.unpredictable, 0u);
}

TEST(Validation, MissedSettledWriteIsUnpredictable) {
  Validator v;
  v.SetInitialCounter("c", 10);
  ThreadLog log;
  log.LogCounterWrite("c", 0, 10, +1);
  log.LogCounterRead("c", 20, 30, 10);  // stale: missed the settled +1
  v.Absorb(std::move(log));
  EXPECT_EQ(v.Validate().unpredictable, 1u);
}

TEST(Validation, InFlightWriteMayOrMayNotBeSeen) {
  Validator v;
  v.SetInitialCounter("c", 0);
  ThreadLog log;
  log.LogCounterWrite("c", 10, 50, +1);  // overlaps the read
  log.LogCounterRead("c", 20, 30, 0);    // not seen: OK (ordered before)
  log.LogCounterRead("c", 25, 35, 1);    // seen: OK (ordered after)
  v.Absorb(std::move(log));
  EXPECT_EQ(v.Validate().unpredictable, 0u);
}

TEST(Validation, ValueOutsideEnvelopeIsUnpredictable) {
  Validator v;
  v.SetInitialCounter("c", 0);
  ThreadLog log;
  log.LogCounterWrite("c", 10, 50, +1);
  log.LogCounterRead("c", 20, 30, 2);  // impossible: only one +1 exists
  v.Absorb(std::move(log));
  EXPECT_EQ(v.Validate().unpredictable, 1u);
}

TEST(Validation, FutureWriteCannotBeSeen) {
  Validator v;
  v.SetInitialCounter("c", 0);
  ThreadLog log;
  log.LogCounterRead("c", 0, 10, 1);      // sees a write...
  log.LogCounterWrite("c", 20, 30, +1);   // ...that starts later: stale read
  v.Absorb(std::move(log));
  EXPECT_EQ(v.Validate().unpredictable, 1u);
}

TEST(Validation, NegativeDeltasWidenLowerBound) {
  // The acceptable envelope is the interval [init + negatives, init +
  // positives] over in-flight deltas. BG's counters only move by +-1, so
  // the interval check is exact for the paper's workloads.
  Validator v;
  v.SetInitialCounter("c", 5);
  ThreadLog log;
  log.LogCounterWrite("c", 10, 50, -2);  // in-flight
  log.LogCounterRead("c", 20, 30, 3);    // may see it
  log.LogCounterRead("c", 20, 30, 5);    // or not
  log.LogCounterRead("c", 20, 30, 2);    // below the envelope: stale
  log.LogCounterRead("c", 20, 30, 6);    // above the envelope: stale
  v.Absorb(std::move(log));
  auto report = v.Validate();
  EXPECT_EQ(report.unpredictable, 2u);
}

TEST(Validation, SetReadsCheckMembership) {
  Validator v;
  v.SetInitialSet("s", {1, 2});
  ThreadLog log;
  log.LogSetWrite("s", 0, 10, /*add=*/true, 3);
  log.LogSetRead("s", 20, 30, {1, 2, 3});  // OK
  log.LogSetRead("s", 20, 30, {1, 2});     // missing settled add: stale
  log.LogSetRead("s", 20, 30, {1, 2, 3, 9});  // foreign element: invalid
  v.Absorb(std::move(log));
  auto report = v.Validate();
  EXPECT_EQ(report.reads_checked, 3u);
  EXPECT_EQ(report.unpredictable, 2u);
}

TEST(Validation, InFlightSetOpsAreFlexible) {
  Validator v;
  v.SetInitialSet("s", {1});
  ThreadLog log;
  log.LogSetWrite("s", 10, 50, /*add=*/true, 2);
  log.LogSetRead("s", 20, 30, {1});     // before the add: OK
  log.LogSetRead("s", 25, 35, {1, 2});  // after the add: OK
  v.Absorb(std::move(log));
  EXPECT_EQ(v.Validate().unpredictable, 0u);
}

TEST(Validation, SettledRemoveMustBeObserved) {
  Validator v;
  v.SetInitialSet("s", {1, 2});
  ThreadLog log;
  log.LogSetWrite("s", 0, 10, /*add=*/false, 2);
  log.LogSetRead("s", 20, 30, {1, 2});  // still shows 2: stale
  v.Absorb(std::move(log));
  EXPECT_EQ(v.Validate().unpredictable, 1u);
}

TEST(Validation, StalePercentComputation) {
  ValidationReport r;
  r.reads_checked = 200;
  r.unpredictable = 3;
  EXPECT_DOUBLE_EQ(r.StalePercent(), 1.5);
  ValidationReport empty;
  EXPECT_DOUBLE_EQ(empty.StalePercent(), 0.0);
}

// ---- actions -----------------------------------------------------------------------

class BgActionsTest : public ::testing::Test {
 protected:
  BgActionsTest() : graph_{40, 4, 2, 2} {
    CreateBgTables(db_);
    LoadGraph(db_, graph_);
    pools_.SeedFromGraph(graph_);
  }

  casql::CasqlConfig Config(casql::Technique t) {
    casql::CasqlConfig cfg;
    cfg.technique = t;
    cfg.consistency = casql::Consistency::kIQ;
    return cfg;
  }

  std::int64_t UserCol(MemberId id, int col) {
    auto txn = db_.Begin();
    auto row = txn->SelectByPk("Users", {sql::V(id)});
    return row ? *sql::AsInt((*row)[static_cast<std::size_t>(col)]) : -1;
  }

  // The router places a member's tagged keys by the member id, so a
  // session that updates one member's keys writes one cache server:
  // InviteFriend and RejectFriend update only the invitee's.
  void ExpectOneMemberSessionsCommitOnOneShard(casql::Technique technique) {
    IQServer other;
    ShardedBackend router({{"s0", &server_, 1, {}, {}, {}, {}},
                           {"s1", &other, 1, {}, {}, {}, {}}});
    casql::CasqlSystem system(db_, router, Config(technique));
    BGActions actions(system, pools_, graph_, nullptr, Rng(1));
    std::uint64_t commits = 0;
    for (MemberId offset : {10, 15, 20}) {
      for (MemberId invitee = 0; invitee < graph_.members; ++invitee) {
        if (actions.InviteFriend((invitee + offset) % graph_.members,
                                 invitee)) {
          ++commits;
        }
      }
    }
    while (actions.RejectFriend()) ++commits;
    ASSERT_GE(commits, 150u);
    ShardedBackendStats rs = router.router_stats();
    EXPECT_EQ(rs.fanout_commits, commits);
    EXPECT_EQ(rs.cross_shard_sessions, 0u);
    // Both servers took sessions: the tier really is two shards wide.
    EXPECT_GT(server_.Stats().commits, 0u);
    EXPECT_GT(other.Stats().commits, 0u);
  }

  GraphConfig graph_;
  sql::Database db_;
  IQServer server_;
  ActionPools pools_;
};

TEST_F(BgActionsTest, ViewProfileReturnsLoadedState) {
  casql::CasqlSystem system(db_, server_, Config(casql::Technique::kRefresh));
  ThreadLog log;
  BGActions actions(system, pools_, graph_, &log, Rng(1));
  EXPECT_TRUE(actions.ViewProfile(5));
  auto cached = server_.store().Get(ProfileKey(5));
  ASSERT_TRUE(cached);
  auto p = DecodeProfile(cached->value);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->friend_count, 4);
  EXPECT_EQ(p->pending_count, 0);
}

TEST_F(BgActionsTest, InviteUpdatesDbAndCache) {
  casql::CasqlSystem system(db_, server_, Config(casql::Technique::kRefresh));
  BGActions actions(system, pools_, graph_, nullptr, Rng(1));
  actions.ViewProfile(20);  // warm Profile:{20}
  // Member 5 and 20 are not ring-adjacent, so the invite succeeds.
  ASSERT_TRUE(actions.InviteFriend(5, 20));
  EXPECT_EQ(UserCol(20, 2), 1);  // pendingCount
  auto p = DecodeProfile(server_.store().Get(ProfileKey(20))->value);
  EXPECT_EQ(p->pending_count, 1);
  EXPECT_EQ(pools_.pending.Size(), 1u);
}

TEST_F(BgActionsTest, InviteExistingFriendFails) {
  casql::CasqlSystem system(db_, server_, Config(casql::Technique::kRefresh));
  BGActions actions(system, pools_, graph_, nullptr, Rng(1));
  // 5 and 6 are ring friends: the Friendship row exists, insert collides.
  EXPECT_FALSE(actions.InviteFriend(5, 6));
  EXPECT_EQ(UserCol(6, 2), 0);
}

TEST_F(BgActionsTest, AcceptMovesInviteToFriendship) {
  casql::CasqlSystem system(db_, server_, Config(casql::Technique::kRefresh));
  BGActions actions(system, pools_, graph_, nullptr, Rng(1));
  ASSERT_TRUE(actions.InviteFriend(5, 20));
  std::size_t confirmed_before = pools_.confirmed.Size();
  ASSERT_TRUE(actions.AcceptFriend());
  EXPECT_EQ(UserCol(20, 2), 0);  // pending consumed
  EXPECT_EQ(UserCol(20, 3), 5);  // friendCount 4 -> 5
  EXPECT_EQ(UserCol(5, 3), 5);
  EXPECT_EQ(pools_.confirmed.Size(), confirmed_before + 1);
  // Friendship rows now exist in both directions with status 2.
  auto txn = db_.Begin();
  auto fwd = txn->SelectByPk("Friendship", {sql::V(5), sql::V(20)});
  auto rev = txn->SelectByPk("Friendship", {sql::V(20), sql::V(5)});
  ASSERT_TRUE(fwd && rev);
  EXPECT_EQ(*sql::AsInt((*fwd)[2]), kConfirmed);
  EXPECT_EQ(*sql::AsInt((*rev)[2]), kConfirmed);
}

TEST_F(BgActionsTest, RejectRemovesInvite) {
  casql::CasqlSystem system(db_, server_, Config(casql::Technique::kRefresh));
  BGActions actions(system, pools_, graph_, nullptr, Rng(1));
  ASSERT_TRUE(actions.InviteFriend(5, 20));
  ASSERT_TRUE(actions.RejectFriend());
  EXPECT_EQ(UserCol(20, 2), 0);
  auto txn = db_.Begin();
  EXPECT_FALSE(txn->SelectByPk("Friendship", {sql::V(5), sql::V(20)}));
}

TEST_F(BgActionsTest, ThawRemovesFriendship) {
  casql::CasqlSystem system(db_, server_, Config(casql::Technique::kRefresh));
  BGActions actions(system, pools_, graph_, nullptr, Rng(1));
  std::int64_t before = UserCol(0, 3);
  ASSERT_TRUE(actions.ThawFriendship());
  // Some pair lost one friend each; total friend count dropped by 2.
  std::int64_t total_after = 0;
  auto txn = db_.Begin();
  for (const auto& row : txn->SelectAll("Users")) {
    total_after += *sql::AsInt(row[3]);
  }
  EXPECT_EQ(total_after, graph_.members * 4 - 2);
  (void)before;
}

TEST_F(BgActionsTest, AcceptOnEmptyPoolFails) {
  casql::CasqlSystem system(db_, server_, Config(casql::Technique::kRefresh));
  BGActions actions(system, pools_, graph_, nullptr, Rng(1));
  EXPECT_FALSE(actions.AcceptFriend());
  EXPECT_FALSE(actions.RejectFriend());
}

TEST_F(BgActionsTest, StaticReadsSucceed) {
  casql::CasqlSystem system(db_, server_, Config(casql::Technique::kRefresh));
  BGActions actions(system, pools_, graph_, nullptr, Rng(1));
  EXPECT_TRUE(actions.ViewTopKResources(3));
  EXPECT_TRUE(actions.ViewComments(0));
  EXPECT_TRUE(actions.ListFriends(3));
  EXPECT_TRUE(actions.ViewFriendRequests(3));
}

TEST_F(BgActionsTest, IncrementalModeUsesCounterKeys) {
  casql::CasqlSystem system(db_, server_,
                            Config(casql::Technique::kIncremental));
  BGActions actions(system, pools_, graph_, nullptr, Rng(1));
  EXPECT_TRUE(actions.ViewProfile(20));
  EXPECT_TRUE(server_.store().Get(PendingCountKey(20)));
  EXPECT_TRUE(server_.store().Get(FriendCountKey(20)));
  ASSERT_TRUE(actions.InviteFriend(5, 20));
  EXPECT_EQ(server_.store().Get(PendingCountKey(20))->value, "1");
}

TEST_F(BgActionsTest, OneMemberWriteSessionsCommitOnOneShard) {
  ExpectOneMemberSessionsCommitOnOneShard(casql::Technique::kRefresh);
}

TEST_F(BgActionsTest, OneMemberCounterSessionsCommitOnOneShard) {
  ExpectOneMemberSessionsCommitOnOneShard(casql::Technique::kIncremental);
}

// ---- workload mixes ---------------------------------------------------------------

TEST(Mixes, ProbabilitiesSumToOne) {
  for (const Mix& mix : {VeryLowWriteMix(), LowWriteMix(), HighWriteMix()}) {
    double sum = 0;
    for (double p : mix.probability) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Mixes, WritePercentsMatchTable5) {
  EXPECT_NEAR(VeryLowWriteMix().WritePercent(), 0.1, 1e-9);
  EXPECT_NEAR(LowWriteMix().WritePercent(), 1.0, 1e-9);
  EXPECT_NEAR(HighWriteMix().WritePercent(), 10.0, 1e-9);
}

TEST(Mixes, SelectorPicksByLabel) {
  EXPECT_NEAR(MixForWritePercent(0.1).WritePercent(), 0.1, 1e-9);
  EXPECT_NEAR(MixForWritePercent(1).WritePercent(), 1.0, 1e-9);
  EXPECT_NEAR(MixForWritePercent(10).WritePercent(), 10.0, 1e-9);
}

TEST(Workload, ShortIQRunHasZeroUnpredictableReads) {
  sql::Database db;
  CreateBgTables(db);
  GraphConfig graph{60, 4, 1, 1};
  LoadGraph(db, graph);
  ActionPools pools;
  pools.SeedFromGraph(graph);
  IQServer server;
  casql::CasqlConfig cfg;
  cfg.technique = casql::Technique::kRefresh;
  cfg.consistency = casql::Consistency::kIQ;
  casql::CasqlSystem system(db, server, cfg);

  WorkloadConfig wl;
  wl.mix = HighWriteMix();
  wl.threads = 4;
  wl.duration = 300 * kNanosPerMilli;
  wl.seed = 7;
  WorkloadResult result = RunWorkload(system, pools, graph, wl);
  EXPECT_GT(result.actions, 100u);
  EXPECT_GT(result.validation.reads_checked, 0u);
  EXPECT_EQ(result.validation.unpredictable, 0u);
  EXPECT_GT(result.Throughput(), 0.0);
}

TEST(Workload, ComputeSoarPicksBestPassingTrial) {
  auto fake_run = [](int threads) {
    WorkloadResult r;
    r.actions = static_cast<std::uint64_t>(threads) * 100;
    r.elapsed = kNanosPerSec;
    // 8 threads blow the SLA: all observations at 200ms.
    for (int i = 0; i < 100; ++i) {
      r.latency.Record(threads >= 8 ? 200 * kNanosPerMilli : kNanosPerMilli);
    }
    return r;
  };
  SoarResult soar = ComputeSoar(fake_run, {1, 2, 4, 8});
  EXPECT_EQ(soar.best_threads, 4);
  EXPECT_NEAR(soar.soar, 400.0, 1.0);
}

}  // namespace
}  // namespace iq::bg
