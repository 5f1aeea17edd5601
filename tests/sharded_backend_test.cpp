// ShardedBackend: consistent-hash routing, lazy per-shard session minting,
// and the fan-out session lifecycle (commit/abort/reject-release) across
// in-process children, plus the batched verbs over loopback wire children.
#include "core/sharded_backend.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/iq_client.h"
#include "core/iq_server.h"
#include "net/channel.h"
#include "net/remote_backend.h"
#include "stat_lines.h"

namespace iq {
namespace {

/// A key whose ring position lands on `shard` (probe a numbered sequence;
/// with >=64 vnodes per shard every shard owns plenty of keyspace).
std::string KeyOnShard(const ShardedBackend& router, std::size_t shard,
                       const std::string& prefix = "k") {
  for (int i = 0; i < 10000; ++i) {
    std::string key = prefix + std::to_string(i);
    if (router.ShardFor(key) == shard) return key;
  }
  ADD_FAILURE() << "no key found for shard " << shard;
  return {};
}

/// Shards s0, s1, ... over `servers`: the names perfbench and bench_shard
/// give their rings.
std::vector<ShardedBackend::Shard> NamedShards(IQServer* servers,
                                               std::size_t n) {
  std::vector<ShardedBackend::Shard> shards;
  for (std::size_t i = 0; i < n; ++i) {
    shards.push_back({"s" + std::to_string(i), &servers[i], 1, {}, {}, {}, {}});
  }
  return shards;
}

class ShardedBackendTest : public ::testing::Test {
 protected:
  ShardedBackendTest()
      : router_({{.name = "cache-a",
                  .backend = &child0_,
                  .stats = [this] { return child0_.Stats(); }},
                 {.name = "cache-b",
                  .backend = &child1_,
                  .stats = [this] { return child1_.Stats(); }}},
                ShardedBackend::Config{}) {}

  IQServer child0_;
  IQServer child1_;
  ShardedBackend router_;
};

TEST(ShardedRing, RoutingIsDeterministicAcrossInstances) {
  IQServer a, b;
  std::vector<ShardedBackend::Shard> shards = {{.name = "s0", .backend = &a},
                                               {.name = "s1", .backend = &b}};
  ShardedBackend r1(shards);
  ShardedBackend r2(shards);  // a second router, as each client thread builds
  for (int i = 0; i < 500; ++i) {
    std::string key = "key" + std::to_string(i);
    EXPECT_EQ(r1.ShardFor(key), r2.ShardFor(key)) << key;
  }
}

TEST(ShardedRing, EveryShardOwnsKeyspace) {
  IQServer a, b, c, d;
  ShardedBackend router({{.name = "s0", .backend = &a},
                         {.name = "s1", .backend = &b},
                         {.name = "s2", .backend = &c},
                         {.name = "s3", .backend = &d}});
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 2000; ++i) {
    ++hits[router.ShardFor("key" + std::to_string(i))];
  }
  for (int h : hits) EXPECT_GT(h, 0);
}

TEST(ShardedRing, WeightSkewsDistribution) {
  IQServer a, b;
  ShardedBackend router({{.name = "small", .backend = &a, .weight = 1},
                         {.name = "big", .backend = &b, .weight = 4}});
  int small = 0, big = 0;
  for (int i = 0; i < 4000; ++i) {
    (router.ShardFor("key" + std::to_string(i)) == 0 ? small : big)++;
  }
  EXPECT_GT(big, small);  // weight 4 owns ~4x the ring
}

// Keys without a hash tag must keep their ring placement: iqbench's
// ctr:/data: keys and the numbered test keys, on the rings perfbench and
// bench_shard build. Digit i is ShardFor(keys[i]).
TEST(ShardedRing, UntaggedPlacementIsPinned) {
  IQServer servers[4];
  ShardedBackend two(NamedShards(servers, 2));
  ShardedBackend four(NamedShards(servers, 4));
  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) keys.push_back("ctr:" + std::to_string(i));
  for (int i = 0; i < 24; ++i) keys.push_back("data:" + std::to_string(i));
  for (int i = 0; i < 24; ++i) keys.push_back("key" + std::to_string(i));
  std::string on_two, on_four;
  for (const std::string& key : keys) {
    on_two.push_back(static_cast<char>('0' + two.ShardFor(key)));
    on_four.push_back(static_cast<char>('0' + four.ShardFor(key)));
  }
  EXPECT_EQ(on_two,
            "1001010000100001110100100110110111110001100011100000001000101001");
  EXPECT_EQ(on_four,
            "3031330202200231310202320210310231312301130221100002002220101332");
}

TEST(ShardedRing, KeysSharingAHashTagShareAShard) {
  IQServer servers[4];
  for (std::size_t n : {2, 3, 4}) {
    ShardedBackend router(NamedShards(servers, n));
    std::vector<int> owned(n, 0);
    for (int tag = 0; tag < 1000; ++tag) {
      std::string t = "{";
      t += std::to_string(tag);
      t += '}';
      std::size_t home = router.ShardFor(t);
      ++owned[home];
      for (const std::string& key :
           {"Profile:" + t, "Friends:" + t, "Pending:" + t, "PC:" + t,
            "FC:" + t, t + ":suffix", "a{" + std::to_string(tag) + "}{x}"}) {
        EXPECT_EQ(router.ShardFor(key), home) << key << " on " << n;
      }
    }
    for (int count : owned) EXPECT_GT(count, 0) << n << " shards";
  }
}

// Braces that make no tag leave the whole key hashed, so these keys keep
// their placement too (pinned like the keys above, on the 4-shard ring):
// an empty span, an unclosed '{', a '}' before the only '{', and a key
// whose first span is empty — only the first '{' counts, so a non-empty
// span after it is no tag.
TEST(ShardedRing, BracesWithoutATagHashTheWholeKey) {
  IQServer servers[4];
  ShardedBackend four(NamedShards(servers, 4));
  std::string placed;
  for (int i = 0; i < 16; ++i) {
    std::string n = std::to_string(i);
    for (const std::string& key :
         {"{}" + n, "{" + n, n + "}{", "x{}{" + n + "}"}) {
      placed.push_back(static_cast<char>('0' + four.ShardFor(key)));
    }
  }
  EXPECT_EQ(placed,
            "3300111000030003122100202312233031123223323313331201323310111012");
}

TEST(ShardedRing, OnlyTheFirstTagPlacesAKey) {
  IQServer servers[4];
  ShardedBackend four(NamedShards(servers, 4));
  for (int i = 0; i < 100; ++i) {
    std::string tag = "m";
    tag += std::to_string(i);
    std::size_t home = four.ShardFor(tag);  // an untagged key hashes whole
    EXPECT_EQ(four.ShardFor("{" + tag + "}"), home) << tag;
    EXPECT_EQ(four.ShardFor("x{" + tag + "}{other}"), home) << tag;
    EXPECT_EQ(four.ShardFor("x{" + tag + "}}"), home) << tag;
  }
}

TEST(ShardedRing, EmptyShardListThrows) {
  EXPECT_THROW(ShardedBackend({}), std::invalid_argument);
}

TEST_F(ShardedBackendTest, PlainOpsRouteByKey) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  EXPECT_EQ(router_.Set(k0, "v0"), StoreResult::kStored);
  EXPECT_EQ(router_.Set(k1, "v1"), StoreResult::kStored);
  // The value lives only in the owning child.
  EXPECT_TRUE(child0_.Get(k0));
  EXPECT_FALSE(child1_.Get(k0));
  EXPECT_TRUE(child1_.Get(k1));
  EXPECT_FALSE(child0_.Get(k1));
  EXPECT_EQ(router_.Get(k0)->value, "v0");
  EXPECT_EQ(router_.Get(k1)->value, "v1");
}

TEST_F(ShardedBackendTest, SessionsAreMintedLazilyPerShard) {
  std::string k0 = KeyOnShard(router_, 0);
  SessionId tid = router_.GenID();
  router_.Set(k0, "v");
  ASSERT_EQ(router_.QaReg(tid, k0), QuarantineResult::kGranted);
  router_.Commit(tid);
  // Only shard 0 was touched: its child saw the commit, the other child saw
  // no session traffic at all.
  EXPECT_EQ(child0_.Stats().commits, 1u);
  EXPECT_EQ(child1_.Stats().commits, 0u);
  ShardedBackendStats rs = router_.router_stats();
  EXPECT_EQ(rs.sessions, 1u);
  EXPECT_EQ(rs.shard_sessions, 1u);
  EXPECT_EQ(rs.fanout_commits, 1u);
  EXPECT_EQ(rs.cross_shard_sessions, 0u);
}

TEST_F(ShardedBackendTest, CommitFansOutToAllTouchedShards) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  router_.Set(k0, "10");
  router_.Set(k1, "x");
  SessionId tid = router_.GenID();
  EXPECT_EQ(router_.IQDelta(tid, k0, {DeltaOp::Kind::kIncr, {}, 5}),
            QuarantineResult::kGranted);
  EXPECT_EQ(router_.IQDelta(tid, k1, {DeltaOp::Kind::kAppend, "y", 0}),
            QuarantineResult::kGranted);
  router_.Commit(tid);
  EXPECT_EQ(router_.Get(k0)->value, "15");
  EXPECT_EQ(router_.Get(k1)->value, "xy");
  EXPECT_EQ(child0_.Stats().commits, 1u);
  EXPECT_EQ(child1_.Stats().commits, 1u);
  EXPECT_EQ(router_.router_stats().cross_shard_sessions, 1u);
  EXPECT_EQ(router_.router_stats().fanout_commits, 1u);
}

TEST_F(ShardedBackendTest, AbortReleasesLeasesOnEveryTouchedShard) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  router_.Set(k0, "a");
  router_.Set(k1, "b");
  SessionId tid = router_.GenID();
  EXPECT_EQ(router_.QaRead(k0, tid).status, QaReadReply::Status::kGranted);
  EXPECT_EQ(router_.QaRead(k1, tid).status, QaReadReply::Status::kGranted);
  EXPECT_EQ(child0_.LeaseCount(), 1u);
  EXPECT_EQ(child1_.LeaseCount(), 1u);
  router_.Abort(tid);
  EXPECT_EQ(child0_.LeaseCount(), 0u);
  EXPECT_EQ(child1_.LeaseCount(), 0u);
  // Values survive the abort.
  EXPECT_EQ(router_.Get(k0)->value, "a");
  EXPECT_EQ(router_.Get(k1)->value, "b");
  EXPECT_EQ(router_.router_stats().fanout_aborts, 1u);
}

TEST_F(ShardedBackendTest, QaReadRejectReleasesEveryTouchedShard) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  router_.Set(k0, "a");
  router_.Set(k1, "b");
  // Session 2 holds the Q lease on k1 (shard 1).
  SessionId holder = router_.GenID();
  ASSERT_EQ(router_.QaRead(k1, holder).status, QaReadReply::Status::kGranted);
  // Session 1 acquires k0 (shard 0) and is then rejected on k1. Without the
  // fan-out release its Q lease on shard 0 would outlive the reject and
  // deadlock every retry that touches k0.
  SessionId tid = router_.GenID();
  ASSERT_EQ(router_.QaRead(k0, tid).status, QaReadReply::Status::kGranted);
  ASSERT_EQ(router_.QaRead(k1, tid).status, QaReadReply::Status::kReject);
  EXPECT_EQ(child0_.LeaseCount(), 0u);  // k0 released by the router
  // A fresh session can acquire k0 immediately (no stranded lease).
  SessionId retry = router_.GenID();
  EXPECT_EQ(router_.QaRead(k0, retry).status, QaReadReply::Status::kGranted);
  EXPECT_EQ(router_.router_stats().reject_releases, 1u);
  router_.Abort(retry);
  router_.Abort(holder);
}

TEST_F(ShardedBackendTest, IQDeltaRejectReleasesEveryTouchedShard) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  router_.Set(k0, "a");
  router_.Set(k1, "5");
  SessionId holder = router_.GenID();
  ASSERT_EQ(router_.QaRead(k1, holder).status, QaReadReply::Status::kGranted);
  SessionId tid = router_.GenID();
  ASSERT_EQ(router_.QaRead(k0, tid).status, QaReadReply::Status::kGranted);
  ASSERT_EQ(router_.IQDelta(tid, k1, {DeltaOp::Kind::kIncr, {}, 1}),
            QuarantineResult::kReject);
  EXPECT_EQ(child0_.LeaseCount(), 0u);
  EXPECT_EQ(router_.router_stats().reject_releases, 1u);
  router_.Abort(holder);
}

TEST_F(ShardedBackendTest, OwnQuarantinedKeyReadsAsMissNoLease) {
  std::string k0 = KeyOnShard(router_, 0);
  router_.Set(k0, "v");
  SessionId tid = router_.GenID();
  ASSERT_EQ(router_.QaReg(tid, k0), QuarantineResult::kGranted);
  // The session's own quarantine must be recognized through the router's
  // id translation: same virtual id => same child id on that shard.
  EXPECT_EQ(router_.IQget(k0, tid).status, GetReply::Status::kMissNoLease);
  router_.DaR(tid);
  EXPECT_FALSE(router_.Get(k0));
}

TEST_F(ShardedBackendTest, ReleaseKeyDropsOneLeaseAndKeepsTheRest) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  router_.Set(k0, "10");
  SessionId tid = router_.GenID();
  ASSERT_EQ(router_.QaRead(k1, tid).status, QaReadReply::Status::kGranted);
  ASSERT_EQ(router_.IQDelta(tid, k0, {DeltaOp::Kind::kIncr, {}, 7}),
            QuarantineResult::kGranted);
  router_.ReleaseKey(tid, k1);
  EXPECT_EQ(child1_.LeaseCount(), 0u);
  // The shard-0 delta survives the release of the shard-1 lease.
  router_.Commit(tid);
  EXPECT_EQ(router_.Get(k0)->value, "17");
}

TEST_F(ShardedBackendTest, ReleaseKeyOnUntouchedShardIsANoOp) {
  SessionId tid = router_.GenID();
  router_.ReleaseKey(tid, KeyOnShard(router_, 1));  // never minted there
  EXPECT_EQ(router_.router_stats().shard_sessions, 0u);
}

TEST_F(ShardedBackendTest, AnonymousReadsDoNotMintSessions) {
  std::string k0 = KeyOnShard(router_, 0);
  router_.Set(k0, "v");
  EXPECT_EQ(router_.IQget(k0).status, GetReply::Status::kHit);
  EXPECT_EQ(router_.router_stats().shard_sessions, 0u);
}

TEST_F(ShardedBackendTest, StatsAggregateAcrossShardsWithBreakdown) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  SessionId t0 = router_.GenID();
  ASSERT_EQ(router_.IQget(k0, t0).status, GetReply::Status::kMissGrantedI);
  router_.Commit(t0);
  SessionId t1 = router_.GenID();
  router_.Set(k1, "v");
  ASSERT_EQ(router_.QaRead(k1, t1).status, QaReadReply::Status::kGranted);
  router_.Abort(t1);
  IQServerStats total = router_.Stats();
  EXPECT_EQ(total.i_granted, 1u);      // from shard 0
  EXPECT_EQ(total.q_ref_granted, 1u);  // from shard 1
  std::string stats = router_.FormatStats();
  EXPECT_NE(stats.find("STAT shard_count 2"), std::string::npos);
  EXPECT_NE(stats.find("STAT shard0_endpoint cache-a"), std::string::npos);
  EXPECT_NE(stats.find("STAT shard1_endpoint cache-b"), std::string::npos);
  EXPECT_NE(stats.find("STAT i_leases_granted 1"), std::string::npos);
  EXPECT_NE(stats.find("STAT shard0_i_leases_granted 1"), std::string::npos);
  EXPECT_NE(stats.find("STAT shard1_q_ref_granted 1"), std::string::npos);
  EXPECT_NE(stats.find("STAT router_sessions 2"), std::string::npos);
}

TEST(ShardedStats, FormatStatsReadsEachChildOnce) {
  // Providers that answer differently on every call, as a live TCP child
  // does: the aggregate lines must be the sum of the breakdown below them.
  IQServer a, b;
  int stats_calls[2] = {0, 0};
  int reconnect_calls[2] = {0, 0};
  auto stats = [&stats_calls](int i) {
    return [&stats_calls, i] {
      const int call = ++stats_calls[i];
      IQServerStats s;
      s.i_granted = static_cast<std::uint64_t>(100 * (i + 1) + call);
      s.commits = static_cast<std::uint64_t>(10 * call);
      return s;
    };
  };
  auto reconnects = [&reconnect_calls](int i) {
    return [&reconnect_calls, i] {
      return static_cast<std::uint64_t>(++reconnect_calls[i] + 5 * i);
    };
  };
  ShardedBackend router({{.name = "s0", .backend = &a, .stats = stats(0),
                          .reconnects = reconnects(0)},
                         {.name = "s1", .backend = &b, .stats = stats(1),
                          .reconnects = reconnects(1)}});
  const auto lines = StatLines(router.FormatStats());
  EXPECT_EQ(stats_calls[0], 1);
  EXPECT_EQ(stats_calls[1], 1);
  EXPECT_EQ(reconnect_calls[0], 1);
  EXPECT_EQ(reconnect_calls[1], 1);
  auto value = [&lines](const std::string& name) -> std::uint64_t {
    auto it = lines.find(name);
    if (it == lines.end() || it->second.size() != 1) {
      ADD_FAILURE() << name << " is not rendered exactly once";
      return 0;
    }
    return std::stoull(it->second[0]);
  };
  for (const std::string name : {"i_leases_granted", "commits", "aborts"}) {
    EXPECT_EQ(value(name), value("shard0_" + name) + value("shard1_" + name))
        << name;
  }
  EXPECT_EQ(value("reconnects"),
            value("shard0_reconnects") + value("shard1_reconnects"));
}

TEST_F(ShardedBackendTest, FormatStatsRendersEveryRowOnce) {
  std::string k0 = KeyOnShard(router_, 0);
  SessionId t = router_.GenID();
  ASSERT_EQ(router_.IQget(k0, t).status, GetReply::Status::kMissGrantedI);
  router_.Set(KeyOnShard(router_, 1), "v");
  const auto lines = StatLines(router_.FormatStats());
  ExpectRowsOnce(lines, router_.router_stats(), kRouterStatsFields);
  ExpectRowsOnce(lines, router_.Stats(), kIQStatsFields);
  ExpectRowsOnce(lines, child0_.Stats(), kIQStatsFields, "shard0_");
  ExpectRowsOnce(lines, child1_.Stats(), kIQStatsFields, "shard1_");
  for (const char* name :
       {"shard_count", "ring_points", "reconnects", "shard0_endpoint",
        "shard0_weight", "shard0_down", "shard0_transport_errors",
        "shard1_endpoint", "shard1_weight", "shard1_down",
        "shard1_transport_errors"}) {
    auto it = lines.find(name);
    ASSERT_NE(it, lines.end()) << name;
    EXPECT_EQ(it->second.size(), 1u) << name;
  }
}

TEST_F(ShardedBackendTest, SessionIdReuseAfterCommitKeepsChildIds) {
  // The upper stack reuses one SessionId across transactions (IQSession
  // keeps its id); a commit ends the transaction but not the session, so
  // the child id minted for the first one serves the second. An abort
  // forgets the ids.
  std::string k0 = KeyOnShard(router_, 0);
  router_.Set(k0, "1");
  SessionId tid = router_.GenID();
  ASSERT_EQ(router_.IQDelta(tid, k0, {DeltaOp::Kind::kIncr, {}, 1}),
            QuarantineResult::kGranted);
  router_.Commit(tid);
  ASSERT_EQ(router_.IQDelta(tid, k0, {DeltaOp::Kind::kIncr, {}, 1}),
            QuarantineResult::kGranted);
  router_.Commit(tid);
  EXPECT_EQ(router_.Get(k0)->value, "3");
  EXPECT_EQ(router_.router_stats().shard_sessions, 1u);  // minted once
  EXPECT_EQ(child0_.Stats().commits, 2u);
  router_.Abort(tid);
  ASSERT_EQ(router_.QaReg(tid, k0), QuarantineResult::kGranted);
  EXPECT_EQ(router_.router_stats().shard_sessions, 2u);  // re-minted
  router_.DaR(tid);
}

TEST_F(ShardedBackendTest, CommitSkipsShardsTheSessionOnlyRead) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  router_.Set(k1, "v");
  SessionId tid = router_.GenID();
  ASSERT_EQ(router_.IQget(k1, tid).status, GetReply::Status::kHit);
  ASSERT_EQ(router_.QaReg(tid, k0), QuarantineResult::kGranted);
  router_.Commit(tid);
  EXPECT_EQ(child0_.Stats().commits, 1u);
  EXPECT_EQ(child1_.Stats().commits, 0u);  // read, never written
  EXPECT_EQ(router_.router_stats().cross_shard_sessions, 0u);
  // The written set restarts with each transaction: the next commit has
  // nothing to send anywhere.
  router_.Commit(tid);
  EXPECT_EQ(child0_.Stats().commits, 1u);
  EXPECT_EQ(router_.router_stats().fanout_commits, 1u);
}

TEST_F(ShardedBackendTest, SessionAcquireRejectedBehindAnUnaskedShardIsAConflict) {
  // Keys a0 b0 a1, with a1 held by another session. Shard 0 answers
  // [granted, REJECT] and b0 is never asked, though it comes before the
  // reject in caller order: the session still sees a Q conflict, not a
  // transport error.
  std::string a0 = KeyOnShard(router_, 0, "a");
  std::string b0 = KeyOnShard(router_, 1, "b");
  std::string a1 = KeyOnShard(router_, 0, "c");
  SessionId holder = router_.GenID();
  ASSERT_EQ(router_.QaRead(a1, holder).status, QaReadReply::Status::kGranted);

  IQClient client(router_);
  auto session = client.NewSession();
  EXPECT_EQ(session->Acquire({{LeaseRequest::Kind::kQaRead, a0},
                              {LeaseRequest::Kind::kQaRead, b0},
                              {LeaseRequest::Kind::kQaRead, a1}}),
            ClientQResult::kQConflict);
  EXPECT_EQ(session->stats().q_conflicts, 1u);
  EXPECT_EQ(session->stats().transport_errors, 0u);
  session->Abort();
  router_.Abort(holder);
  EXPECT_EQ(child0_.LeaseCount() + child1_.LeaseCount(), 0u);
}

// ---- the batched verbs over wire children --------------------------------

/// Two shards, each a RemoteBackend over a loopback channel, so every frame
/// the router sends is one counted request.
class ShardedBatchTest : public ::testing::Test {
 protected:
  ShardedBatchTest()
      : wire0_(child0_),
        wire1_(child1_),
        remote0_(wire0_),
        remote1_(wire1_),
        router_({{"cache-a", &remote0_, 1, {}, {}, {}, {}},
                 {"cache-b", &remote1_, 1, {}, {}, {}, {}}}) {}

  IQServer child0_;
  IQServer child1_;
  net::LoopbackChannel wire0_;
  net::LoopbackChannel wire1_;
  net::RemoteBackend remote0_;
  net::RemoteBackend remote1_;
  ShardedBackend router_;
};

TEST_F(ShardedBatchTest, RepliesComeBackInCallerKeyOrder) {
  // Interleave the shards: a0 b0 a1 b1. Each shard gets one frame (after
  // its one-time mint) and the replies line up with the caller's keys.
  std::vector<std::string> keys = {
      KeyOnShard(router_, 0, "a"), KeyOnShard(router_, 1, "b"),
      KeyOnShard(router_, 0, "c"), KeyOnShard(router_, 1, "d")};
  for (const std::string& k : keys) router_.Set(k, "v:" + k);
  SessionId tid = router_.GenID();
  std::vector<LeaseRequest> requests;
  for (const std::string& k : keys) {
    requests.push_back({LeaseRequest::Kind::kQaRead, k});
  }
  std::uint64_t before0 = wire0_.requests();
  std::uint64_t before1 = wire1_.requests();
  std::vector<LeaseReply> replies = router_.Acquire(tid, requests);
  ASSERT_EQ(replies.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(replies[i].status, LeaseReply::Status::kGranted) << i;
    EXPECT_EQ(replies[i].value, "v:" + keys[i]) << i;
  }
  EXPECT_EQ(wire0_.requests() - before0, 2u);  // genid + one frame
  EXPECT_EQ(wire1_.requests() - before1, 2u);

  std::vector<std::string> news;
  for (const std::string& k : keys) news.push_back("new:" + k);
  std::vector<Swap> swaps;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    swaps.push_back({keys[i], news[i], replies[i].token});
  }
  before0 = wire0_.requests();
  before1 = wire1_.requests();
  std::vector<StoreResult> stored = router_.CommitSwaps(tid, swaps);
  EXPECT_EQ(wire0_.requests() - before0, 1u);  // swaps + commit, one frame
  EXPECT_EQ(wire1_.requests() - before1, 1u);
  ASSERT_EQ(stored.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(stored[i], StoreResult::kStored) << i;
    EXPECT_EQ(router_.Get(keys[i])->value, news[i]);
  }
  EXPECT_EQ(child0_.Stats().commits, 1u);
  EXPECT_EQ(child1_.Stats().commits, 1u);
  EXPECT_EQ(child0_.LeaseCount() + child1_.LeaseCount(), 0u);
  EXPECT_EQ(router_.router_stats().cross_shard_sessions, 1u);
}

TEST_F(ShardedBatchTest, RejectOnTheSecondShardReleasesBothShards) {
  std::string a = KeyOnShard(router_, 0, "a");
  std::string b = KeyOnShard(router_, 1, "b");
  router_.Set(a, "1");
  router_.Set(b, "2");
  SessionId holder = router_.GenID();
  ASSERT_EQ(router_.QaRead(b, holder).status, QaReadReply::Status::kGranted);

  SessionId tid = router_.GenID();
  std::vector<LeaseReply> replies =
      router_.Acquire(tid, {{LeaseRequest::Kind::kQaRead, a},
                            {LeaseRequest::Kind::kQaRead, b}});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].status, LeaseReply::Status::kGranted);
  EXPECT_EQ(replies[0].value, "1");
  EXPECT_EQ(replies[1].status, LeaseReply::Status::kReject);
  EXPECT_EQ(router_.router_stats().reject_releases, 1u);
  router_.Abort(tid);  // the caller's rule, after the router's own release
  EXPECT_EQ(child0_.LeaseCount(), 0u);
  router_.Abort(holder);
  EXPECT_EQ(child0_.LeaseCount(), 0u);
  EXPECT_EQ(child1_.LeaseCount(), 0u);
}

}  // namespace
}  // namespace iq
