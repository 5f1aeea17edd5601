// Near cache (DESIGN.md §4.10): the client-local LRU of validity-leased
// values, and its integration with IQSession/IQServer — grants on clean
// hits, self-invalidation at the granted interval, eager invalidation by
// the session's own write verbs, and the server holding an invalidating Q
// until every outstanding grant has lapsed.
#include <gtest/gtest.h>

#include <limits>

#include "core/iq_client.h"
#include "core/iq_server.h"
#include "core/near_cache.h"
#include "util/clock.h"

namespace iq {
namespace {

constexpr Nanos kValidity = 100 * kNanosPerMilli;

// ---- NearCache unit tests (ManualClock) -------------------------------------

TEST(NearCacheTest, InsertThenGetReportsRemainingValidity) {
  ManualClock clock;
  NearCache cache(4, clock);
  cache.Insert("k", "v", kValidity);
  auto hit = cache.Get("k");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->value, "v");
  EXPECT_EQ(hit->remaining, kValidity);
  clock.Advance(40 * kNanosPerMilli);
  hit = cache.Get("k");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->remaining, 60 * kNanosPerMilli);
}

TEST(NearCacheTest, EntrySelfInvalidatesAtExpiry) {
  ManualClock clock;
  NearCache cache(4, clock);
  cache.Insert("k", "v", kValidity);
  clock.Advance(kValidity);  // now == expires_at: no longer servable
  EXPECT_FALSE(cache.Get("k"));
  EXPECT_EQ(cache.size(), 0u);
  NearCache::Stats s = cache.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
}

TEST(NearCacheTest, ZeroValidityIsNotStored) {
  ManualClock clock;
  NearCache cache(4, clock);
  cache.Insert("k", "v", 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("k"));
  EXPECT_EQ(cache.stats().inserts, 0u);
}

TEST(NearCacheTest, ValidityPastTheClockRangeSaturatesAndIsServed) {
  // A validity read off the wire (a VALUE line's T token) may put the
  // deadline past the range of Nanos: the entry then never lapses, rather
  // than wrapping into the past and never being served.
  ManualClock clock(5 * kNanosPerSec);
  NearCache cache(4, clock);
  cache.Insert("k", "v", std::numeric_limits<Nanos>::max());
  auto hit = cache.Get("k");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->value, "v");
  EXPECT_EQ(hit->remaining,
            std::numeric_limits<Nanos>::max() - 5 * kNanosPerSec);
  clock.Advance(1000 * kNanosPerSec);
  EXPECT_TRUE(cache.Get("k"));
}

TEST(NearCacheTest, LruEvictsLeastRecentlyUsedAtCapacity) {
  ManualClock clock;
  NearCache cache(2, clock);
  cache.Insert("a", "1", kValidity);
  cache.Insert("b", "2", kValidity);
  ASSERT_TRUE(cache.Get("a"));  // touch: "b" is now the LRU tail
  cache.Insert("c", "3", kValidity);
  EXPECT_TRUE(cache.Get("a"));
  EXPECT_TRUE(cache.Get("c"));
  EXPECT_FALSE(cache.Get("b"));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(NearCacheTest, InsertReplacesLiveEntry) {
  ManualClock clock;
  NearCache cache(4, clock);
  cache.Insert("k", "old", kValidity);
  cache.Insert("k", "new", kValidity);
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Get("k");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->value, "new");
  NearCache::Stats s = cache.stats();
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.replaced, 1u);
}

TEST(NearCacheTest, InvalidateRemovesEntryOnce) {
  ManualClock clock;
  NearCache cache(4, clock);
  cache.Insert("k", "v", kValidity);
  EXPECT_TRUE(cache.Invalidate("k"));
  EXPECT_FALSE(cache.Invalidate("k"));
  EXPECT_FALSE(cache.Get("k"));
  EXPECT_EQ(cache.stats().invalidated, 1u);
}

TEST(NearCacheTest, CountersBalanceAfterMixedTraffic) {
  ManualClock clock;
  NearCache cache(3, clock);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 5; ++i) {
      std::string key = "k";
      key += std::to_string(i);
      cache.Insert(key, "v", kValidity);
    }
    cache.Get("k0");
    cache.Invalidate("k1");
    clock.Advance(round % 3 == 0 ? kValidity : kNanosPerMilli);
    cache.Get("k2");
  }
  NearCache::Stats s = cache.stats();
  // Every stored entry leaves in exactly one way (near_cache.h).
  EXPECT_EQ(s.inserts,
            cache.size() + s.replaced + s.evictions + s.invalidated + s.expired);
}

// ---- IQSession integration (ManualClock-driven server) ----------------------

class NearSessionTest : public ::testing::Test {
 protected:
  NearSessionTest()
      : server_(CacheStore::Config{},
                [this] {
                  IQServer::Config cfg;
                  cfg.clock = &clock_;
                  cfg.near_validity = kValidity;
                  return cfg;
                }()),
        client_(server_, [] {
          IQClient::Config cfg;
          cfg.near_capacity = 8;
          return cfg;
        }()) {}

  ManualClock clock_;
  IQServer server_;
  IQClient client_;
};

TEST_F(NearSessionTest, SecondGetWithinValidityIsServedLocally) {
  server_.store().Set("k", "v0");
  auto s = client_.NewSession();
  auto first = s->Get("k");
  ASSERT_EQ(first.status, ClientGetResult::Status::kHit);
  EXPECT_FALSE(first.near_hit);  // came from the server, grant attached
  auto second = s->Get("k");
  ASSERT_EQ(second.status, ClientGetResult::Status::kHit);
  EXPECT_TRUE(second.near_hit);
  EXPECT_EQ(second.value, "v0");
  EXPECT_GT(second.near_remaining, 0);
  EXPECT_EQ(server_.Stats().near_grants, 1u);
  EXPECT_EQ(client_.near_cache()->stats().hits, 1u);
}

TEST_F(NearSessionTest, ExpiredEntryFallsBackToServer) {
  server_.store().Set("k", "v0");
  auto s = client_.NewSession();
  ASSERT_EQ(s->Get("k").status, ClientGetResult::Status::kHit);
  clock_.Advance(kValidity);
  auto r = s->Get("k");
  ASSERT_EQ(r.status, ClientGetResult::Status::kHit);
  EXPECT_FALSE(r.near_hit);  // local entry lapsed; refetched (and re-granted)
  EXPECT_EQ(client_.near_cache()->stats().expired, 1u);
  EXPECT_EQ(server_.Stats().near_grants, 2u);
}

TEST_F(NearSessionTest, OwnWriteVerbsInvalidateEagerly) {
  server_.store().Set("k", "v0");
  auto s = client_.NewSession();
  ASSERT_EQ(s->Get("k").status, ClientGetResult::Status::kHit);
  ASSERT_EQ(s->Quarantine("k"), ClientQResult::kGranted);
  EXPECT_GE(client_.near_cache()->stats().invalidated, 1u);
  // Within the validity interval, but the local entry is gone: the read
  // goes to the server, which reports our own quarantined key as a miss —
  // never the stale local value.
  auto r = s->Get("k");
  EXPECT_EQ(r.status, ClientGetResult::Status::kMissNoInstall);
  EXPECT_FALSE(r.near_hit);
  s->Commit();
  // Our own grant from the first Get is still outstanding, so the commit's
  // delete is held (silent holdover) until that horizon lapses.
  EXPECT_TRUE(server_.store().Get("k"));
  clock_.Advance(kValidity + 1);
  server_.SweepExpired();
  EXPECT_FALSE(server_.store().Get("k"));
}

TEST_F(NearSessionTest, CommitReinvalidatesRepopulatedEntry) {
  server_.store().Set("a", "v0");
  auto writer = client_.NewSession();
  ASSERT_EQ(writer->Quarantine("a"), ClientQResult::kGranted);
  // Another session of the same client re-populates the entry from a
  // different key's grant... simulate the repopulation race directly.
  client_.near_cache()->Insert("a", "racy", kValidity);
  writer->Commit();
  EXPECT_FALSE(client_.near_cache()->Get("a"));  // re-invalidated at commit
}

TEST_F(NearSessionTest, QaRegIsHeldUntilOutstandingGrantsLapse) {
  server_.store().Set("k", "v0");
  auto reader = client_.NewSession();
  ASSERT_EQ(reader->Get("k").status, ClientGetResult::Status::kHit);

  // A remote writer (raw backend; no near cache of its own) quarantines and
  // commits while the reader's grant is outstanding. The server must hold
  // the delete until the granted interval lapses: remote near caches may
  // legitimately serve the old value until then, and the server-side value
  // must not disappear out from under that bound.
  SessionId w = server_.GenID();
  ASSERT_EQ(server_.QaReg(w, "k"), QuarantineResult::kGranted);
  server_.Commit(w);
  ASSERT_TRUE(server_.store().Get("k"));  // still visible: grant outstanding
  EXPECT_EQ(server_.store().Get("k")->value, "v0");

  clock_.Advance(kValidity + 1);
  // First touch past the horizon reclaims the held entry silently.
  auto fresh = client_.NewSession();
  auto r = fresh->Get("k");
  EXPECT_EQ(r.status, ClientGetResult::Status::kMissRecompute);
  EXPECT_FALSE(server_.store().Get("k"));
  fresh->DropLease("k");
  IQServerStats stats = server_.Stats();
  // Silent holdover reclaim: not an expiry event (no crashed client here).
  EXPECT_EQ(stats.leases_expired, 0u);
  EXPECT_EQ(stats.expiry_deletes, 0u);
}

TEST_F(NearSessionTest, QaRegWithoutOutstandingGrantDeletesAtCommit) {
  server_.store().Set("k", "v0");
  auto reader = client_.NewSession();
  ASSERT_EQ(reader->Get("k").status, ClientGetResult::Status::kHit);
  clock_.Advance(kValidity + 1);  // grant horizon lapses untouched

  SessionId w = server_.GenID();
  ASSERT_EQ(server_.QaReg(w, "k"), QuarantineResult::kGranted);
  server_.Commit(w);
  EXPECT_FALSE(server_.store().Get("k"));  // no live grant: normal delete
}

TEST_F(NearSessionTest, SweepPrunesLapsedGrantHorizons) {
  server_.store().Set("k", "v0");
  auto s = client_.NewSession();
  ASSERT_EQ(s->Get("k").status, ClientGetResult::Status::kHit);
  clock_.Advance(kValidity + 1);
  server_.SweepExpired();
  // The horizon is gone: a quarantine now commits to an immediate delete.
  SessionId w = server_.GenID();
  ASSERT_EQ(server_.QaReg(w, "k"), QuarantineResult::kGranted);
  server_.Commit(w);
  EXPECT_FALSE(server_.store().Get("k"));
}

TEST_F(NearSessionTest, NoNearCacheWhenCapacityZero) {
  IQClient plain(server_);
  EXPECT_EQ(plain.near_cache(), nullptr);
  server_.store().Set("k", "v0");
  auto s = plain.NewSession();
  EXPECT_EQ(s->Get("k").status, ClientGetResult::Status::kHit);
  EXPECT_EQ(s->Get("k").status, ClientGetResult::Status::kHit);
}

}  // namespace
}  // namespace iq
