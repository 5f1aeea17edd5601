#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <functional>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "bg/codec.h"
#include "kvs/kvs.h"
#include "util/clock.h"

namespace iq {
namespace {

/// `prefix` followed by `n`. Appended rather than written
/// `"prefix" + std::to_string(n)`: GCC 12 reports a spurious -Wrestrict on
/// that operator+ in a Release build.
std::string Numbered(const char* prefix, std::uint64_t n) {
  std::string s = prefix;
  s += std::to_string(n);
  return s;
}

TEST(CacheStore, GetMissesOnEmptyStore) {
  CacheStore store;
  EXPECT_FALSE(store.Get("absent"));
}

TEST(CacheStore, SetThenGetRoundTrips) {
  CacheStore store;
  EXPECT_EQ(store.Set("k", "v"), StoreResult::kStored);
  auto item = store.Get("k");
  ASSERT_TRUE(item);
  EXPECT_EQ(item->value, "v");
}

TEST(CacheStore, SetOverwrites) {
  CacheStore store;
  store.Set("k", "v1");
  store.Set("k", "v2");
  EXPECT_EQ(store.Get("k")->value, "v2");
}

TEST(CacheStore, SetStoresFlags) {
  CacheStore store;
  store.Set("k", "v", 0xBEEF);
  EXPECT_EQ(store.Get("k")->flags, 0xBEEFu);
}

TEST(CacheStore, AddOnlyWhenAbsent) {
  CacheStore store;
  EXPECT_EQ(store.Add("k", "v1"), StoreResult::kStored);
  EXPECT_EQ(store.Add("k", "v2"), StoreResult::kNotStored);
  EXPECT_EQ(store.Get("k")->value, "v1");
}

TEST(CacheStore, ReplaceOnlyWhenPresent) {
  CacheStore store;
  EXPECT_EQ(store.Replace("k", "v"), StoreResult::kNotStored);
  store.Set("k", "v1");
  EXPECT_EQ(store.Replace("k", "v2"), StoreResult::kStored);
  EXPECT_EQ(store.Get("k")->value, "v2");
}

TEST(CacheStore, DeleteReportsPresence) {
  CacheStore store;
  store.Set("k", "v");
  EXPECT_TRUE(store.Delete("k"));
  EXPECT_FALSE(store.Delete("k"));
  EXPECT_FALSE(store.Get("k"));
}

TEST(CacheStore, CasSucceedsWithMatchingVersion) {
  CacheStore store;
  store.Set("k", "v1");
  auto item = store.Get("k");
  EXPECT_EQ(store.Cas("k", "v2", item->cas), StoreResult::kStored);
  EXPECT_EQ(store.Get("k")->value, "v2");
}

TEST(CacheStore, CasFailsAfterInterveningWrite) {
  CacheStore store;
  store.Set("k", "v1");
  auto item = store.Get("k");
  store.Set("k", "other");
  EXPECT_EQ(store.Cas("k", "v2", item->cas), StoreResult::kExists);
  EXPECT_EQ(store.Get("k")->value, "other");
}

TEST(CacheStore, CasOnMissingKeyIsNotFound) {
  CacheStore store;
  EXPECT_EQ(store.Cas("k", "v", 1), StoreResult::kNotFound);
}

TEST(CacheStore, CasVersionChangesOnEveryWrite) {
  CacheStore store;
  store.Set("k", "a");
  auto v1 = store.Get("k")->cas;
  store.Set("k", "b");
  auto v2 = store.Get("k")->cas;
  EXPECT_NE(v1, v2);
}

TEST(CacheStore, AppendPrependExtendValue) {
  CacheStore store;
  store.Set("k", "mid");
  EXPECT_EQ(store.Append("k", ">"), StoreResult::kStored);
  EXPECT_EQ(store.Prepend("k", "<"), StoreResult::kStored);
  EXPECT_EQ(store.Get("k")->value, "<mid>");
}

TEST(CacheStore, AppendPrependMissIsNotStored) {
  CacheStore store;
  EXPECT_EQ(store.Append("k", "x"), StoreResult::kNotStored);
  EXPECT_EQ(store.Prepend("k", "x"), StoreResult::kNotStored);
  EXPECT_FALSE(store.Get("k"));
}

TEST(CacheStore, IncrDecrArithmetic) {
  CacheStore store;
  store.Set("n", "10");
  EXPECT_EQ(store.Incr("n", 5), 15u);
  EXPECT_EQ(store.Decr("n", 3), 12u);
  EXPECT_EQ(store.Get("n")->value, "12");
}

TEST(CacheStore, DecrSaturatesAtZero) {
  CacheStore store;
  store.Set("n", "3");
  EXPECT_EQ(store.Decr("n", 10), 0u);
}

TEST(CacheStore, IncrOnMissingOrNonNumericFails) {
  CacheStore store;
  EXPECT_FALSE(store.Incr("absent", 1));
  store.Set("s", "abc");
  EXPECT_FALSE(store.Incr("s", 1));
  store.Set("t", "12x");
  EXPECT_FALSE(store.Incr("t", 1));
}

TEST(CacheStore, FlushDropsEverything) {
  CacheStore store;
  for (int i = 0; i < 100; ++i) store.Set(Numbered("k", i), "v");
  store.Flush();
  EXPECT_EQ(store.Stats().item_count, 0u);
  EXPECT_FALSE(store.Get("k0"));
}

TEST(CacheStore, TtlExpiresWithManualClock) {
  ManualClock clock;
  CacheStore store({.shard_count = 4, .memory_budget_bytes = 0, .clock = &clock});
  store.Set("k", "v", 0, 100);
  EXPECT_TRUE(store.Get("k"));
  clock.Advance(99);
  EXPECT_TRUE(store.Get("k"));
  clock.Advance(1);
  EXPECT_FALSE(store.Get("k"));
  EXPECT_EQ(store.Stats().expirations, 1u);
}

TEST(CacheStore, ZeroTtlNeverExpires) {
  ManualClock clock;
  CacheStore store({.shard_count = 1, .memory_budget_bytes = 0, .clock = &clock});
  store.Set("k", "v");
  clock.Advance(1'000'000'000'000);
  EXPECT_TRUE(store.Get("k"));
}

TEST(CacheStore, LruEvictionUnderBudget) {
  // Budget for roughly 10 items in one shard; insert 50.
  CacheStore store({.shard_count = 1, .memory_budget_bytes = 800});
  for (int i = 0; i < 50; ++i) {
    store.Set("key" + std::to_string(i), "0123456789");
  }
  auto stats = store.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_used, 800u);
  // Most-recent key survives.
  EXPECT_TRUE(store.Get("key49"));
}

TEST(CacheStore, LruKeepsRecentlyReadItems) {
  CacheStore store({.shard_count = 1, .memory_budget_bytes = 1200});
  for (int i = 0; i < 10; ++i) store.Set("key" + std::to_string(i), "0123456789");
  // Touch key0 repeatedly so key1 becomes the LRU victim.
  for (int i = 0; i < 5; ++i) store.Get("key0");
  for (int i = 10; i < 18; ++i) store.Set("key" + std::to_string(i), "0123456789");
  if (store.Stats().evictions > 0) {
    EXPECT_TRUE(store.Get("key0"));
  }
}

// ---- CLOCK eviction -------------------------------------------------------

// Ten 96-byte items (ItemBytes = key + value + 64) fill this one-shard
// budget exactly, so each further insert evicts exactly one item.
constexpr std::size_t kTenItems = 960;
const std::string kClockValue(29, 'v');
std::string ClockKey(int i) {
  return Numbered(i < 10 ? "k0" : "k", i);
}

/// Presence without a hit: sets no reference bit.
bool Holds(CacheStore& store, const std::string& key) {
  auto g = store.LockKey(key);
  return store.ContainsLocked(g, key);
}

/// Inserts k00..k10, each holding `value` (29 bytes), into a ten-item
/// store. The one eviction this forces sweeps (and clears) every insert's
/// reference bit. Returns the ten survivors in insertion order.
std::vector<std::string> FillPastOneEviction(
    CacheStore& store, const std::string& value = kClockValue) {
  for (int i = 0; i <= 10; ++i) store.Set(ClockKey(i), value);
  EXPECT_EQ(store.Stats().evictions, 1u);
  std::vector<std::string> survivors;
  for (int i = 0; i <= 10; ++i) {
    if (Holds(store, ClockKey(i))) survivors.push_back(ClockKey(i));
  }
  EXPECT_EQ(survivors.size(), 10u);
  return survivors;
}

TEST(CacheStore, OnceReadItemOutlivesLaterLockFreeHits) {
  // One lock-free read must protect its item however many lock-free hits
  // other keys take before the next eviction.
  CacheStore store({.shard_count = 1, .memory_budget_bytes = kTenItems});
  const auto survivors = FillPastOneEviction(store);
  const std::string& once = survivors[0];
  ASSERT_TRUE(store.OptimisticGet(once));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.OptimisticGet(survivors[1 + i % 2]));
  }
  store.Set(ClockKey(11), kClockValue);
  ASSERT_EQ(store.Stats().evictions, 2u);
  EXPECT_TRUE(Holds(store, once));
  EXPECT_EQ(store.CheckInvariants(), "");
}

TEST(CacheStore, EvictionTakesTheUnreferencedItemFirst) {
  // Whatever bucket the unreferenced item hashes to, the sweep passes over
  // every referenced one (locked or lock-free hit) to reach it.
  for (int cold = 0; cold < 10; ++cold) {
    CacheStore store({.shard_count = 1, .memory_budget_bytes = kTenItems});
    const auto survivors = FillPastOneEviction(store);
    for (int i = 0; i < 10; ++i) {
      if (i == cold) continue;
      if (i % 2 == 0) {
        ASSERT_TRUE(store.OptimisticGet(survivors[i]));
      } else {
        auto g = store.LockKey(survivors[i]);
        ASSERT_TRUE(store.GetLocked(g, survivors[i]));
      }
    }
    store.Set(ClockKey(11), kClockValue);
    ASSERT_EQ(store.Stats().evictions, 2u);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(Holds(store, survivors[i]), i != cold) << survivors[i];
    }
    EXPECT_TRUE(Holds(store, ClockKey(11)));
  }
}

TEST(CacheStore, OversizeWriteEvictsOnlyItself) {
  // An item larger than the whole shard budget cannot stay. It must be the
  // one eviction, not the last of several: the write leaves it referenced,
  // so the sweep would take the items around it first.
  const std::string big(kTenItems, 'b');
  struct Case {
    const char* write;
    std::function<StoreResult(CacheStore&)> run;
    std::string evicted;
  };
  const Case cases[] = {
      {"set of a fresh key", [&](CacheStore& s) { return s.Set("big", big); },
       "big"},
      {"overwrite", [&](CacheStore& s) { return s.Set(ClockKey(3), big); },
       ClockKey(3)},
      {"append", [&](CacheStore& s) { return s.Append(ClockKey(3), big); },
       ClockKey(3)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.write);
    CacheStore store({.shard_count = 1, .memory_budget_bytes = kTenItems});
    for (int i = 0; i < 10; ++i) store.Set(ClockKey(i), kClockValue);
    EXPECT_EQ(c.run(store), StoreResult::kStored);
    EXPECT_EQ(store.Stats().evictions, 1u);
    EXPECT_FALSE(Holds(store, c.evicted));
    for (int i = 0; i < 10; ++i) {
      if (ClockKey(i) != c.evicted) {
        EXPECT_TRUE(Holds(store, ClockKey(i)));
      }
    }
    EXPECT_EQ(store.CheckInvariants(), "");
  }
}

TEST(CacheStore, StatsCountHitsAndMisses) {
  CacheStore store;
  store.Set("k", "v");
  store.Get("k");
  store.Get("absent");
  auto stats = store.Stats();
  EXPECT_EQ(stats.get_hits, 1u);
  EXPECT_EQ(stats.get_misses, 1u);
  EXPECT_EQ(stats.sets, 1u);
}

TEST(CacheStore, StatsTrackCasMismatches) {
  CacheStore store;
  store.Set("k", "v");
  store.Cas("k", "x", 999999);
  EXPECT_EQ(store.Stats().cas_mismatches, 1u);
}

TEST(CacheStore, LockedApiMatchesPublicApi) {
  CacheStore store;
  {
    auto g = store.LockKey("k");
    EXPECT_FALSE(store.ContainsLocked(g, "k"));
    store.SetLocked(g, "k", "v");
    EXPECT_TRUE(store.ContainsLocked(g, "k"));
    auto item = store.GetLocked(g, "k");
    ASSERT_TRUE(item);
    EXPECT_EQ(item->value, "v");
    EXPECT_TRUE(store.DeleteLocked(g, "k"));
    EXPECT_FALSE(store.DeleteLocked(g, "k"));
  }
  EXPECT_FALSE(store.Get("k"));
}

TEST(CacheStore, ShardIndexIsStable) {
  CacheStore store({.shard_count = 8, .memory_budget_bytes = 0});
  EXPECT_EQ(store.ShardIndexFor("abc"), store.ShardIndexFor("abc"));
  EXPECT_LT(store.ShardIndexFor("abc"), store.shard_count());
}

TEST(CacheStore, ConcurrentMixedOpsKeepCountsSane) {
  CacheStore store({.shard_count = 16, .memory_budget_bytes = 0});
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kOps; ++i) {
        std::string key = Numbered("k", i % 64);
        switch ((t + i) % 4) {
          case 0: store.Set(key, "v"); break;
          case 1: store.Get(key); break;
          case 2: store.Delete(key); break;
          case 3: store.Append(key, "x"); break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  auto stats = store.Stats();
  EXPECT_EQ(stats.gets, static_cast<std::uint64_t>(kThreads) * kOps / 4);
  EXPECT_EQ(stats.deletes, static_cast<std::uint64_t>(kThreads) * kOps / 4);
}

TEST(CacheStore, ConcurrentIncrementsAreAtomic) {
  CacheStore store;
  store.Set("n", "0");
  constexpr int kThreads = 8;
  constexpr int kIncrs = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store] {
      for (int i = 0; i < kIncrs; ++i) store.Incr("n", 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.Get("n")->value, std::to_string(kThreads * kIncrs));
}

// Parameterized sweep: every mutating command behaves identically across
// shard counts (the sharding must be an invisible implementation detail).
class ShardCountTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardCountTest, BasicProtocolHoldsForAllShardCounts) {
  CacheStore store({.shard_count = GetParam(), .memory_budget_bytes = 0});
  for (int i = 0; i < 100; ++i) {
    std::string k = "key" + std::to_string(i);
    EXPECT_EQ(store.Set(k, std::to_string(i)), StoreResult::kStored);
  }
  for (int i = 0; i < 100; ++i) {
    std::string k = "key" + std::to_string(i);
    auto item = store.Get(k);
    ASSERT_TRUE(item) << k;
    EXPECT_EQ(item->value, std::to_string(i));
    EXPECT_EQ(store.Incr(k, 10), static_cast<std::uint64_t>(i) + 10);
    EXPECT_TRUE(store.Delete(k));
  }
  EXPECT_EQ(store.Stats().item_count, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardCountTest,
                         ::testing::Values(1, 2, 3, 8, 64));

// ---- accounting fixes -----------------------------------------------------

TEST(CacheStore, IncrCountsAsAccessForLru) {
  // After the fill's eviction every bit is clear, so the next victim is
  // whichever survivor the hand reaches first. Incr must set its item's
  // bit: whichever survivor it touches outlives the next eviction.
  const std::string one = std::string(28, '0') + "1";  // 29 bytes
  for (int touched = 0; touched < 10; ++touched) {
    CacheStore store({.shard_count = 1, .memory_budget_bytes = kTenItems});
    const auto survivors = FillPastOneEviction(store, one);
    ASSERT_EQ(store.Incr(survivors[touched], 1), 2u);
    store.Set(ClockKey(11), one);
    ASSERT_EQ(store.Stats().evictions, 2u);
    EXPECT_TRUE(Holds(store, survivors[touched])) << survivors[touched];
    EXPECT_EQ(store.CheckInvariants(), "");
  }
}

TEST(CacheStore, IncrGrowthReenforcesByteBudget) {
  CacheStore store({.shard_count = 1, .memory_budget_bytes = 340});
  for (int i = 0; i < 5; ++i) store.Set(Numbered("n", i), "9");
  // 5 * 67 = 335 <= 340. Grow n4 from "9" to a 20-digit number: the shard
  // crosses its budget and must evict, not silently blow past it.
  ASSERT_TRUE(store.Incr("n4", 18'446'744'073'709'551'000ULL));
  auto stats = store.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_used, 340u);
  EXPECT_EQ(store.CheckInvariants(), "");
}

TEST(CacheStore, RefillAfterFlushEvictsWithinBudget) {
  CacheStore store({.shard_count = 2, .memory_budget_bytes = 2000});
  for (int i = 0; i < 20; ++i) {
    store.Set("pre" + std::to_string(i), std::string(30, 'a'));
  }
  store.Flush();
  EXPECT_EQ(store.CheckInvariants(), "");
  EXPECT_EQ(store.Stats().flushes, 1u);
  // Refill past the budget: the CLOCK sweep must find victims among the
  // refilled keys only.
  for (int i = 0; i < 40; ++i) {
    store.Set("post" + std::to_string(i), std::string(50, 'b'));
  }
  auto stats = store.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_used, 2000u);
  EXPECT_EQ(store.CheckInvariants(), "");
}

TEST(CacheStore, InvariantsHoldAcrossMutationMix) {
  CacheStore store({.shard_count = 4, .memory_budget_bytes = 3000});
  std::uint64_t rng = 0x9e3779b9;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int i = 0; i < 2000; ++i) {
    std::string key = Numbered("k", next() % 48);
    switch (next() % 8) {
      case 0:
      case 1:
        store.Set(key, std::string(next() % 60, 'v'));
        break;
      case 2:
        store.Incr(key, next() % 1000);
        break;
      case 3:
        store.Append(key, std::string(next() % 20, 'x'));
        break;
      case 4: {
        if (auto item = store.Get(key)) store.Cas(key, "swap", item->cas);
        break;
      }
      case 5:
        store.Delete(key);
        break;
      case 6:
        store.Get(key);
        break;
      case 7:
        if (next() % 97 == 0) store.Flush();
        break;
    }
    if (i % 50 == 0) {
      ASSERT_EQ(store.CheckInvariants(), "") << "op=" << i;
    }
  }
  EXPECT_EQ(store.CheckInvariants(), "");
}

// ---- optimistic (mutex-free) reads ----------------------------------------

TEST(CacheStore, OptimisticGetServesHitWithoutLock) {
  CacheStore store;
  store.Set("k", "value", 0xBEEF);
  auto opt = store.OptimisticGet("k");
  ASSERT_TRUE(opt);
  EXPECT_EQ(opt->value, "value");
  EXPECT_EQ(opt->flags, 0xBEEFu);
  EXPECT_EQ(opt->cas, store.Get("k")->cas);
  EXPECT_GE(store.Stats().opt_hits, 1u);
}

TEST(CacheStore, OptimisticGetFallsBackWhereItMust) {
  CacheStore store;  // default optimistic_value_cap = 256
  EXPECT_FALSE(store.OptimisticGet("absent"));
  // Oversize value: stored out of line, the optimistic path refuses it,
  // Get serves it.
  std::string big(300, 'b');
  store.Set("big", big);
  EXPECT_FALSE(store.OptimisticGet("big"));
  EXPECT_EQ(store.Get("big")->value, big);
  // Long key: out of line too.
  std::string long_key(CacheStore::kOptKeyCap + 1, 'k');
  store.Set(long_key, "v");
  EXPECT_FALSE(store.OptimisticGet(long_key));
  EXPECT_TRUE(store.Get(long_key));
  // Deleted key: its entry dies with the item.
  store.Set("gone", "v");
  ASSERT_TRUE(store.OptimisticGet("gone"));
  store.Delete("gone");
  EXPECT_FALSE(store.OptimisticGet("gone"));
  EXPECT_GE(store.Stats().opt_fallbacks, 1u);
  EXPECT_EQ(store.CheckInvariants(), "");
}

TEST(CacheStore, OptimisticGetDisabledByZeroCap) {
  CacheStore store({.shard_count = 4,
                    .memory_budget_bytes = 0,
                    .optimistic_value_cap = 0});
  store.Set("k", "v");
  EXPECT_FALSE(store.OptimisticGet("k"));
  EXPECT_EQ(store.Get("k")->value, "v");
  EXPECT_EQ(store.Stats().opt_hits, 0u);
  EXPECT_EQ(store.CheckInvariants(), "");
}

TEST(CacheStore, OptimisticGetTracksEveryMutation) {
  CacheStore store;
  store.Set("k", "a");
  std::uint64_t cas1 = store.OptimisticGet("k")->cas;
  store.Append("k", "b");
  auto after_append = store.OptimisticGet("k");
  ASSERT_TRUE(after_append);
  EXPECT_EQ(after_append->value, "ab");
  EXPECT_NE(after_append->cas, cas1);
  store.Set("n", "41");
  ASSERT_TRUE(store.Incr("n", 1));
  EXPECT_EQ(store.OptimisticGet("n")->value, "42");
  auto item = store.Get("k");
  ASSERT_EQ(store.Cas("k", "swapped", item->cas), StoreResult::kStored);
  EXPECT_EQ(store.OptimisticGet("k")->value, "swapped");
  store.Flush();
  EXPECT_FALSE(store.OptimisticGet("k"));
  EXPECT_EQ(store.CheckInvariants(), "");
}

TEST(CacheStore, OptimisticGetRespectsTtl) {
  ManualClock clock;
  CacheStore store(
      {.shard_count = 2, .memory_budget_bytes = 0, .clock = &clock});
  store.Set("k", "v", 0, 100);
  clock.Advance(99);
  EXPECT_TRUE(store.OptimisticGet("k"));
  clock.Advance(1);
  // Expired: the optimistic path must not serve it (and must not expire it
  // either — that is locked-path bookkeeping).
  EXPECT_FALSE(store.OptimisticGet("k"));
  EXPECT_FALSE(store.Get("k"));
  EXPECT_EQ(store.Stats().expirations, 1u);
}

TEST(CacheStore, OptimisticHitsFoldIntoGetCounters) {
  CacheStore store;
  store.Set("k", "v");
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(store.Get("k"));
  auto stats = store.Stats();
  EXPECT_EQ(stats.gets, 3u);
  EXPECT_EQ(stats.get_hits, 3u);
  EXPECT_EQ(stats.opt_hits, 3u);
}

TEST(CacheStore, OptimisticGetReachesEveryKeyOfAWarmBgCache) {
  // bg_read's warm cache: the 140,000 keys of a 10,000-member BG graph in a
  // default store. The lock-free probe must end where the locked one does,
  // at an empty slot, however long the probe run: then every key is a
  // lock-free hit.
  std::vector<std::string> keys;
  for (bg::MemberId id = 0; id < 10000; ++id) {
    keys.push_back(bg::ProfileKey(id));
    keys.push_back(bg::FriendsKey(id));
    keys.push_back(bg::PendingKey(id));
    keys.push_back(bg::TopKKey(id));
  }
  for (std::int64_t r = 0; r < 100000; ++r) keys.push_back(bg::CommentsKey(r));
  CacheStore store;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    store.Set(keys[i], std::string(i % 10 == 0 ? 100 : 23, 'v'));
  }
  std::size_t served = 0;
  for (const std::string& key : keys) served += store.OptimisticGet(key) ? 1 : 0;
  const CacheStats stats = store.Stats();
  EXPECT_EQ(served, keys.size());
  EXPECT_EQ(stats.opt_hits, keys.size());
  EXPECT_EQ(stats.opt_fallbacks, 0u);
}

TEST(CacheStore, OptimisticReadsUnderConcurrentWrites) {
  // Readers hammer Get while writers churn the same keys through set/
  // delete/append and evictions. Any value a reader observes must be one
  // the key legitimately held (prefix-tagged); TSan checks the seqlock.
  CacheStore store({.shard_count = 4, .memory_budget_bytes = 8000});
  constexpr int kKeys = 32;
  auto key_for = [](int k) { return Numbered("key", k); };
  auto tag_for = [](int k) { return Numbered("k", k) + ":"; };
  for (int k = 0; k < kKeys; ++k) {
    store.Set(key_for(k), tag_for(k) + "0");
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < kKeys; ++k) {
          auto item = store.Get(key_for(k));
          if (!item) continue;
          const std::string want = tag_for(k);
          if (item->value.compare(0, want.size(), want) != 0) {
            bad_reads.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      for (int gen = 1; gen <= 1500; ++gen) {
        int k = (gen * 7 + t * 13) % kKeys;
        switch (gen % 4) {
          case 0:
            store.Delete(key_for(k));
            break;
          case 1:  // oversize values exercise the fallback path
            store.Set(key_for(k), tag_for(k) + std::string(280, 'x'));
            break;
          default:
            store.Set(key_for(k), tag_for(k) + std::to_string(gen));
            break;
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_EQ(store.CheckInvariants(), "");
}

/// A value segment of `len` bytes for the key tagged `tag`: the tag, the
/// length in decimal, a colon, then the tag repeated. "a3:" is the
/// shortest.
std::string Segment(char tag, std::size_t len) {
  std::string seg(1, tag);
  seg += std::to_string(len);
  seg += ':';
  seg.resize(len, tag);
  return seg;
}

/// Whether `value` is whole: one or more complete segments of `tag`.
bool WholeValue(char tag, std::string_view value) {
  if (value.empty()) return false;
  while (!value.empty()) {
    const std::size_t colon = value.find(':');
    std::size_t len = 0;
    if (value[0] != tag || colon == std::string_view::npos ||
        std::from_chars(value.data() + 1, value.data() + colon, len).ptr !=
            value.data() + colon ||
        len <= colon || len > value.size() ||
        value.substr(colon + 1, len - colon - 1)
                .find_first_not_of(tag) != std::string_view::npos) {
      return false;
    }
    value.remove_prefix(len);
  }
  return true;
}

TEST(CacheStore, ReadersSeeWholeValuesAcrossSizeClasses) {
  // Writers move each key's value between entries of different size
  // classes and the out-of-line form (3, 40, 200 and 300 bytes, and
  // appends that cross classes), and delete it, so index slots swing,
  // entries die and are recycled, and probe runs shift back. Lock-free and
  // locked readers must only ever see a whole value of the key they read.
  CacheStore store({.shard_count = 1, .memory_budget_bytes = 0});
  constexpr int kKeys = 6;
  auto key_for = [](int k) { return Numbered("cls", k); };
  auto tag_for = [](int k) { return static_cast<char>('a' + k); };
  using Step = std::function<void(const std::string&, char)>;
  const Step cycle[] = {
      [&](const std::string& key, char tag) { store.Set(key, Segment(tag, 3)); },
      [&](const std::string& key, char tag) {
        store.Append(key, Segment(tag, 40));  // 43: another class
      },
      [&](const std::string& key, char tag) {
        store.Set(key, Segment(tag, 200));
      },
      [&](const std::string& key, char tag) {
        store.Append(key, Segment(tag, 40));  // 240: the same class
      },
      [&](const std::string& key, char tag) {
        store.Append(key, Segment(tag, 40));  // 280: out of line
      },
      [&](const std::string& key, char tag) {
        store.Set(key, Segment(tag, 300));  // out of line, in place
      },
      [&](const std::string& key, char tag) {
        store.Set(key, Segment(tag, 40));
      },
      [&](const std::string& key, char) { store.Delete(key); },
  };
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> seen{0};
  std::atomic<std::uint64_t> torn{0};
  auto check = [&](int k, const std::optional<CacheItem>& item) {
    if (!item) return;
    seen.fetch_add(1, std::memory_order_relaxed);
    if (!WholeValue(tag_for(k), item->value)) {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < kKeys; ++k) {
          const std::string key = key_for(k);
          if (t < 2) {
            check(k, store.OptimisticGet(key));
          } else {
            auto g = store.LockKey(key);
            check(k, store.GetLocked(g, key));
          }
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      for (int round = 0; round < 1500; ++round) {
        for (int k = t; k < kKeys; k += 2) {
          cycle[(round + k) % std::size(cycle)](key_for(k), tag_for(k));
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_GT(seen.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(store.Stats().opt_hits, 0u);
  EXPECT_EQ(store.CheckInvariants(), "");
}

}  // namespace
}  // namespace iq
