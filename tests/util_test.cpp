#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "util/backoff.h"
#include "util/clock.h"
#include "util/counters.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/worker_group.h"

namespace iq {
namespace {

// ---- clock -------------------------------------------------------------------

TEST(ManualClock, StartsAtConfiguredTime) {
  ManualClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
}

TEST(ManualClock, AdvanceAccumulates) {
  ManualClock clock;
  clock.Advance(5);
  clock.Advance(7);
  EXPECT_EQ(clock.Now(), 12);
}

TEST(ManualClock, SetOverrides) {
  ManualClock clock(50);
  clock.Set(10);
  EXPECT_EQ(clock.Now(), 10);
}

TEST(SteadyClock, IsMonotonic) {
  SteadyClock& clock = SteadyClock::Instance();
  Nanos a = clock.Now();
  Nanos b = clock.Now();
  EXPECT_LE(a, b);
}

TEST(Stopwatch, MeasuresManualAdvance) {
  ManualClock clock;
  Stopwatch sw(clock);
  clock.Advance(3 * kNanosPerMilli);
  EXPECT_EQ(sw.ElapsedNanos(), 3 * kNanosPerMilli);
  EXPECT_DOUBLE_EQ(sw.ElapsedMillis(), 3.0);
  sw.Restart();
  EXPECT_EQ(sw.ElapsedNanos(), 0);
}

// ---- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedValuesStayInRange) {
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(Rng, NextIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng forked = a.Fork();
  // The fork should not replay the parent's sequence.
  Rng b(42);
  b.Next();  // parent consumed one value to fork
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (forked.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBoolRespectsProbability) {
  Rng rng(77);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Zipfian, UniformWhenThetaZero) {
  ZipfianGenerator zipf(10, 0.0);
  Rng rng(1);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next(rng)];
  for (const auto& [k, c] : counts) {
    EXPECT_NEAR(c / 100000.0, 0.1, 0.02) << "item " << k;
  }
}

TEST(Zipfian, SkewConcentratesOnLowIds) {
  ZipfianGenerator zipf(1000, 0.99);
  Rng rng(2);
  int in_top_ten = 0;
  for (int i = 0; i < 100000; ++i) {
    if (zipf.Next(rng) < 10) ++in_top_ten;
  }
  // Heavy skew: the hottest 1% of items draw a large share.
  EXPECT_GT(in_top_ten, 30000);
}

TEST(Zipfian, Theta027MatchesBgSeventyTwenty) {
  // The paper's workload: theta=0.27 makes ~70% of requests reference ~20%
  // of the data (Section 6.2 / BG TR 2013-02). BG's theta is the complement
  // of the Zipf exponent: exponent = 1 - 0.27 = 0.73.
  ZipfianGenerator zipf(10000, 1.0 - 0.27);
  Rng rng(3);
  int in_top_fifth = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Next(rng) < 2000) ++in_top_fifth;
  }
  double share = static_cast<double>(in_top_fifth) / kDraws;
  EXPECT_GT(share, 0.55);
  EXPECT_LT(share, 0.85);
}

TEST(Zipfian, AllDrawsInRange) {
  ZipfianGenerator zipf(100, 0.5);
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(rng), 100u);
}

TEST(ScrambledZipfian, SpreadsHotItems) {
  ScrambledZipfian zipf(1000, 0.99);
  Rng rng(5);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Next(rng)];
  // The two hottest items should not be adjacent ids (scrambling).
  std::uint64_t hottest = 0, second = 0;
  int c1 = 0, c2 = 0;
  for (const auto& [k, c] : counts) {
    if (c > c1) {
      second = hottest;
      c2 = c1;
      hottest = k;
      c1 = c;
    } else if (c > c2) {
      second = k;
      c2 = c;
    }
  }
  EXPECT_GT(c1, 100);
  EXPECT_NE(hottest + 1, second);
}

// ---- histogram ----------------------------------------------------------------

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_DOUBLE_EQ(h.FractionBelow(100), 1.0);
}

TEST(LatencyHistogram, SingleValue) {
  LatencyHistogram h;
  h.Record(1000);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Min(), 1000);
  EXPECT_EQ(h.Max(), 1000);
  // ~1% relative error from bucketing.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 1000, 40);
}

TEST(LatencyHistogram, PercentilesOfUniformRamp) {
  LatencyHistogram h;
  for (int i = 1; i <= 10000; ++i) h.Record(i * 1000);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.50)), 5.0e6, 2e5);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.95)), 9.5e6, 4e5);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 9.9e6, 4e5);
  EXPECT_NEAR(h.MeanNanos(), 5.0005e6, 1e3);
}

TEST(LatencyHistogram, FractionBelowThreshold) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i * kNanosPerMilli);
  double frac = h.FractionBelow(100 * kNanosPerMilli);
  EXPECT_NEAR(frac, 0.1, 0.02);
}

TEST(LatencyHistogram, MergeCombinesCounts) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(1000);
  for (int i = 0; i < 100; ++i) b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 200u);
  EXPECT_EQ(a.Min(), 1000);
  EXPECT_GE(a.Max(), 1000000);
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h;
  h.Record(123456);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0);
}

TEST(LatencyHistogram, NegativeValuesClampToZero) {
  LatencyHistogram h;
  h.Record(-5);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Min(), 0);
}

TEST(LatencyHistogram, SummaryMentionsPercentiles) {
  LatencyHistogram h;
  h.Record(kNanosPerMilli);
  std::string s = h.Summary();
  EXPECT_NE(s.find("p95"), std::string::npos);
  EXPECT_NE(s.find("n=1"), std::string::npos);
}

// ---- backoff -------------------------------------------------------------------

TEST(ExponentialBackoff, GrowsWithAttempts) {
  ExponentialBackoff policy(1000, 1000000);
  Rng rng(1);
  Nanos early = policy.DelayFor(0, rng);
  Nanos late = policy.DelayFor(8, rng);
  EXPECT_GT(late, early);
}

TEST(ExponentialBackoff, RespectsCap) {
  ExponentialBackoff policy(1000, 16000);
  Rng rng(2);
  for (int attempt = 0; attempt < 60; ++attempt) {
    // Jitter adds at most 50%.
    EXPECT_LE(policy.DelayFor(attempt, rng), 16000 * 3 / 2);
  }
}

TEST(ExponentialBackoff, JitterVaries) {
  ExponentialBackoff policy(1 << 20, 1 << 30);
  Rng rng(3);
  Nanos a = policy.DelayFor(4, rng);
  Nanos b = policy.DelayFor(4, rng);
  Nanos c = policy.DelayFor(4, rng);
  EXPECT_TRUE(a != b || b != c);
}

TEST(FixedBackoff, ConstantRegardlessOfAttempt) {
  FixedBackoff policy(5000);
  Rng rng(4);
  EXPECT_EQ(policy.DelayFor(0, rng), 5000);
  EXPECT_EQ(policy.DelayFor(50, rng), 5000);
}

TEST(SleepFor, WaitsAtLeastDuration) {
  SteadyClock& clock = SteadyClock::Instance();
  Nanos t0 = clock.Now();
  SleepFor(clock, kNanosPerMilli);
  EXPECT_GE(clock.Now() - t0, kNanosPerMilli);
}

// ---- worker group ---------------------------------------------------------------

TEST(WorkerGroup, AllWorkersRun) {
  std::atomic<int> ran{0};
  WorkerGroup group;
  group.Start(8, [&](int, const std::atomic<bool>&) { ran.fetch_add(1); });
  group.StopAndJoin();
  EXPECT_EQ(ran.load(), 8);
}

TEST(WorkerGroup, StopFlagTerminatesLoops) {
  std::atomic<std::uint64_t> iterations{0};
  WorkerGroup::RunFor(4, 20 * kNanosPerMilli, SteadyClock::Instance(),
                      [&](int, const std::atomic<bool>& stop) {
                        while (!stop.load()) iterations.fetch_add(1);
                      });
  EXPECT_GT(iterations.load(), 0u);
}

TEST(WorkerGroup, WorkerIdsAreDistinct) {
  std::atomic<int> mask{0};
  WorkerGroup group;
  group.Start(4, [&](int id, const std::atomic<bool>&) {
    mask.fetch_or(1 << id);
  });
  group.StopAndJoin();
  EXPECT_EQ(mask.load(), 0b1111);
}

// ---- flags ------------------------------------------------------------------

TEST(Flags, NumberMustBeTheWholeInRangeValue) {
  int n = 7;
  EXPECT_TRUE(flags::ParseNumber("42", &n));
  EXPECT_EQ(n, 42);
  EXPECT_TRUE(flags::ParseNumber("-3", &n));
  EXPECT_EQ(n, -3);
  for (const char* bad : {"", "abc", "4x", " 4", "+4", "2147483648"}) {
    EXPECT_FALSE(flags::ParseNumber(bad, &n)) << bad;
  }
  EXPECT_EQ(n, -3);  // a refused value leaves the target untouched
  std::uint16_t port = 0;
  EXPECT_FALSE(flags::ParseNumber("65536", &port));
  EXPECT_FALSE(flags::ParseNumber("-1", &port));
  double mix = 0;
  EXPECT_TRUE(flags::ParseNumber("0.05", &mix));
  EXPECT_DOUBLE_EQ(mix, 0.05);
  for (const char* bad : {"1O", "", ".", "nan", "inf", "1e999"}) {
    EXPECT_FALSE(flags::ParseNumber(bad, &mix)) << bad;
  }
}

TEST(Flags, ValueMatchesOnlyItsPrefix) {
  const char* v = nullptr;
  ASSERT_TRUE(flags::Value("--port=11211", "--port=", &v));
  EXPECT_STREQ(v, "11211");
  EXPECT_FALSE(flags::Value("--ports=1", "--port=", &v));
}

// ---- counter sets ------------------------------------------------------------

struct Toy {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

constexpr CounterField<Toy> kToyFields[] = {
    {"toy_a", &Toy::a}, {"toy_b", &Toy::b}, {"toy_c", &Toy::c}};
static_assert(CoversEveryField(kToyFields));

// What `static_assert(CoversEveryField(...))` refuses to build.
constexpr CounterField<Toy> kMissingRow[] = {{"toy_a", &Toy::a},
                                             {"toy_b", &Toy::b}};
static_assert(!CoversEveryField(kMissingRow));
constexpr CounterField<Toy> kRepeatedMember[] = {
    {"toy_a", &Toy::a}, {"toy_b", &Toy::b}, {"toy_c", &Toy::b}};
static_assert(!CoversEveryField(kRepeatedMember));
constexpr CounterField<Toy> kRepeatedName[] = {
    {"toy_a", &Toy::a}, {"toy_b", &Toy::b}, {"toy_b", &Toy::c}};
static_assert(!CoversEveryField(kRepeatedName));

TEST(CounterSet, ConcurrentBumpsAndSumsEndExact) {
  // Three threads bump live blocks (each its own `a` and `c`, and a
  // neighbour's `b`) while a fourth sums them; every sum the reader sees
  // only grows, and the final one is exact.
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<CounterBlock<Toy>> blocks(3);
  std::atomic<bool> done{false};
  std::uint64_t sums = 0;
  std::thread reader([&] {
    Toy last;
    while (!done.load(std::memory_order_acquire)) {
      Toy total;
      for (const Toy& block : blocks) AccumulateLive(total, block, kToyFields);
      EXPECT_GE(total.a, last.a);
      EXPECT_GE(total.b, last.b);
      last = total;
      ++sums;
    }
  });
  std::vector<std::thread> writers;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    writers.emplace_back([&, i] {
      for (std::uint64_t n = 0; n < kPerThread; ++n) {
        Bump(blocks[i].a);
        Bump(blocks[(i + 1) % blocks.size()].b);
        Bump(blocks[i].c, 3);
        Unbump(blocks[i].c);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(sums, 0u);

  Toy total;
  for (const Toy& block : blocks) AccumulateLive(total, block, kToyFields);
  EXPECT_EQ(total.a, 3 * kPerThread);
  EXPECT_EQ(total.b, 3 * kPerThread);
  EXPECT_EQ(total.c, 6 * kPerThread);
  const Toy one = LoadCounters(blocks[1], kToyFields);
  EXPECT_EQ(one.a, kPerThread);
  EXPECT_EQ(one.b, kPerThread);
  EXPECT_EQ(one.c, 2 * kPerThread);
  EXPECT_EQ(Peek(blocks[2].c), 2 * kPerThread);
}

TEST(CounterSet, StatLinesRoundTripWithAPrefix) {
  const Toy toy{.a = 7, .b = 18446744073709551615u, .c = 0};
  std::string text;
  AppendStat(text, "label", "cache-a");
  AppendStats(text, toy, kToyFields, "shard3_");
  EXPECT_EQ(text,
            "STAT label cache-a\r\n"
            "STAT shard3_toy_a 7\r\n"
            "STAT shard3_toy_b 18446744073709551615\r\n"
            "STAT shard3_toy_c 0\r\n");

  std::string plain;
  AppendStats(plain, toy, kToyFields);
  const Toy back = ParseStats(plain, kToyFields);
  EXPECT_EQ(back.a, toy.a);
  EXPECT_EQ(back.b, toy.b);
  EXPECT_EQ(back.c, toy.c);

  // Lines that are not a row's, or whose value is not a whole number, are
  // ignored; LF alone ends a line too.
  const Toy parsed = ParseStats(
      "STAT toy_a 5\nSTAT toy_b 12x\r\nnoise\r\nSTAT shard3_toy_c 9\r\n"
      "STAT toy_c\r\nSTAT toy_c 4",
      kToyFields);
  EXPECT_EQ(parsed.a, 5u);
  EXPECT_EQ(parsed.b, 0u);
  EXPECT_EQ(parsed.c, 4u);

  std::vector<std::string> seen;
  ForEachStat(text, [&](std::string_view name, std::string_view value) {
    seen.push_back(std::string(name) + "=" + std::string(value));
  });
  EXPECT_EQ(seen, (std::vector<std::string>{
                      "label=cache-a", "shard3_toy_a=7",
                      "shard3_toy_b=18446744073709551615", "shard3_toy_c=0"}));
}

}  // namespace
}  // namespace iq
