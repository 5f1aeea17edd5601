// Tests for the observability layer: the lease-event trace ring (including
// the drain-while-writing race the TSan job exercises), the trace emission
// sequence of IQServer, and the `metrics` rendering of the STAT lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "core/iq_server.h"
#include "net/server.h"
#include "util/clock.h"
#include "util/trace_ring.h"

namespace iq {
namespace {

TraceEvent Ev(LeaseTraceKind kind, std::uint64_t session, Nanos at) {
  TraceEvent e;
  e.kind = kind;
  e.session = session;
  e.key_hash = TraceKeyHash("k");
  e.at = at;
  return e;
}

// ---- TraceRing ----------------------------------------------------------------

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 1u);
  EXPECT_EQ(TraceRing(2).capacity(), 2u);
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRingTest, DisabledRingRecordsNothing) {
  TraceRing ring(0);
  EXPECT_FALSE(ring.enabled());
  ring.Record(LeaseTraceKind::kIGrant, 0, 1, 2, 3);
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.Snapshot(100).empty());
}

TEST(TraceRingTest, RecordsInOrderWithSequenceNumbers) {
  TraceRing ring(8);
  for (int i = 0; i < 5; ++i) {
    ring.Record(LeaseTraceKind::kQRefGrant, 2, 100 + i, 7, 1000 + i);
  }
  auto events = ring.Snapshot(100);
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(events[i].session, 100u + i);
    EXPECT_EQ(events[i].at, 1000 + i);
    EXPECT_EQ(events[i].shard, 2u);
    EXPECT_EQ(events[i].kind, LeaseTraceKind::kQRefGrant);
  }
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, WrapKeepsNewestEvents) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.Record(LeaseTraceKind::kCommit, 0, i, 0, 0);
  }
  auto events = ring.Snapshot(100);
  ASSERT_EQ(events.size(), 4u);
  // Sessions 6..9 survive; 0..5 were overwritten.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].session, 6 + i);
    EXPECT_EQ(events[i].seq, 6 + i);
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
}

TEST(TraceRingTest, SnapshotHonorsMaxEvents) {
  TraceRing ring(16);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.Record(LeaseTraceKind::kAbort, 0, i, 0, 0);
  }
  auto events = ring.Snapshot(3);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].session, 7u);  // the newest three, oldest first
  EXPECT_EQ(events[2].session, 9u);
  EXPECT_TRUE(ring.Snapshot(0).empty());
}

// The TSan target: concurrent writers racing a draining reader. Every
// accepted event must be internally consistent (our writers encode the
// session in every field, so a torn mix is detectable).
TEST(TraceRingTest, ConcurrentWritersWithDrainingReader) {
  TraceRing ring(64);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> inconsistent{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const TraceEvent& e : ring.Snapshot(64)) {
        // kind encodes session % kLeaseTraceKindCount; at encodes session.
        if (e.at != static_cast<Nanos>(e.session) ||
            static_cast<std::size_t>(e.kind) !=
                e.session % kLeaseTraceKindCount) {
          inconsistent.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        std::uint64_t session = static_cast<std::uint64_t>(w) * kPerWriter + i;
        ring.Record(
            static_cast<LeaseTraceKind>(session % kLeaseTraceKindCount),
            static_cast<std::uint32_t>(w), session, session,
            static_cast<Nanos>(session));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(ring.recorded(), kWriters * kPerWriter);
  // With 4 concurrent writers on a 64-slot ring, wrapping a full capacity
  // during one writer's stores is out of reach, so no torn slot can pass
  // the double seq check.
  EXPECT_EQ(inconsistent.load(), 0u);
  auto final_events = ring.Snapshot(64);
  EXPECT_FALSE(final_events.empty());
  for (const TraceEvent& e : final_events) {
    EXPECT_EQ(e.at, static_cast<Nanos>(e.session));
  }
}

// ---- wire format round trip ---------------------------------------------------

TEST(TraceFormatTest, FormatParseRoundTrip) {
  std::vector<TraceEvent> in;
  in.push_back(Ev(LeaseTraceKind::kIGrant, 7, 111));
  in.push_back(Ev(LeaseTraceKind::kExpireDelete, 0, -5));
  in[1].shard = 3;
  in[1].seq = 42;
  std::string wire = FormatTraceEvents(in);
  std::vector<TraceEvent> out;
  ASSERT_TRUE(ParseTraceEvents(wire + "END\r\n", &out));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].kind, in[i].kind);
    EXPECT_EQ(out[i].shard, in[i].shard);
    EXPECT_EQ(out[i].session, in[i].session);
    EXPECT_EQ(out[i].key_hash, in[i].key_hash);
    EXPECT_EQ(out[i].at, in[i].at);
    EXPECT_EQ(out[i].seq, in[i].seq);
  }
}

TEST(TraceFormatTest, ParseRejectsMalformedTraceLine) {
  std::vector<TraceEvent> out;
  EXPECT_FALSE(ParseTraceEvents("TRACE 1 2 3\r\n", &out));
  EXPECT_FALSE(ParseTraceEvents("TRACE 1 2 3 nosuchkind 4 5\r\n", &out));
  out.clear();
  EXPECT_TRUE(ParseTraceEvents("END\r\n", &out));  // empty trace
  EXPECT_TRUE(out.empty());
}

TEST(TraceFormatTest, KindNamesRoundTrip) {
  for (std::size_t i = 0; i < kLeaseTraceKindCount; ++i) {
    auto kind = static_cast<LeaseTraceKind>(i);
    auto parsed = ParseLeaseTraceKind(ToString(kind));
    ASSERT_TRUE(parsed) << ToString(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseLeaseTraceKind("bogus"));
}

// ---- IQServer emission --------------------------------------------------------

class ServerTraceTest : public ::testing::Test {
 protected:
  ServerTraceTest()
      : server_(CacheStore::Config{.shard_count = 1,
                                   .memory_budget_bytes = 0,
                                   .clock = &clock_},
                Config()) {}
  IQServer::Config Config() {
    IQServer::Config cfg;
    cfg.clock = &clock_;
    cfg.trace_capacity = 64;
    return cfg;
  }
  std::vector<LeaseTraceKind> Kinds(std::size_t max = 100) {
    std::vector<LeaseTraceKind> kinds;
    for (const TraceEvent& e : server_.TraceSnapshot(max)) {
      kinds.push_back(e.kind);
    }
    return kinds;
  }
  ManualClock clock_;
  IQServer server_;
};

TEST_F(ServerTraceTest, RefreshSessionEmitsGrantAndRelease) {
  server_.store().Set("k", "old");
  clock_.Advance(1);
  QaReadReply q = server_.QaRead("k", 1);
  clock_.Advance(1);
  server_.SaR("k", "new", q.token);
  EXPECT_EQ(Kinds(), (std::vector<LeaseTraceKind>{
                         LeaseTraceKind::kQRefGrant, LeaseTraceKind::kRelease}));
}

TEST_F(ServerTraceTest, ReadMissEmitsIGrantAndInstallRelease) {
  GetReply r = server_.IQget("k", 1);
  clock_.Advance(1);
  server_.IQset("k", "v", r.token);
  EXPECT_EQ(Kinds(), (std::vector<LeaseTraceKind>{
                         LeaseTraceKind::kIGrant, LeaseTraceKind::kRelease}));
}

TEST_F(ServerTraceTest, ConflictAndPreemptionAreTraced) {
  server_.IQget("k", 1);           // i_grant
  clock_.Advance(1);
  server_.QaRead("k", 2);          // i_void + q_ref_grant
  clock_.Advance(1);
  server_.QaRead("k", 3);          // reject
  clock_.Advance(1);
  server_.Commit(2);               // commit
  EXPECT_EQ(Kinds(),
            (std::vector<LeaseTraceKind>{
                LeaseTraceKind::kIGrant, LeaseTraceKind::kIVoid,
                LeaseTraceKind::kQRefGrant, LeaseTraceKind::kReject,
                LeaseTraceKind::kCommit}));
  auto events = server_.TraceSnapshot(100);
  EXPECT_EQ(events[1].session, 1u);  // the preempted reader
  EXPECT_EQ(events[3].session, 3u);  // the rejected writer
  EXPECT_EQ(events[0].key_hash, TraceKeyHash("k"));
}

TEST_F(ServerTraceTest, ExpiryEmitsExpireDelete) {
  IQServer::Config cfg = Config();
  cfg.lease_lifetime = 1000;
  IQServer server(
      CacheStore::Config{.shard_count = 1, .memory_budget_bytes = 0,
                         .clock = &clock_},
      cfg);
  server.store().Set("k", "v");
  server.QaRead("k", 1);
  clock_.Advance(1000);
  server.SweepExpired();
  auto events = server.TraceSnapshot(100);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, LeaseTraceKind::kQRefGrant);
  EXPECT_EQ(events[1].kind, LeaseTraceKind::kExpireDelete);
  EXPECT_EQ(events[1].session, 1u);
}

TEST_F(ServerTraceTest, TracingDisabledByZeroCapacity) {
  IQServer::Config cfg = Config();
  cfg.trace_capacity = 0;
  IQServer server(CacheStore::Config{.clock = &clock_}, cfg);
  EXPECT_FALSE(server.trace_enabled());
  server.QaRead("k", 1);
  EXPECT_TRUE(server.TraceSnapshot(100).empty());
  EXPECT_EQ(server.TraceInfoTotal().recorded, 0u);
}

// ---- Prometheus exposition ----------------------------------------------------

TEST(MetricsTest, FormatStatsRendersOneSamplePerStatLine) {
  IQServer server{CacheStore::Config{}, IQServer::Config{}};
  for (int i = 0; i < 6; ++i) {
    QaReadReply q = server.QaRead("k", 1);
    server.SaR("k", "v", q.token);
    server.Commit(1);
  }
  server.command_latencies().Record(
      static_cast<std::size_t>(CommandClass::kIQget), 750);
  std::string stats = net::FormatStats(server);
  std::map<std::string, double> series;
  ASSERT_TRUE(net::ParseMetrics(net::FormatMetrics(stats), &series));

  std::istringstream lines(stats);
  std::string stat, name;
  std::uint64_t value = 0;
  std::size_t count = 0;
  while (lines >> stat >> name >> value) {
    ++count;
    ASSERT_TRUE(series.count("iq_" + name)) << name;
    EXPECT_DOUBLE_EQ(series.at("iq_" + name), static_cast<double>(value))
        << name;
  }
  EXPECT_TRUE(lines.eof()) << "a STAT line did not parse";
  EXPECT_EQ(series.size(), count);
  EXPECT_DOUBLE_EQ(series.at("iq_q_ref_granted"), 6.0);
  EXPECT_DOUBLE_EQ(series.at("iq_commits"), 6.0);
  EXPECT_DOUBLE_EQ(series.at("iq_item_count"), 1.0);
  EXPECT_DOUBLE_EQ(series.at("iq_leases_live"), 0.0);
  EXPECT_GT(series.at("iq_trace_recorded"), 0.0);
  EXPECT_DOUBLE_EQ(series.at("iq_trace_dropped"), 0.0);
  EXPECT_DOUBLE_EQ(series.at("iq_cmd_iqget_count"), 1.0);
  EXPECT_DOUBLE_EQ(series.at("iq_cmd_iqget_max_ns"), 750.0);
}

TEST(MetricsTest, SkipsNonNumericStatLines) {
  std::string out = net::FormatMetrics(
      "STAT conn_active 3\r\nSTAT version whatever\r\nSTAT bytes_read 99\r\n");
  std::map<std::string, double> series;
  ASSERT_TRUE(net::ParseMetrics(out, &series));
  EXPECT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series.at("iq_conn_active"), 3.0);
  EXPECT_DOUBLE_EQ(series.at("iq_bytes_read"), 99.0);
  EXPECT_FALSE(series.count("iq_version"));  // non-numeric skipped
}

TEST(MetricsTest, ParseRejectsMalformedSample) {
  std::map<std::string, double> series;
  EXPECT_FALSE(net::ParseMetrics("iq_thing notanumber\n", &series));
  EXPECT_TRUE(net::ParseMetrics("# just a comment\n\n", &series));
}

}  // namespace
}  // namespace iq
