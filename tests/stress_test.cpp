// Multi-threaded stress for the IQ server's lock-free statistics plumbing.
//
// N worker threads hammer one IQServer with the full IQ command mix
// (IQget/IQset, QaRead/SaR, QaReg/DaR, IQ-delta/Commit/Abort) on a small,
// hot keyspace while a monitor thread concurrently polls Stats(),
// LeaseCount(), SweepExpired() and FormatStats() — the exact readers that
// used to race with command threads. Each worker keeps client-side tallies
// of the replies it observed; at the end the server counters must balance
// those tallies exactly (relaxed atomics may be momentarily stale but can
// never lose an increment). Run under -DIQ_SANITIZE=thread to prove the
// absence of data races, not just of lost updates.
#include "core/iq_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.h"
#include "core/iq_client.h"
#include "core/near_cache.h"
#include "core/sharded_backend.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"

namespace iq {
namespace {

constexpr int kThreads = 8;
constexpr int kItersPerThread = 4000;
constexpr int kKeys = 32;

struct Tally {
  std::uint64_t tokens_granted = 0;
  std::uint64_t backoffs = 0;
  std::uint64_t iqset_stored = 0;
  std::uint64_t iqset_dropped = 0;
  std::uint64_t qaread_granted = 0;
  std::uint64_t qaread_rejected = 0;
  std::uint64_t sar_stored = 0;
  std::uint64_t sar_dropped = 0;
  std::uint64_t delta_granted = 0;
  std::uint64_t delta_rejected = 0;
  std::uint64_t qaregs = 0;
  std::uint64_t dars = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;

  Tally& operator+=(const Tally& o) {
    tokens_granted += o.tokens_granted;
    backoffs += o.backoffs;
    iqset_stored += o.iqset_stored;
    iqset_dropped += o.iqset_dropped;
    qaread_granted += o.qaread_granted;
    qaread_rejected += o.qaread_rejected;
    sar_stored += o.sar_stored;
    sar_dropped += o.sar_dropped;
    delta_granted += o.delta_granted;
    delta_rejected += o.delta_rejected;
    qaregs += o.qaregs;
    dars += o.dars;
    commits += o.commits;
    aborts += o.aborts;
    return *this;
  }
};

std::string KeyFor(std::uint32_t i) { return "k" + std::to_string(i % kKeys); }

/// Drain one server's complete lease history (events + TRACE_INFO) for the
/// offline checker. The test must size trace_capacity so the rings never
/// wrap — the checker verifies that via the info header and refuses to
/// certify a wrapped ring.
check::TraceSource DrainTrace(IQServer& server, const char* name) {
  check::TraceSource src;
  src.name = name;
  src.events = server.TraceSnapshot(std::numeric_limits<std::size_t>::max());
  src.info = server.TraceInfoTotal();
  src.has_info = true;
  return src;
}

/// End-of-storm lifecycle property: the drained history must replay through
/// the IQ protocol state machine with zero anomalies and, since every storm
/// quiesces (all sessions ended, stranded leases swept), zero open leases.
void ExpectCertifiedHistory(const std::vector<check::TraceSource>& sources) {
  check::CheckerOptions options;
  options.require_quiescent = true;
  check::CheckReport report = check::CheckHistory(sources, {}, options);
  EXPECT_TRUE(report.certified()) << report.Summary();
  EXPECT_GT(report.grants, 0u);
}

/// The command mix runs against the KvsBackend seam so the same worker can
/// hammer a bare IQServer or a ShardedBackend routing over two transports.
void Worker(KvsBackend& server, int seed, Tally& out,
            int iters = kItersPerThread) {
  std::mt19937 rng(static_cast<std::uint32_t>(seed));
  Tally t;
  for (int iter = 0; iter < iters; ++iter) {
    std::string key = KeyFor(rng());
    std::uint32_t roll = rng() % 100;
    if (roll < 40) {
      // Read path: IQget, and always consume a granted I lease with IQset.
      GetReply r = server.IQget(key);
      switch (r.status) {
        case GetReply::Status::kMissGrantedI: {
          ++t.tokens_granted;
          StoreResult sr = server.IQset(key, "computed", r.token);
          sr == StoreResult::kStored ? ++t.iqset_stored : ++t.iqset_dropped;
          break;
        }
        case GetReply::Status::kMissBackoff:
          ++t.backoffs;
          break;
        default:
          break;  // hit / no-lease miss: no counter involved
      }
    } else if (roll < 60) {
      // Refresh writer: QaRead then SaR or Commit or Abort.
      SessionId tid = server.GenID();
      QaReadReply q = server.QaRead(key, tid);
      if (q.status != QaReadReply::Status::kGranted) {
        ++t.qaread_rejected;
        continue;
      }
      ++t.qaread_granted;
      std::uint32_t done = rng() % 4;
      if (done < 2) {
        StoreResult sr = server.SaR(key, "refreshed", q.token);
        sr == StoreResult::kStored ? ++t.sar_stored : ++t.sar_dropped;
        // The session contract ends every session with Commit/Abort (the
        // SaR released the lease; this closes the session server-side).
        server.Commit(tid);
        ++t.commits;
      } else if (done == 2) {
        server.Commit(tid);
        ++t.commits;
      } else {
        server.Abort(tid);
        ++t.aborts;
      }
    } else if (roll < 75) {
      // Incremental writer: IQ-delta then Commit/Abort.
      SessionId tid = server.GenID();
      QuarantineResult q =
          server.IQDelta(tid, key, DeltaOp{DeltaOp::Kind::kIncr, {}, 1});
      if (q != QuarantineResult::kGranted) {
        ++t.delta_rejected;
        continue;
      }
      ++t.delta_granted;
      if (rng() % 2 == 0) {
        server.Commit(tid);
        ++t.commits;
      } else {
        server.Abort(tid);
        ++t.aborts;
      }
    } else if (roll < 90) {
      // Invalidate writer: QaReg then DaR (or Commit/Abort, all release).
      SessionId tid = server.GenID();
      ASSERT_EQ(server.QaReg(tid, key), QuarantineResult::kGranted);
      ++t.qaregs;
      std::uint32_t done = rng() % 4;
      if (done < 2) {
        server.DaR(tid);
        ++t.dars;
      } else if (done == 2) {
        server.Commit(tid);
        ++t.commits;
      } else {
        server.Abort(tid);
        ++t.aborts;
      }
    } else {
      // Plain memcached traffic underneath the lease machinery.
      if (roll % 2 == 0) {
        server.Set(key, "plain");
      } else {
        server.Get(key);
      }
    }
  }
  out = t;
}

TEST(StressTest, StatsBalanceUnderContention) {
  // Rings sized so the full storm fits: the checker below certifies the
  // complete lifecycle history, which requires zero drops.
  IQServer server(CacheStore::Config{.shard_count = 8},
                  IQServer::Config{.lease_lifetime = 0,  // leases never expire
                                   .trace_capacity = 1 << 16});

  std::vector<Tally> tallies(kThreads);
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};

  // Monitor thread: the readers that used to be data races. Values it sees
  // are only sanity-checked (they are moving targets); TSan checks the rest.
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      IQServerStats snap = server.Stats();
      EXPECT_LE(snap.commits,
                static_cast<std::uint64_t>(kThreads) * kItersPerThread);
      EXPECT_LE(server.LeaseCount(), static_cast<std::size_t>(kKeys));
      server.SweepExpired();  // no-op with lifetime 0, but locks every shard
      std::string formatted = net::FormatStats(server);
      EXPECT_NE(formatted.find("STAT i_leases_granted"), std::string::npos);
      std::this_thread::yield();
    }
  });

  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&server, &tallies, i] { Worker(server, /*seed=*/1234 + i, tallies[i]); });
  }
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  monitor.join();

  Tally total;
  for (const Tally& t : tallies) total += t;

  IQServerStats s = server.Stats();
  // Grant-side balance: the server counted exactly what clients observed.
  EXPECT_EQ(s.i_granted, total.tokens_granted);
  EXPECT_EQ(s.backoffs, total.backoffs);
  EXPECT_EQ(s.q_inv_granted, total.qaregs);
  EXPECT_EQ(s.q_ref_granted, total.qaread_granted + total.delta_granted);
  EXPECT_EQ(s.q_rejected, total.qaread_rejected + total.delta_rejected);
  EXPECT_EQ(s.stale_sets_dropped, total.iqset_dropped + total.sar_dropped);
  EXPECT_EQ(s.commits, total.commits + total.dars);  // DaR commits
  EXPECT_EQ(s.aborts, total.aborts);
  // Void-side balance: with no expiry, an IQset drops iff its I lease was
  // voided, and each void strands exactly one pending install.
  EXPECT_EQ(s.i_voided, total.iqset_dropped);
  // Every dropped SaR lost its Q(refresh) lease to a QaReg; delta writers'
  // voided leases produce no SaR, hence >=.
  EXPECT_GE(s.q_ref_voided, total.sar_dropped);
  EXPECT_EQ(s.leases_expired, 0u);
  EXPECT_EQ(s.expiry_deletes, 0u);
  // Every session path above released what it acquired.
  EXPECT_EQ(server.LeaseCount(), 0u);
  EXPECT_EQ(total.tokens_granted, total.iqset_stored + total.iqset_dropped);

  // Lifecycle property: the whole storm's lease history replays cleanly —
  // no overlapping Q windows, no unmatched ends, nothing left open.
  ExpectCertifiedHistory({DrainTrace(server, "stress")});
}

TEST(StressTest, ShardedTwoChildBalanceUnderContention) {
  // The same command mix, but routed by per-thread ShardedBackends over a
  // 2-shard tier: one shared in-process child and one shared TCP child.
  // Identical shard names give every thread's router the same ring, so all
  // threads agree on key placement and contend on the same leases.
  IQServer local_child(CacheStore::Config{.shard_count = 8},
                       IQServer::Config{.lease_lifetime = 0,
                                        .trace_capacity = 1 << 14});
  IQServer tcp_child(CacheStore::Config{.shard_count = 8},
                     IQServer::Config{.lease_lifetime = 0,
                                      .trace_capacity = 1 << 14});
  net::TcpServer::Config cfg;
  cfg.workers = 2;
  net::TcpServer tcp(tcp_child, cfg);
  std::string error;
  ASSERT_TRUE(tcp.Start(&error)) << error;

  constexpr int kShardThreads = 4;
  constexpr int kShardIters = 1200;
  std::vector<Tally> tallies(kShardThreads);
  std::vector<std::thread> threads;
  threads.reserve(kShardThreads);
  for (int i = 0; i < kShardThreads; ++i) {
    threads.emplace_back([&, i] {
      std::string conn_error;
      auto channel =
          net::TcpChannel::Connect("127.0.0.1", tcp.port(), &conn_error);
      ASSERT_NE(channel, nullptr) << conn_error;
      net::RemoteBackend remote(*channel);
      ShardedBackend router(
          {{"s0", &local_child, 1, nullptr, nullptr, nullptr, nullptr},
           {"s1", &remote, 1, nullptr, nullptr, nullptr, nullptr}});
      Worker(router, /*seed=*/5150 + i, tallies[i], kShardIters);
    });
  }
  for (auto& th : threads) th.join();
  tcp.Stop();

  Tally total;
  for (const Tally& t : tallies) total += t;

  IQServerStats s;
  {
    // Exact balance must hold over the SUM of both children: every grant,
    // reject, commit and abort landed on exactly one shard.
    IQServerStats a = local_child.Stats();
    IQServerStats b = tcp_child.Stats();
    s.i_granted = a.i_granted + b.i_granted;
    s.i_voided = a.i_voided + b.i_voided;
    s.q_ref_voided = a.q_ref_voided + b.q_ref_voided;
    s.backoffs = a.backoffs + b.backoffs;
    s.stale_sets_dropped = a.stale_sets_dropped + b.stale_sets_dropped;
    s.q_inv_granted = a.q_inv_granted + b.q_inv_granted;
    s.q_ref_granted = a.q_ref_granted + b.q_ref_granted;
    s.q_rejected = a.q_rejected + b.q_rejected;
    s.leases_expired = a.leases_expired + b.leases_expired;
    s.expiry_deletes = a.expiry_deletes + b.expiry_deletes;
    s.commits = a.commits + b.commits;
    s.aborts = a.aborts + b.aborts;
  }
  EXPECT_EQ(s.i_granted, total.tokens_granted);
  EXPECT_EQ(s.backoffs, total.backoffs);
  EXPECT_EQ(s.q_inv_granted, total.qaregs);
  EXPECT_EQ(s.q_ref_granted, total.qaread_granted + total.delta_granted);
  EXPECT_EQ(s.q_rejected, total.qaread_rejected + total.delta_rejected);
  EXPECT_EQ(s.stale_sets_dropped, total.iqset_dropped + total.sar_dropped);
  EXPECT_EQ(s.commits, total.commits + total.dars);
  // Every client-side abort fans out to exactly one child (single-key
  // sessions), and every Q reject triggers the router's release-all fan-out
  // abort of the one shard the session had touched.
  EXPECT_EQ(s.aborts,
            total.aborts + total.qaread_rejected + total.delta_rejected);
  EXPECT_EQ(s.i_voided, total.iqset_dropped);
  EXPECT_GE(s.q_ref_voided, total.sar_dropped);
  EXPECT_EQ(s.leases_expired, 0u);
  // Nothing stranded on either transport.
  EXPECT_EQ(local_child.LeaseCount(), 0u);
  EXPECT_EQ(tcp_child.LeaseCount(), 0u);
  // The ring really split the work across both children.
  EXPECT_GT(local_child.Stats().commits, 0u);
  EXPECT_GT(tcp_child.Stats().commits, 0u);

  // Lifecycle property over BOTH children's drained histories: each key
  // lives on exactly one child, so the two-source merge must replay every
  // key's lifecycle cleanly across the in-process and TCP transports.
  ExpectCertifiedHistory(
      {DrainTrace(local_child, "s0"), DrainTrace(tcp_child, "s1")});
}

TEST(StressTest, MultiWorkerTcpBalanceUnderContention) {
  // The full command mix hammered through one 4-worker TcpServer: each
  // thread's connection lands on its own worker, so every worker executes
  // against the same shards and leases at once — and the exact
  // client-vs-server counter balance must come out identical to the
  // in-process storm.
  IQServer server(CacheStore::Config{.shard_count = 8},
                  IQServer::Config{.lease_lifetime = 0,
                                   .trace_capacity = 1 << 14});
  net::TcpServer::Config cfg;
  cfg.workers = 4;
  net::TcpServer tcp(server, cfg);
  std::string error;
  ASSERT_TRUE(tcp.Start(&error)) << error;

  constexpr int kTcpThreads = 4;
  constexpr int kTcpIters = 1500;
  std::vector<Tally> tallies(kTcpThreads);
  std::vector<std::thread> threads;
  threads.reserve(kTcpThreads);
  for (int i = 0; i < kTcpThreads; ++i) {
    threads.emplace_back([&, i] {
      std::string conn_error;
      auto channel =
          net::TcpChannel::Connect("127.0.0.1", tcp.port(), &conn_error);
      ASSERT_NE(channel, nullptr) << conn_error;
      net::RemoteBackend remote(*channel);
      Worker(remote, /*seed=*/7200 + i, tallies[i], kTcpIters);
    });
  }
  for (auto& th : threads) th.join();
  tcp.Stop();

  Tally total;
  for (const Tally& t : tallies) total += t;

  IQServerStats s = server.Stats();
  EXPECT_EQ(s.i_granted, total.tokens_granted);
  EXPECT_EQ(s.backoffs, total.backoffs);
  EXPECT_EQ(s.q_inv_granted, total.qaregs);
  EXPECT_EQ(s.q_ref_granted, total.qaread_granted + total.delta_granted);
  EXPECT_EQ(s.q_rejected, total.qaread_rejected + total.delta_rejected);
  EXPECT_EQ(s.stale_sets_dropped, total.iqset_dropped + total.sar_dropped);
  EXPECT_EQ(s.commits, total.commits + total.dars);
  EXPECT_EQ(s.aborts, total.aborts);
  EXPECT_EQ(s.i_voided, total.iqset_dropped);
  EXPECT_GE(s.q_ref_voided, total.sar_dropped);
  EXPECT_EQ(s.leases_expired, 0u);
  EXPECT_EQ(server.LeaseCount(), 0u);

  // Concurrent workers cannot reorder or drop lease transitions within any
  // key's shard ring: the history replays certified.
  ExpectCertifiedHistory({DrainTrace(server, "tcp")});
}

TEST(StressTest, FlappingShardTripsHealsAndStrandsNoLeases) {
  // One shard flaps (a FaultChannel toggling down/up under the router's
  // circuit breaker) while worker threads run the IQ mix against a shared
  // 2-shard router. Transport errors surface as statuses — never as grants —
  // so the grant-side balance between client observations and child counters
  // must stay EXACT through every trip and recovery; leases stranded by
  // commits that could not reach the down shard must drain by expiry.
  IQServer s0(CacheStore::Config{.shard_count = 8},
              IQServer::Config{.lease_lifetime = 20 * kNanosPerMilli,
                               .trace_capacity = 1 << 14});
  IQServer s1(CacheStore::Config{.shard_count = 8},
              IQServer::Config{.lease_lifetime = 20 * kNanosPerMilli,
                               .trace_capacity = 1 << 14});
  net::LoopbackChannel loop(s0);
  net::FaultChannel flappy(loop);
  net::RemoteBackend remote(flappy);
  ShardedBackend::Config rcfg;
  rcfg.down_after_errors = 2;
  rcfg.probe_interval = 200 * kNanosPerMicro;
  ShardedBackend router(
      {{"s0", &remote, 1, {}, {}, {}, {}}, {"s1", &s1, 1, {}, {}, {}, {}}},
      rcfg);

  struct FlapTally {
    std::uint64_t i_granted = 0;
    std::uint64_t q_granted = 0;
    std::uint64_t q_rejected = 0;
    std::uint64_t transport_errors = 0;
  };
  constexpr int kFlapThreads = 4;
  constexpr int kFlapIters = 3000;
  std::vector<FlapTally> tallies(kFlapThreads);

  std::atomic<bool> stop_flapping{false};
  std::thread flapper([&] {
    bool down = false;
    while (!stop_flapping.load(std::memory_order_acquire)) {
      down = !down;
      if (down) {
        flappy.Arm({net::FaultChannel::Fault::kDown, ""});
      } else {
        flappy.Clear();  // heals, and drops a kDown rule not yet fired
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    flappy.Clear();
  });

  std::vector<std::thread> threads;
  threads.reserve(kFlapThreads);
  for (int i = 0; i < kFlapThreads; ++i) {
    threads.emplace_back([&, i] {
      std::mt19937 rng(static_cast<std::uint32_t>(777 + i));
      FlapTally t;
      for (int iter = 0; iter < kFlapIters; ++iter) {
        std::string key = KeyFor(rng());
        if (rng() % 2 == 0) {
          GetReply r = router.IQget(key);
          if (r.status == GetReply::Status::kTransportError) {
            ++t.transport_errors;  // degrade: the caller would read the RDBMS
          } else if (r.status == GetReply::Status::kMissGrantedI) {
            ++t.i_granted;
            if (router.IQset(key, "v", r.token) ==
                StoreResult::kTransportError) {
              ++t.transport_errors;
            }
          }
        } else {
          SessionId tid = router.GenID();
          QaReadReply q = router.QaRead(key, tid);
          if (q.status == QaReadReply::Status::kTransportError) {
            ++t.transport_errors;
            router.Abort(tid);
            continue;
          }
          if (q.status == QaReadReply::Status::kReject) {
            ++t.q_rejected;  // the router already released the session
            continue;
          }
          ++t.q_granted;
          if (router.SaR(key, "w", q.token) == StoreResult::kTransportError) {
            ++t.transport_errors;
          }
          if (rng() % 2 == 0) {
            router.Commit(tid);
          } else {
            router.Abort(tid);
          }
        }
      }
      tallies[i] = t;
    });
  }
  for (auto& th : threads) th.join();
  stop_flapping.store(true, std::memory_order_release);
  flapper.join();

  FlapTally total;
  for (const FlapTally& t : tallies) {
    total.i_granted += t.i_granted;
    total.q_granted += t.q_granted;
    total.q_rejected += t.q_rejected;
    total.transport_errors += t.transport_errors;
  }
  // The flap actually bit, tripped the breaker, and healed at least once.
  EXPECT_GT(total.transport_errors, 0u);
  ShardedBackendStats rs = router.router_stats();
  EXPECT_GE(rs.shard_trips, 1u);
  EXPECT_GE(rs.shard_recoveries, 1u);
  EXPECT_GT(rs.transport_errors, 0u);
  // Both shards did real work between the flaps.
  EXPECT_GT(s0.Stats().i_granted + s0.Stats().q_ref_granted, 0u);
  EXPECT_GT(s1.Stats().i_granted + s1.Stats().q_ref_granted, 0u);

  // Exact grant-side balance: a failed call never reached the child and a
  // granted call always did — transport errors cannot manufacture or lose
  // grants on either side.
  IQServerStats a = s0.Stats();
  IQServerStats b = s1.Stats();
  EXPECT_EQ(a.i_granted + b.i_granted, total.i_granted);
  EXPECT_EQ(a.q_ref_granted + b.q_ref_granted, total.q_granted);
  EXPECT_EQ(a.q_rejected + b.q_rejected, total.q_rejected);

  // Heal shard0, then let every lease stranded by a skipped Commit/Abort
  // expire; the sweep must drain both children to zero.
  std::string probe_key;
  for (int i = 0; router.ShardFor(probe_key = "k" + std::to_string(i)) != 0;
       ++i) {
  }
  for (int i = 0; i < 1000 && router.ShardDown(0); ++i) {
    router.IQget(probe_key);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_FALSE(router.ShardDown(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  s0.SweepExpired();
  s1.SweepExpired();
  EXPECT_EQ(s0.LeaseCount(), 0u);
  EXPECT_EQ(s1.LeaseCount(), 0u);

  // Even through trips, heals and expiry-drained strands, the surviving
  // lease history must replay cleanly: transport errors fail before the
  // child, so they can never leave a half-recorded lifecycle behind.
  ExpectCertifiedHistory({DrainTrace(s0, "flappy"), DrainTrace(s1, "s1")});
}

TEST(StressTest, LoopbackRequestCounterExactUnderThreads) {
  IQServer server;
  net::LoopbackChannel channel(server);
  constexpr int kClientThreads = 4;
  constexpr int kOpsPerThread = 500;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Lock-free monitoring read racing the increments.
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      std::uint64_t now = channel.requests();
      EXPECT_GE(now, last);  // monotonic
      last = now;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (int i = 0; i < kClientThreads; ++i) {
    clients.emplace_back([&channel, i] {
      net::RemoteBackend client(channel);
      for (int op = 0; op < kOpsPerThread; ++op) {
        std::string key = "c";
        key += std::to_string(i);
        key += '-';
        key += std::to_string(op % 16);
        if (op % 2 == 0) {
          client.Set(key, "v");
        } else {
          client.Get(key);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(channel.requests(),
            static_cast<std::uint64_t>(kClientThreads) * kOpsPerThread);
  // The dispatcher recorded a latency sample for every request.
  std::string stats = net::FormatStats(server);
  EXPECT_NE(stats.find("STAT cmd_store_count"), std::string::npos);
  EXPECT_NE(stats.find("STAT cmd_get_count"), std::string::npos);
}

TEST(StressTest, NearCacheStormCountersBalanceExactly) {
  // One IQClient's near cache (DESIGN.md §4.10) shared by many sessions:
  // reader threads hammer Get() (near hits, grant installs, self-expiry on
  // a sub-millisecond validity) while writer threads run invalidate and
  // refresh sessions on the same keys (eager Invalidate() plus the
  // Commit/Abort re-invalidation sweep) and a monitor thread polls
  // stats()/size() concurrently. Under -DIQ_SANITIZE=thread this certifies
  // the cache mutex protocol; at quiescence every stored entry must have
  // left in exactly one way:
  //   inserts == size + replaced + evictions + invalidated + expired.
  IQServer server(CacheStore::Config{.shard_count = 4},
                  [] {
                    IQServer::Config cfg;
                    cfg.near_validity = 300 * kNanosPerMicro;  // real clock
                    return cfg;
                  }());
  IQClient::Config ccfg;
  ccfg.backoff_base = 10 * kNanosPerMicro;
  ccfg.backoff_cap = 200 * kNanosPerMicro;
  ccfg.near_capacity = 16;  // < kKeys so LRU evictions happen under load
  IQClient client(server, ccfg);
  NearCache* near = client.near_cache();
  ASSERT_NE(near, nullptr);

  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    // Concurrent snapshot readers: the counters move, only TSan judges.
    while (!stop.load(std::memory_order_acquire)) {
      NearCache::Stats snap = near->stats();
      EXPECT_GE(snap.inserts, snap.replaced);
      EXPECT_LE(near->size(), near->capacity());
      std::this_thread::yield();
    }
  });

  constexpr int kNearThreads = 6;
  constexpr int kNearIters = 2500;
  std::vector<std::thread> threads;
  threads.reserve(kNearThreads);
  for (int i = 0; i < kNearThreads; ++i) {
    threads.emplace_back([&, i] {
      std::mt19937 rng(static_cast<std::uint32_t>(4242 + i));
      auto session = client.NewSession();
      for (int iter = 0; iter < kNearIters; ++iter) {
        std::string key = KeyFor(rng());
        std::uint32_t roll = rng() % 100;
        if (roll < 70) {
          // Read path: hits populate the near cache (server grants a
          // validity interval), repeats serve locally until expiry.
          ClientGetResult r = session->Get(key, /*max_retries=*/2);
          if (r.status == ClientGetResult::Status::kMissRecompute) {
            std::string fresh = "v";
            fresh += std::to_string(iter);
            session->Put(key, fresh);
          }
        } else if (roll < 85) {
          // Invalidate writer: eager near-invalidate at Quarantine, again
          // at Commit/Abort.
          if (session->Quarantine(key) == ClientQResult::kGranted) {
            rng() % 2 == 0 ? session->Commit() : session->Abort();
          } else {
            session->Abort();
          }
        } else {
          // Refresh writer.
          std::optional<std::string> old;
          if (session->QaRead(key, old) == ClientQResult::kGranted) {
            std::string fresh = "r";
            fresh += std::to_string(iter);
            session->SaR(key, fresh);
            session->Commit();
          } else {
            session->Abort();
          }
        }
      }
      // Quiesce this thread's session: release leases, re-invalidate any
      // keys it wrote.
      session->Abort();
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  monitor.join();
  server.SweepExpired();  // reclaim holdover deletes + lapsed horizons

  // The storm actually exercised every transition at least once.
  NearCache::Stats s = near->stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.inserts, 0u);
  EXPECT_GT(s.invalidated, 0u);
  EXPECT_GT(server.Stats().near_grants, 0u);
  // Exact accounting at quiescence: every entry ever stored is either
  // still resident or left by exactly one of the four exits. A lost or
  // double-counted transition under contention breaks this equality.
  EXPECT_EQ(s.inserts, static_cast<std::uint64_t>(near->size()) + s.replaced +
                           s.evictions + s.invalidated + s.expired);
}

TEST(StressTest, OptimisticReadStormStaysConsistent) {
  // The mutex-free IQget fast path (DESIGN.md §4.6) races against the full
  // write-side lease machinery: refresh sessions (QaRead/SaR), invalidate
  // sessions (QaReg/Commit), plain sets/deletes, and budget-driven
  // evictions, all on the same hot keys. Every hit a reader observes must
  // be a value the key legitimately held (prefix-tagged), and the store
  // must end structurally consistent. Run under -DIQ_SANITIZE=thread to
  // certify the seqlock protocol.
  IQServer server(
      CacheStore::Config{.shard_count = 4, .memory_budget_bytes = 16000},
      IQServer::Config{});
  constexpr int kHotKeys = 24;
  auto key_for = [](int k) { return "hot" + std::to_string(k); };
  for (int k = 0; k < kHotKeys; ++k) {
    server.store().Set(key_for(k), "hot" + std::to_string(k) + "=0");
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_reads{0};
  std::atomic<std::uint64_t> opt_era_hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::uint64_t local_hits = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < kHotKeys; ++k) {
          GetReply r = server.IQget(key_for(k), 0);
          if (r.status != GetReply::Status::kHit) continue;
          ++local_hits;
          std::string want = "hot" + std::to_string(k) + "=";
          if (r.value.compare(0, want.size(), want) != 0) {
            bad_reads.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      opt_era_hits.fetch_add(local_hits, std::memory_order_relaxed);
    });
  }

  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      for (int gen = 1; gen <= 1200; ++gen) {
        int k = (gen * 5 + t * 11) % kHotKeys;
        std::string key = key_for(k);
        std::string value = "hot" + std::to_string(k) + "=" +
                            std::to_string(t * 100000 + gen);
        switch (gen % 5) {
          case 0: {  // refresh write session (QaRead -> SaR)
            SessionId sid = server.GenID();
            QaReadReply q = server.QaRead(key, sid);
            if (q.status == QaReadReply::Status::kGranted) {
              server.SaR(key, value, q.token);
            }
            break;
          }
          case 1: {  // invalidate write session (QaReg -> Commit)
            SessionId sid = server.GenID();
            server.QaReg(sid, key);
            server.Commit(sid);
            break;
          }
          case 2:
            server.store().Delete(key);
            break;
          default:
            server.store().Set(key, value);
            break;
        }
      }
    });
  }

  for (auto& w : writers) w.join();
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_GT(opt_era_hits.load(), 0u);
  EXPECT_EQ(server.store().CheckInvariants(), "");
  // (The lease table need not be empty: reader misses hand out I leases
  // nobody installs; they age out via the normal expiry path.)
}

}  // namespace
}  // namespace iq
