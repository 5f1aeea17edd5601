// iqbench: command-line driver for the BG workload over any client design.
//
//   iqbench [--technique=invalidate|refresh|incremental]
//           [--consistency=none|cas|read-lease|iq]
//           [--placement=prior|inside]
//           [--members=N] [--friends=N] [--threads=N] [--seconds=S]
//           [--mix=0.1|1|10] [--seed=N] [--warm] [--no-validate]
//           [--db-read-us=N] [--db-write-us=N] [--db-commit-us=N]
//           [--lease-ms=N] [--eager-delete]
//
// Prints a one-screen report: throughput, latency percentiles, restart
// statistics, unpredictable-read percentage, and cache-server counters.
//
// Remote mode — drive one or more running iqcached instances over TCP
// instead of an in-process server:
//
//   iqbench --connect=host:port[,host:port,...] [--threads=N] [--seconds=S]
//           [--mix=PCT] [--seed=N]
//
// Each thread holds one reconnecting pipelined connection per endpoint and,
// with several endpoints, routes every key through a ShardedBackend
// consistent-hash ring, so the instances form one sharded cache tier. On
// that tier each thread runs one IQClient and one IQSession, the session
// engine casql runs: every lease verb goes through the session, and the
// session writes the --oplog records. Reads hit a small keyspace; writes
// run the QaRead/SaR refresh protocol (or a buffered delta) against shared
// counters. At the end the counters must exactly equal the number of
// committed increments — any lost lease, protocol desync, or mis-routed
// fan-out fails the run (exit 1).
//
// A malformed flag value (--threads=abc, --mix=1O) prints the usage text
// and exits 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/oplog.h"
#include "core/iq_client.h"
#include "core/iq_server.h"
#include "core/sharded_backend.h"
#include "bg/workload.h"
#include "casql/casql.h"
#include "net/channel.h"
#include "net/reconnecting_channel.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/rng.h"

using namespace iq;

namespace {

struct Options {
  casql::Technique technique = casql::Technique::kRefresh;
  casql::Consistency consistency = casql::Consistency::kIQ;
  casql::LeasePlacement placement = casql::LeasePlacement::kInsideTxn;
  bg::MemberId members = 1000;
  int friends = 10;
  int threads = 16;
  double seconds = 3.0;
  double mix = 1.0;
  std::uint64_t seed = 42;
  bool warm = false;
  bool validate = true;
  Nanos db_read = 30 * kNanosPerMicro;
  Nanos db_write = 60 * kNanosPerMicro;
  Nanos db_commit = 60 * kNanosPerMicro;
  Nanos lease_lifetime = 10 * kNanosPerSec;
  bool deferred_delete = true;
  /// Near cache (DESIGN.md §4.10): validity interval (ms) the server
  /// grants with every clean IQget hit, and the client-side near-cache
  /// capacity in entries. --near-ttl-ms > 0 enables both ends; repeat
  /// reads inside the interval are served locally with zero round trips.
  long long near_ttl_ms = 0;
  std::size_t near_cap = 4096;
  std::string connect;  // host:port of a running iqcached; empty = in-process
  /// Remote mode: connect/read/write deadline per socket operation. Bounds
  /// how long any request can block on a dead or wedged server.
  int timeout_ms = 2000;
  /// Online staleness audit: fraction of reads re-checked against ground
  /// truth. Any detected stale read fails the run (exit 1).
  double audit_rate = 0.0;
  /// Client-side op log for the offline checker (tools/iqcheck): the IQ
  /// sessions record every client-visible read/write/commit/abort here,
  /// and it is dumped to this file at the end of the run. Empty = off.
  std::string oplog;
  /// In-process mode: dump the server's lease trace (TRACE_INFO header +
  /// TRACE lines, iqcheck --trace format) to this file after the run.
  std::string trace_out;
  /// In-process mode: per-shard lease-trace ring capacity. Size it above
  /// the run's event count or iqcheck will refuse to certify (ring wrap).
  std::size_t trace_capacity = 1024;
  /// Remote mode: Zipfian skew (theta) for counter/data key selection;
  /// 0 = uniform. Hot keys concentrate lease contention for the checker's
  /// scenario matrix (theta 0.99 ~ YCSB's default skew).
  double zipf = 0.0;
  /// Remote mode: write counters via buffered IQDelta + a re-read under
  /// the session's own Q lease (the own-update visibility probe,
  /// Section 4.2.2) instead of the QaRead/SaR refresh path.
  bool rmw_delta = false;
  /// Remote mode: fraction of write sessions that update TWO counters
  /// under one session (two Q leases, one commit) — multi-key sessions
  /// for the checker's scenario matrix.
  double multikey_rate = 0.0;
};

[[noreturn]] void Usage(const char* bad) {
  std::fprintf(stderr, "iqbench: bad argument '%s'\n", bad);
  std::fprintf(stderr,
               "usage: iqbench [--technique=invalidate|refresh|incremental]\n"
               "               [--consistency=none|cas|read-lease|iq]\n"
               "               [--placement=prior|inside] [--members=N]\n"
               "               [--friends=N] [--threads=N] [--seconds=S]\n"
               "               [--mix=0.1|1|10] [--seed=N] [--warm]\n"
               "               [--no-validate] [--db-read-us=N]\n"
               "               [--db-write-us=N] [--db-commit-us=N]\n"
               "               [--lease-ms=N] [--eager-delete]\n"
               "               [--near-ttl-ms=N] [--near-cap=N]\n"
               "               [--audit-rate=F]\n"
               "               [--oplog=FILE] [--trace-out=FILE]\n"
               "               [--trace-capacity=N]\n"
               "       iqbench --connect=host:port[,host:port,...]\n"
               "               [--threads=N] [--seconds=S] [--mix=PCT]\n"
               "               [--seed=N] [--timeout-ms=N] [--audit-rate=F]\n"
               "               [--near-ttl-ms=N] [--near-cap=N]\n"
               "               [--oplog=FILE] [--zipf=THETA]\n"
               "               [--rmw=sar|delta] [--multikey-rate=F]\n"
               "(--near-ttl-ms in remote mode requires the server to run with\n"
               " a matching --near-validity-ms; grants are server-side)\n");
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    const char* arg = argv[i];
    if (flags::Value(arg, "--technique=", &v)) {
      if (std::strcmp(v, "invalidate") == 0) {
        opt.technique = casql::Technique::kInvalidate;
      } else if (std::strcmp(v, "refresh") == 0) {
        opt.technique = casql::Technique::kRefresh;
      } else if (std::strcmp(v, "incremental") == 0) {
        opt.technique = casql::Technique::kIncremental;
      } else {
        Usage(arg);
      }
    } else if (flags::Value(arg, "--consistency=", &v)) {
      if (std::strcmp(v, "none") == 0) {
        opt.consistency = casql::Consistency::kNone;
      } else if (std::strcmp(v, "cas") == 0) {
        opt.consistency = casql::Consistency::kCas;
      } else if (std::strcmp(v, "read-lease") == 0) {
        opt.consistency = casql::Consistency::kReadLease;
      } else if (std::strcmp(v, "iq") == 0) {
        opt.consistency = casql::Consistency::kIQ;
      } else {
        Usage(arg);
      }
    } else if (flags::Value(arg, "--placement=", &v)) {
      if (std::strcmp(v, "prior") == 0) {
        opt.placement = casql::LeasePlacement::kPriorToTxn;
      } else if (std::strcmp(v, "inside") == 0) {
        opt.placement = casql::LeasePlacement::kInsideTxn;
      } else {
        Usage(arg);
      }
    } else if (flags::Value(arg, "--members=", &v)) {
      opt.members = flags::Number<bg::MemberId>(arg, v, Usage);
    } else if (flags::Value(arg, "--friends=", &v)) {
      opt.friends = flags::Number<int>(arg, v, Usage);
    } else if (flags::Value(arg, "--threads=", &v)) {
      opt.threads = flags::Number<int>(arg, v, Usage);
      if (opt.threads < 1) Usage(arg);
    } else if (flags::Value(arg, "--seconds=", &v)) {
      opt.seconds = flags::Number<double>(arg, v, Usage);
    } else if (flags::Value(arg, "--mix=", &v)) {
      opt.mix = flags::Number<double>(arg, v, Usage);
    } else if (flags::Value(arg, "--seed=", &v)) {
      opt.seed = flags::Number<std::uint64_t>(arg, v, Usage);
    } else if (std::strcmp(arg, "--warm") == 0) {
      opt.warm = true;
    } else if (std::strcmp(arg, "--no-validate") == 0) {
      opt.validate = false;
    } else if (flags::Value(arg, "--db-read-us=", &v)) {
      opt.db_read = flags::Number<Nanos>(arg, v, Usage) * kNanosPerMicro;
    } else if (flags::Value(arg, "--db-write-us=", &v)) {
      opt.db_write = flags::Number<Nanos>(arg, v, Usage) * kNanosPerMicro;
    } else if (flags::Value(arg, "--db-commit-us=", &v)) {
      opt.db_commit = flags::Number<Nanos>(arg, v, Usage) * kNanosPerMicro;
    } else if (flags::Value(arg, "--lease-ms=", &v)) {
      opt.lease_lifetime = flags::Number<Nanos>(arg, v, Usage) * kNanosPerMilli;
    } else if (std::strcmp(arg, "--eager-delete") == 0) {
      opt.deferred_delete = false;
    } else if (flags::Value(arg, "--near-ttl-ms=", &v)) {
      opt.near_ttl_ms = flags::Number<long long>(arg, v, Usage);
    } else if (flags::Value(arg, "--near-cap=", &v)) {
      opt.near_cap = flags::Number<std::size_t>(arg, v, Usage);
    } else if (flags::Value(arg, "--connect=", &v)) {
      opt.connect = v;
    } else if (flags::Value(arg, "--timeout-ms=", &v)) {
      opt.timeout_ms = flags::Number<int>(arg, v, Usage);
    } else if (flags::Value(arg, "--audit-rate=", &v)) {
      opt.audit_rate = flags::Number<double>(arg, v, Usage);
    } else if (flags::Value(arg, "--oplog=", &v)) {
      opt.oplog = v;
    } else if (flags::Value(arg, "--trace-out=", &v)) {
      opt.trace_out = v;
    } else if (flags::Value(arg, "--trace-capacity=", &v)) {
      opt.trace_capacity = flags::Number<std::size_t>(arg, v, Usage);
    } else if (flags::Value(arg, "--zipf=", &v)) {
      opt.zipf = flags::Number<double>(arg, v, Usage);
    } else if (flags::Value(arg, "--rmw=", &v)) {
      if (std::strcmp(v, "sar") == 0) {
        opt.rmw_delta = false;
      } else if (std::strcmp(v, "delta") == 0) {
        opt.rmw_delta = true;
      } else {
        Usage(arg);
      }
    } else if (flags::Value(arg, "--multikey-rate=", &v)) {
      opt.multikey_rate = flags::Number<double>(arg, v, Usage);
    } else {
      Usage(arg);
    }
  }
  return opt;
}

// ---- remote mode ------------------------------------------------------------

constexpr int kRemoteCounters = 8;
constexpr int kRemoteDataKeys = 64;

std::string CounterKey(int i) { return "ctr:" + std::to_string(i); }
std::string DataKey(int i) { return "data:" + std::to_string(i); }

/// The seeded value of every data key; data keys are never written again.
const std::string kDataValue(100, 'x');

/// One client thread's view of the remote tier: one reconnecting pipelined
/// connection per endpoint, a RemoteBackend per connection, for more than
/// one endpoint a ShardedBackend routing over them, and on top the
/// IQClient and the one IQSession every lease verb of the thread goes
/// through. All threads use the same shard names (the endpoint labels), so
/// every thread's ring agrees on key placement. The stack survives a server
/// kill: channels connect lazily, fail fast and reconnect through backoff,
/// and the router's circuit breaker keeps the healthy shards unaffected
/// while the dead one heals.
struct RemoteStack {
  RemoteStack(const std::vector<net::Endpoint>& endpoints, const Options& opt,
              check::OpLog* log, std::uint64_t seed) {
    net::ReconnectingChannel::Config channel_cfg;
    channel_cfg.channel.connect_timeout_ms = opt.timeout_ms;
    channel_cfg.channel.io_timeout_ms = opt.timeout_ms;
    std::vector<ShardedBackend::Shard> shards;
    for (const net::Endpoint& endpoint : endpoints) {
      channels.push_back(
          std::make_unique<net::ReconnectingChannel>(endpoint, channel_cfg));
      net::ReconnectingChannel* channel = channels.back().get();
      backends.push_back(std::make_unique<net::RemoteBackend>(*channel));
      shards.push_back({net::Name(endpoint), backends.back().get(), 1,
                        [channel] {
                          return net::ParseIQStats(
                              net::RemoteBackend(*channel).Stats());
                        },
                        [channel] { return channel->reconnects(); }, {}, {}});
    }
    backend = backends[0].get();
    if (endpoints.size() > 1) {
      router = std::make_unique<ShardedBackend>(std::move(shards));
      backend = router.get();
    }
    IQClient::Config client_cfg;
    client_cfg.seed = seed;
    client_cfg.op_log = log;
    if (opt.near_ttl_ms > 0) client_cfg.near_capacity = opt.near_cap;
    client = std::make_unique<IQClient>(*backend, client_cfg);
    session = client->NewSession();
  }

  std::vector<std::unique_ptr<net::ReconnectingChannel>> channels;
  std::vector<std::unique_ptr<net::RemoteBackend>> backends;
  std::unique_ptr<ShardedBackend> router;
  KvsBackend* backend = nullptr;  // router, or the single backend
  std::unique_ptr<IQClient> client;
  std::unique_ptr<IQSession> session;
};

/// One write session that increments every counter in `ctrs` — one, or two
/// for a multi-key session (two Q leases, one commit) — retried with the
/// session's exponential back-off across lease rejections AND transport
/// failures until it commits or `deadline` passes. Each attempt is one
/// acquire (every QaRead in one batch) and one swap-carrying commit, or an
/// Abort when the acquire fails, so a routing backend can retire its
/// per-shard session state.
///
/// `tally` is the authoritative count of committed increments — the stand-in
/// for the RDBMS of a real CASQL deployment. It serves double duty: the
/// final balance check compares cache contents against it, and a KVS miss
/// under the Q lease (the cache server was restarted and lost the counter)
/// reseeds the key from it, exactly as a CASQL refresh would recompute the
/// value from the database. A counter is tallied once the commit's reply
/// acknowledges its swap as STORED; a swap that was not (lease expired or
/// evicted, or the connection dropped) leaves its counter untallied, the
/// retry increments every counter again, and the balance still holds.
///
/// `use_delta` (one counter only) adds a buffered Incr plus a re-read under
/// the session's own (still live) Q lease to the acquire — the own-update
/// visibility probe: the server must replay the pending delta into the
/// re-read (Section 4.2.2), and the session logs it as read_own so iqcheck
/// can flag a pre-delta value reappearing. A KVS miss still reseeds via a
/// swap, which drops the buffered delta with the lease.
bool RemoteIncrement(IQSession& session, const std::vector<int>& ctrs,
                     std::vector<std::atomic<long long>>& tally,
                     Nanos deadline, bool use_delta) {
  const Clock& clock = SteadyClock::Instance();
  std::vector<std::string> keys;
  std::vector<LeaseRequest> leases;
  for (int ctr : ctrs) keys.push_back(CounterKey(ctr));
  for (const std::string& key : keys) {
    leases.push_back({LeaseRequest::Kind::kQaRead, key});
  }
  if (use_delta) {
    leases.push_back({LeaseRequest::Kind::kDelta, keys[0],
                      DeltaOp{DeltaOp::Kind::kIncr, {}, 1}});
    leases.push_back({LeaseRequest::Kind::kQaRead, keys[0]});  // the probe
  }
  std::vector<std::optional<std::string>> values;
  while (clock.Now() < deadline) {
    if (session.Acquire(leases, &values) != ClientQResult::kGranted) {
      session.Abort();
      session.Backoff();
      continue;
    }
    if (use_delta && values[0]) {
      // Commit applies the buffered delta. Tally after the send, as the
      // swap path tallies after its ack: the exposure window against a
      // mid-commit kill is the same sub-microsecond one.
      session.Commit();
      tally[ctrs[0]].fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    // The Q leases serialize writers, so at most one session reseeds a lost
    // counter at a time and concurrent increments can't be lost.
    std::vector<std::string> news;
    for (std::size_t i = 0; i < ctrs.size(); ++i) {
      long long current =
          values[i] ? std::atoll(values[i]->c_str()) : tally[ctrs[i]].load();
      news.push_back(std::to_string(current + 1));
    }
    std::vector<Swap> swaps;
    for (std::size_t i = 0; i < ctrs.size(); ++i) {
      swaps.push_back({keys[i], news[i]});
    }
    std::vector<StoreResult> stored = session.Commit(std::move(swaps));
    bool all = true;
    for (std::size_t i = 0; i < ctrs.size(); ++i) {
      if (stored[i] == StoreResult::kStored) {
        tally[ctrs[i]].fetch_add(1, std::memory_order_relaxed);
      } else {
        all = false;
      }
    }
    if (all) return true;
    session.Backoff();
  }
  return false;
}

enum class AuditVerdict { kOk, kStale, kSkip };

/// Online staleness audit of one shared counter. A granted Q lease
/// serializes against the writers, so the value read under it must fall in
/// a bound derived from the tally of committed increments. A writer tallies
/// an increment only after the commit reply acknowledged its swap, so
/// every increment tallied before the QaRead (t1) is in the cache. The
/// other way round, an increment can be stored but not yet tallied when we
/// load t2 afterwards only while its writer sits between that reply and its
/// tally; a writer's reply may acknowledge two counters, but at most one
/// increment of this one — so at most `threads` such increments exist, and
/// t1 <= value <= t2 + threads, or the cache lost or invented an update. A
/// KVS miss means a restarted shard dropped the counter (reseeded by the
/// next increment): no verdict.
AuditVerdict AuditRemoteCounter(IQSession& session, const std::string& key,
                                std::atomic<long long>& tally, int threads) {
  long long t1 = tally.load();
  std::optional<std::string> value;
  if (session.QaRead(key, value) != ClientQResult::kGranted) {
    session.Abort();
    return AuditVerdict::kSkip;
  }
  session.Commit({{key, std::nullopt}});  // release, value left in place
  if (!value) return AuditVerdict::kSkip;
  long long got = std::atoll(value->c_str());
  long long t2 = tally.load();
  return (got >= t1 && got <= t2 + threads) ? AuditVerdict::kOk
                                            : AuditVerdict::kStale;
}

/// The read path: one IQget through the session (served from the near
/// cache when the server granted validity). Data keys are never
/// recomputed — a miss means a restarted shard — so the I lease a recompute
/// miss carries is dropped at once to unblock other readers.
std::optional<std::string> ReadDataKey(IQSession& session,
                                       const std::string& key) {
  ClientGetResult got = session.Get(key);
  if (got.status == ClientGetResult::Status::kHit) return std::move(got.value);
  if (got.status == ClientGetResult::Status::kMissRecompute) {
    session.DropLease(key);
  }
  return std::nullopt;
}

/// Data keys are never written after seeding, so any hit must return the
/// seeded constant; a miss is a restarted shard (no verdict).
AuditVerdict AuditRemoteDataKey(IQSession& session, const std::string& key) {
  std::optional<std::string> value = ReadDataKey(session, key);
  if (!value) return AuditVerdict::kSkip;
  return *value == kDataValue ? AuditVerdict::kOk : AuditVerdict::kStale;
}

int RunRemote(const Options& opt) {
  std::string error;
  std::vector<net::Endpoint> endpoints = net::ParseEndpoints(opt.connect, &error);
  if (endpoints.empty()) {
    std::fprintf(stderr, "iqbench: %s\n", error.c_str());
    return 1;
  }
  std::printf("iqbench: remote cache tier:");
  for (const net::Endpoint& ep : endpoints) {
    std::printf(" %s", net::Name(ep).c_str());
  }
  std::printf(" (%zu shard%s) | %d threads, %.1fs, %.1f%% writes\n",
              endpoints.size(), endpoints.size() == 1 ? "" : "s", opt.threads,
              opt.seconds, opt.mix);
  if (opt.zipf > 0 || opt.rmw_delta || opt.multikey_rate > 0) {
    std::printf("iqbench: zipf=%.2f rmw=%s multikey-rate=%.2f\n", opt.zipf,
                opt.rmw_delta ? "delta" : "sar", opt.multikey_rate);
  }

  check::OpLog op_log;
  check::OpLog* log = opt.oplog.empty() ? nullptr : &op_log;

  // Seed the keyspace through the routing stack: shared counters for the
  // write protocol, data keys for the read path. The seeds and the settle
  // pass's final reads are the only records no session sees, so iqbench
  // logs them itself (session 0), each seed before its install.
  {
    RemoteStack setup(endpoints, opt, nullptr, opt.seed);
    auto seed = [&](const std::string& key, const std::string& value) {
      if (log != nullptr) {
        log->Record(0, check::OpKind::kSeed, TraceKeyHash(key),
                    check::OpValueHash(value));
      }
      setup.backend->Set(key, value);
    };
    for (int i = 0; i < kRemoteCounters; ++i) seed(CounterKey(i), "0");
    for (int i = 0; i < kRemoteDataKeys; ++i) seed(DataKey(i), kDataValue);
  }

  // Key pickers: Zipfian skew (scrambled so hot ids spread over the space)
  // concentrates lease contention on a few hot counters. The generators
  // are stateless after construction and shared across threads.
  std::optional<ScrambledZipfian> ctr_zipf, data_zipf;
  if (opt.zipf > 0) {
    ctr_zipf.emplace(kRemoteCounters, opt.zipf);
    data_zipf.emplace(kRemoteDataKeys, opt.zipf);
  }
  auto pick_ctr = [&](Rng& rng) {
    return static_cast<int>(ctr_zipf ? ctr_zipf->Next(rng)
                                     : rng.NextUint64(kRemoteCounters));
  };
  auto pick_data = [&](Rng& rng) {
    return static_cast<int>(data_zipf ? data_zipf->Next(rng)
                                      : rng.NextUint64(kRemoteDataKeys));
  };

  std::vector<std::atomic<long long>> committed(kRemoteCounters);
  for (auto& c : committed) c.store(0);
  std::atomic<std::uint64_t> ops{0};
  // Fault-recovery and router evidence, harvested from each worker's own
  // stack before it exits: the settle-pass stack below connects fresh and
  // would report zeros even after a mid-run shard kill.
  std::atomic<std::uint64_t> worker_reconnects{0};
  std::atomic<std::uint64_t> worker_transport_errors{0};
  std::atomic<std::uint64_t> worker_shard_trips{0};
  std::atomic<std::uint64_t> worker_shard_recoveries{0};
  std::atomic<std::uint64_t> worker_router_commits{0};
  std::atomic<std::uint64_t> worker_cross_shard{0};
  std::atomic<std::uint64_t> audit_samples{0};
  std::atomic<std::uint64_t> audit_stale{0};
  std::atomic<std::uint64_t> audit_skipped{0};
  // Near-cache tally merged from every worker's client-local cache at exit
  // (the client side of the server's near_grants STAT counter).
  std::atomic<std::uint64_t> near_hits{0};
  std::atomic<std::uint64_t> near_expired{0};
  std::atomic<std::uint64_t> near_invalidated{0};
  std::atomic<std::uint64_t> near_evictions{0};
  std::vector<LatencyHistogram> latencies(opt.threads);
  const Clock& clock = SteadyClock::Instance();
  Nanos deadline = clock.Now() + static_cast<Nanos>(opt.seconds * kNanosPerSec);

  std::vector<std::thread> threads;
  for (int t = 0; t < opt.threads; ++t) {
    threads.emplace_back([&, t] {
      RemoteStack stack(endpoints, opt, log,
                        opt.seed + static_cast<std::uint64_t>(t) * 31);
      IQSession& session = *stack.session;
      Rng rng(opt.seed + static_cast<std::uint64_t>(t) * 7919);
      std::uint64_t local_ops = 0;
      while (clock.Now() < deadline) {
        Nanos start = clock.Now();
        if (rng.NextUint64(10000) < static_cast<std::uint64_t>(opt.mix * 100)) {
          std::vector<int> ctrs = {pick_ctr(rng)};
          if (opt.multikey_rate > 0 && rng.NextBool(opt.multikey_rate)) {
            int jdx = pick_ctr(rng);
            while (jdx == ctrs[0]) {
              jdx = static_cast<int>(rng.NextUint64(kRemoteCounters));
            }
            // Order the keys so contending sessions always acquire in the
            // same direction (no circular rejection livelock).
            ctrs.push_back(jdx);
            if (ctrs[1] < ctrs[0]) std::swap(ctrs[0], ctrs[1]);
          }
          // A false return means the run deadline arrived while the
          // counter's shard was unreachable — not an error: the increment
          // never committed, so it is not tallied and the balance holds.
          RemoteIncrement(session, ctrs, committed, deadline,
                          opt.rmw_delta && ctrs.size() == 1);
        } else if (opt.audit_rate > 0 && rng.NextBool(opt.audit_rate)) {
          // Audit instead of a plain read: one shared counter under a Q
          // lease and one never-written data key.
          int idx = pick_ctr(rng);
          for (AuditVerdict verdict :
               {AuditRemoteCounter(session, CounterKey(idx), committed[idx],
                                   opt.threads),
                AuditRemoteDataKey(session, DataKey(pick_data(rng)))}) {
            switch (verdict) {
              case AuditVerdict::kOk: ++audit_samples; break;
              case AuditVerdict::kStale:
                ++audit_samples;
                ++audit_stale;
                break;
              case AuditVerdict::kSkip: ++audit_skipped; break;
            }
          }
        } else {
          for (int k = 0; k < 3; ++k) {
            ReadDataKey(session, DataKey(pick_data(rng)));
          }
        }
        latencies[t].Record(clock.Now() - start);
        ++local_ops;
      }
      ops.fetch_add(local_ops, std::memory_order_relaxed);
      if (NearCache* near = stack.client->near_cache()) {
        NearCache::Stats ns = near->stats();
        near_hits += ns.hits;
        near_expired += ns.expired;
        near_invalidated += ns.invalidated;
        near_evictions += ns.evictions;
      }
      for (const auto& channel : stack.channels) {
        worker_reconnects += channel->reconnects();
        worker_transport_errors += channel->transport_errors();
      }
      if (stack.router) {
        auto rs = stack.router->router_stats();
        worker_shard_trips += rs.shard_trips;
        worker_shard_recoveries += rs.shard_recoveries;
        worker_router_commits += rs.fanout_commits;
        worker_cross_shard += rs.cross_shard_sessions;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Exact IQ counter balance: every committed increment — and nothing
  // else — must be visible, wherever the ring placed each counter. A lost
  // lease, a desynced pipeline, or a mis-routed fan-out shows up here as a
  // mismatch.
  //
  // Settle pass: one more increment per counter through the Q-lease path.
  // A counter whose shard was killed and restarted is missing from the
  // restarted server; the settle increment reseeds it from the tally (the
  // same recovery every worker performs), so the read below checks real
  // end-to-end recovery rather than special-casing restarted shards. The
  // deadline also gives a just-restarted shard time to accept connections.
  RemoteStack settle(endpoints, opt, log, opt.seed ^ 0xC0FFEE);
  Nanos settle_deadline = clock.Now() + 10 * kNanosPerSec;
  long long total_commits = 0;
  bool balanced = true;
  for (int i = 0; i < kRemoteCounters; ++i) {
    std::string key = CounterKey(i);
    if (!RemoteIncrement(*settle.session, {i}, committed, settle_deadline,
                         /*use_delta=*/false)) {
      std::fprintf(stderr, "iqbench: %s unreachable during settle pass\n",
                   key.c_str());
      balanced = false;
      continue;
    }
    auto item = settle.backend->Get(key);
    if (item && log != nullptr) {
      log->Record(0, check::OpKind::kReadHit, TraceKeyHash(key),
                  check::OpValueHash(item->value));
    }
    long long expect = committed[i].load();
    long long got = item ? std::atoll(item->value.c_str()) : -1;
    total_commits += expect;
    if (got != expect) {
      std::fprintf(stderr, "iqbench: ctr:%d = %lld, expected %lld\n", i, got,
                   expect);
      balanced = false;
    }
  }

  LatencyHistogram merged;
  for (const auto& h : latencies) merged.Merge(h);
  double elapsed = opt.seconds;
  std::printf("throughput     %12.0f ops/sec (%llu ops, %lld increments)\n",
              static_cast<double>(ops.load()) / elapsed,
              static_cast<unsigned long long>(ops.load()), total_commits);
  std::printf("latency        %s\n", merged.Summary().c_str());
  std::printf("counter balance %s\n", balanced ? "exact" : "VIOLATED");
  if (opt.audit_rate > 0) {
    std::printf("audit          %llu samples, stale_reads_detected=%llu, "
                "%llu skipped\n",
                static_cast<unsigned long long>(audit_samples.load()),
                static_cast<unsigned long long>(audit_stale.load()),
                static_cast<unsigned long long>(audit_skipped.load()));
  }
  if (opt.near_ttl_ms > 0) {
    std::printf("near cache     %llu hits (zero round trips), %llu expired, "
                "%llu invalidated, %llu evictions\n",
                static_cast<unsigned long long>(near_hits.load()),
                static_cast<unsigned long long>(near_expired.load()),
                static_cast<unsigned long long>(near_invalidated.load()),
                static_cast<unsigned long long>(near_evictions.load()));
  }
  std::printf(
      "fault recovery  %llu transport errors, %llu reconnects, "
      "%llu trips, %llu recoveries (worker-side)\n",
      static_cast<unsigned long long>(worker_transport_errors.load()),
      static_cast<unsigned long long>(worker_reconnects.load()),
      static_cast<unsigned long long>(worker_shard_trips.load()),
      static_cast<unsigned long long>(worker_shard_recoveries.load()));
  if (settle.router) {
    // Logical commits that wrote a shard, and those that wrote more than
    // one: a multi-server run that never crosses shards proves nothing
    // about cross-shard sessions.
    std::printf("router          %llu logical commits, %llu cross-shard "
                "sessions (worker-side)\n",
                static_cast<unsigned long long>(worker_router_commits.load()),
                static_cast<unsigned long long>(worker_cross_shard.load()));
    std::printf("\ncache tier (aggregated + per-shard):\n%s",
                settle.router->FormatStats().c_str());
  } else {
    std::printf("\ncache server:\n%s",
                net::RemoteBackend(*settle.channels[0]).Stats().c_str());
  }
  if (log && !op_log.DumpToFile(opt.oplog)) {
    std::fprintf(stderr, "iqbench: cannot write op log '%s'\n",
                 opt.oplog.c_str());
    return 1;
  }
  return balanced && audit_stale.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Parse(argc, argv);
  if (!opt.connect.empty()) return RunRemote(opt);

  std::printf("iqbench: %s / %s / %s | %lld members, %d threads, %.1fs, %.1f%% writes\n",
              casql::ToString(opt.technique), casql::ToString(opt.consistency),
              casql::ToString(opt.placement),
              static_cast<long long>(opt.members), opt.threads, opt.seconds,
              opt.mix);

  sql::Database::Config db_cfg;
  db_cfg.read_delay = opt.db_read;
  db_cfg.write_delay = opt.db_write;
  db_cfg.commit_delay = opt.db_commit;
  sql::Database db(db_cfg);

  bg::GraphConfig graph;
  graph.members = opt.members;
  graph.friends_per_member = opt.friends;
  graph.resources_per_member = 2;
  graph.comments_per_resource = 2;

  std::printf("loading social graph...\n");
  bg::CreateBgTables(db);
  std::size_t rows = bg::LoadGraph(db, graph);
  std::printf("  %zu rows loaded\n", rows);
  bg::ActionPools pools;
  pools.SeedFromGraph(graph);

  IQServer::Config server_cfg;
  server_cfg.lease_lifetime = opt.lease_lifetime;
  server_cfg.deferred_delete = opt.deferred_delete;
  server_cfg.trace_capacity = opt.trace_capacity;
  server_cfg.near_validity = opt.near_ttl_ms * kNanosPerMilli;
  IQServer server(CacheStore::Config{}, server_cfg);

  check::OpLog op_log;
  casql::CasqlConfig cfg;
  cfg.technique = opt.technique;
  cfg.consistency = opt.consistency;
  cfg.placement = opt.placement;
  cfg.audit_rate = opt.audit_rate;
  if (opt.near_ttl_ms > 0) cfg.client.near_capacity = opt.near_cap;
  if (!opt.oplog.empty()) cfg.client.op_log = &op_log;
  casql::CasqlSystem system(db, server, cfg);

  if (opt.warm) {
    std::printf("warming the cache...\n");
    bg::WarmCache(system, graph);
  }

  bg::WorkloadConfig wl;
  wl.mix = bg::MixForWritePercent(opt.mix);
  wl.threads = opt.threads;
  wl.duration = static_cast<Nanos>(opt.seconds * kNanosPerSec);
  wl.seed = opt.seed;
  wl.validate = opt.validate;
  wl.seed_validator_from_db = true;

  std::printf("running...\n\n");
  bg::WorkloadResult result = bg::RunWorkload(system, pools, graph, wl);

  std::printf("throughput     %12.0f actions/sec (%llu actions, %llu no-ops)\n",
              result.Throughput(),
              static_cast<unsigned long long>(result.actions),
              static_cast<unsigned long long>(result.failed_actions));
  std::printf("latency        %s\n", result.latency.Summary().c_str());
  std::printf("SLA (95%%<100ms) %s\n",
              result.latency.FractionBelow(100 * kNanosPerMilli) >= 0.95
                  ? "met"
                  : "MISSED");
  if (opt.validate) {
    std::printf("unpredictable  %llu of %llu reads (%.3f%%)\n",
                static_cast<unsigned long long>(result.validation.unpredictable),
                static_cast<unsigned long long>(result.validation.reads_checked),
                result.validation.StalePercent());
  }
  std::printf("write sessions %llu (avg %.2f Q-restarts among %llu restarted, max %llu)\n",
              static_cast<unsigned long long>(result.restarts.write_sessions),
              result.restarts.AvgRestarts(),
              static_cast<unsigned long long>(result.restarts.restarted_sessions),
              static_cast<unsigned long long>(result.restarts.max_q_restarts));
  if (opt.audit_rate > 0) {
    casql::AuditStats audit = system.audit_stats();
    std::printf("audit          %llu samples, stale_reads_detected=%llu, "
                "%llu skipped, %llu bounded\n",
                static_cast<unsigned long long>(audit.samples),
                static_cast<unsigned long long>(audit.stale_reads_detected),
                static_cast<unsigned long long>(audit.skipped),
                static_cast<unsigned long long>(audit.bounded));
  }
  if (NearCache* near = system.client().near_cache()) {
    NearCache::Stats ns = near->stats();
    std::printf("near cache     %llu hits (zero round trips), %llu expired, "
                "%llu invalidated, %llu evictions (%zu entries)\n",
                static_cast<unsigned long long>(ns.hits),
                static_cast<unsigned long long>(ns.expired),
                static_cast<unsigned long long>(ns.invalidated),
                static_cast<unsigned long long>(ns.evictions), near->size());
  }
  std::printf("\ncache server:\n%s", net::FormatStats(server).c_str());
  // Artifacts for the offline checker: the client op log and the server's
  // lease trace with its completeness header (iqcheck --oplog / --trace).
  if (!opt.oplog.empty() && !op_log.DumpToFile(opt.oplog)) {
    std::fprintf(stderr, "iqbench: cannot write op log '%s'\n",
                 opt.oplog.c_str());
    return 1;
  }
  if (!opt.trace_out.empty()) {
    std::string text = FormatTraceInfo(server.TraceInfoTotal());
    text += FormatTraceEvents(
        server.TraceSnapshot(std::numeric_limits<std::size_t>::max()));
    std::ofstream out(opt.trace_out, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out.good()) {
      std::fprintf(stderr, "iqbench: cannot write trace '%s'\n",
                   opt.trace_out.c_str());
      return 1;
    }
  }
  // In IQ mode the audit has zero false positives, so any detection is a
  // real consistency bug: fail the run. Baselines are expected to be stale
  // (that is the paper's point), so they report without failing.
  if (opt.consistency == casql::Consistency::kIQ &&
      system.audit_stats().stale_reads_detected != 0) {
    return 1;
  }
  return 0;
}
