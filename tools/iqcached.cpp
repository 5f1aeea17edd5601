// iqcached: the standalone IQ cache server — IQServer behind the TCP front
// end, speaking the memcached/IQ text protocol. The networked deployment of
// the paper's IQ-Twemcached: run this on one host, point iqbench --connect
// (or any memcached text-protocol client) at it from others.
//
//   iqcached [--port=N] [--host=A] [--workers=N]
//            [--lease-ms=N] [--near-validity-ms=N] [--eager-delete]
//            [--cache-mb=N] [--sweep-ms=N]
//            [--trace-capacity=N] [--trace-dump[=N]]
//            [--opt-value-cap=N] [--no-opt-reads]
//
// --workers defaults to the host's hardware concurrency; any worker executes
// any command. To partition the key space across cores, run several
// iqcached processes behind a client-side ShardedBackend ring (iqbench
// --connect=A,B,...; DESIGN.md §4.3).
//
// --near-validity-ms grants every clean IQget hit a validity interval of N
// milliseconds, letting clients with a near cache (iqbench --near-cap)
// serve repeat reads locally with zero round trips (DESIGN.md §4.10).
// 0 (the default) disables grants. Note: a nonzero value disables the
// optimistic read path — grants must be recorded under the shard lock.
//
// --opt-value-cap bounds the value size (bytes) served by the mutex-free
// optimistic read path (DESIGN.md §4.6); larger values fall back to the
// locked path. --no-opt-reads (= --opt-value-cap=0) disables the optimistic
// path entirely — the A/B baseline where every read takes its shard mutex.
//
// Runs until SIGINT/SIGTERM, then prints the server's STAT lines plus the
// wire counters: the same lifetime totals a `stats` request (or, as
// Prometheus samples, a `metrics` scrape) returns.
//
// --sweep-ms starts a background thread that calls SweepExpired() on that
// period, deleting keys whose leases expired while no request touched them
// (crashed clients). 0 disables the thread; expired leases are then only
// collected on access or by an explicit `sweep` wire command.
//
// --trace-capacity sizes the per-shard lease-event trace ring (0 disables
// tracing; also disables the `trace` wire verb). --trace-dump[=N] prints the
// newest N (default 512) lease-trace events at shutdown — the flight
// recorder for post-mortems of a failed consistency check.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "core/iq_server.h"
#include "net/server.h"
#include "net/tcp_server.h"
#include "util/flags.h"

using namespace iq;

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true); }

[[noreturn]] void Usage(const char* bad) {
  std::fprintf(stderr, "iqcached: bad argument '%s'\n", bad);
  std::fprintf(stderr,
               "usage: iqcached [--port=N] [--host=A] [--workers=N]\n"
               "                [--lease-ms=N] [--near-validity-ms=N]\n"
               "                [--eager-delete] [--cache-mb=N]\n"
               "                [--sweep-ms=N] [--trace-capacity=N]\n"
               "                [--trace-dump[=N]] [--opt-value-cap=N]\n"
               "                [--no-opt-reads]\n"
               "                [--mutate=own-update|overlap-q] (TEST ONLY)\n"
               "(--workers defaults to the hardware concurrency and must be "
               ">= 1)\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  net::TcpServer::Config net_cfg;
  net_cfg.port = 11211;
  // One worker per hardware thread by default.
  unsigned hw = std::thread::hardware_concurrency();
  net_cfg.workers = hw > 0 ? static_cast<int>(hw) : 1;
  IQServer::Config server_cfg;
  CacheStore::Config store_cfg;
  long long sweep_ms = 1000;
  std::size_t trace_dump = 0;  // 0 = no dump at shutdown
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    const char* arg = argv[i];
    if (flags::Value(arg, "--port=", &v)) {
      net_cfg.port = flags::Number<std::uint16_t>(arg, v, Usage);
    } else if (flags::Value(arg, "--host=", &v)) {
      net_cfg.host = v;
    } else if (flags::Value(arg, "--workers=", &v)) {
      net_cfg.workers = flags::Number<int>(arg, v, Usage);
      if (net_cfg.workers <= 0) Usage(arg);
    } else if (flags::Value(arg, "--lease-ms=", &v)) {
      server_cfg.lease_lifetime =
          flags::Number<Nanos>(arg, v, Usage) * kNanosPerMilli;
    } else if (flags::Value(arg, "--near-validity-ms=", &v)) {
      server_cfg.near_validity =
          flags::Number<Nanos>(arg, v, Usage) * kNanosPerMilli;
    } else if (std::strcmp(arg, "--eager-delete") == 0) {
      server_cfg.deferred_delete = false;
    } else if (flags::Value(arg, "--cache-mb=", &v)) {
      store_cfg.memory_budget_bytes =
          flags::Number<std::size_t>(arg, v, Usage) * 1024 * 1024;
    } else if (flags::Value(arg, "--sweep-ms=", &v)) {
      sweep_ms = flags::Number<long long>(arg, v, Usage);
    } else if (flags::Value(arg, "--opt-value-cap=", &v)) {
      store_cfg.optimistic_value_cap =
          flags::Number<std::size_t>(arg, v, Usage);
    } else if (std::strcmp(arg, "--no-opt-reads") == 0) {
      store_cfg.optimistic_value_cap = 0;
    } else if (flags::Value(arg, "--trace-capacity=", &v)) {
      server_cfg.trace_capacity = flags::Number<std::size_t>(arg, v, Usage);
    } else if (std::strcmp(arg, "--trace-dump") == 0) {
      trace_dump = 512;
    } else if (flags::Value(arg, "--trace-dump=", &v)) {
      trace_dump = flags::Number<std::size_t>(arg, v, Usage);
    } else if (flags::Value(arg, "--mutate=", &v)) {
      // Deliberately re-introduce a historical consistency bug (TEST ONLY;
      // see IQServer::Config). CI runs iqcheck against a mutated server to
      // prove the checker actually catches these.
      if (std::strcmp(v, "own-update") == 0) {
        server_cfg.mutate_own_update_invisible = true;
      } else if (std::strcmp(v, "overlap-q") == 0) {
        server_cfg.mutate_overlap_q = true;
      } else {
        Usage(arg);
      }
    } else {
      Usage(arg);
    }
  }

  IQServer server(store_cfg, server_cfg);
  net::TcpServer tcp(server, net_cfg);
  std::string error;
  if (!tcp.Start(&error)) {
    std::fprintf(stderr, "iqcached: %s\n", error.c_str());
    return 1;
  }
  std::printf("iqcached: listening on %s:%u (%d workers, sweep %lldms)\n",
              net_cfg.host.c_str(), tcp.port(), net_cfg.workers, sweep_ms);
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  // Lease reaper: without it, keys quarantined by clients that died (or
  // were partitioned away) sit dead until some request happens to touch
  // them. The sweep turns lease expiry into an upper bound on how long a
  // crashed writer can keep a key out of the cache.
  std::thread sweeper;
  if (sweep_ms > 0) {
    sweeper = std::thread([&server, sweep_ms] {
      while (!g_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sweep_ms));
        server.SweepExpired();
      }
    });
  }

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (sweeper.joinable()) sweeper.join();

  // Snapshot the wire counters before Stop() tears the workers down.
  std::string stats = net::FormatStats(server);
  AppendStats(stats, tcp.Stats(), net::kTcpServerStatsFields);
  tcp.Stop();
  std::printf("iqcached: shutting down\n%s", stats.c_str());
  if (trace_dump > 0) {
    // TRACE_INFO first, as on the wire, so a captured dump is iqcheck
    // --trace ingestible (and shows whether the ring wrapped).
    std::printf("iqcached: lease trace (newest %zu)\n%s%s", trace_dump,
                FormatTraceInfo(server.TraceInfoTotal()).c_str(),
                FormatTraceEvents(server.TraceSnapshot(trace_dump)).c_str());
  }
  return 0;
}
