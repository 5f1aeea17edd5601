// Ablations of the design choices DESIGN.md calls out:
//
//   A1 - lease lifetime sweep. Leases exist for fault tolerance (a failed
//        client must not wedge a key forever); the cost is that a lifetime
//        shorter than a session reintroduces staleness: the lease expires
//        mid-session, the key is deleted, a concurrent reader re-populates
//        it from a pre-commit snapshot, and the late SaR is dropped.
//        Expect: staleness 0% once the lifetime comfortably exceeds the
//        session duration, plus expiry-delete counts shrinking to zero.
//
//   A2 - the Section 3.3 deferred-delete optimization on/off. With the
//        optimization, readers hit the old version during the quarantine
//        (the re-arrangement window, Figure 4); without it, they back off.
//        Expect: same 0% staleness both ways, but higher hit rate and
//        fewer backoffs with the optimization.
//
//   A3 - back-off policy under an I-lease thundering herd: N readers miss
//        the same hot key while one recomputes. Exponential back-off with
//        jitter issues far fewer futile lookups than a tight fixed delay.
#include "bench_common.h"

#include "core/iq_client.h"
#include "net/remote_backend.h"
#include "util/worker_group.h"

using namespace iq;
using namespace iq::bench;

namespace {

void LeaseLifetimeSweep(BenchScale& scale) {
  sql::Database::Config db_cfg;
  db_cfg.read_delay = 100 * kNanosPerMicro;   // sessions take ~0.5-1ms
  db_cfg.write_delay = 200 * kNanosPerMicro;
  BenchUniverse universe(scale.small_graph, db_cfg, scale.seed);

  PrintHeader("A1: lease lifetime sweep (IQ refresh, high-write mix)");
  std::printf("%-14s %10s %14s %14s\n", "lifetime", "stale%", "expiry-dels",
              "actions/s");
  const Nanos lifetimes[] = {200 * kNanosPerMicro, kNanosPerMilli,
                             10 * kNanosPerMilli, 100 * kNanosPerMilli,
                             10 * kNanosPerSec};
  for (Nanos lifetime : lifetimes) {
    IQServer::Config server_cfg;
    server_cfg.lease_lifetime = lifetime;
    IQServer server(CacheStore::Config{}, server_cfg);
    auto cfg = MakeCasqlConfig(casql::Technique::kRefresh,
                               casql::Consistency::kIQ);
    auto result = universe.RunCellWithServer(server, cfg, bg::HighWriteMix(),
                                             32, scale.cell_duration);
    std::printf("%10.1fms %9.2f%% %14llu %14.0f\n",
                static_cast<double>(lifetime) / kNanosPerMilli,
                result.validation.StalePercent(),
                static_cast<unsigned long long>(server.Stats().expiry_deletes),
                result.Throughput());
    std::fflush(stdout);
  }
}

void DeferredDeleteAblation(BenchScale& scale) {
  sql::Database::Config db_cfg;
  db_cfg.read_delay = 50 * kNanosPerMicro;
  db_cfg.write_delay = 100 * kNanosPerMicro;
  BenchUniverse universe(scale.small_graph, db_cfg, scale.seed + 7);

  PrintHeader("A2: Section 3.3 deferred delete (IQ invalidate, high writes)");
  std::printf("%-14s %10s %12s %12s %14s\n", "mode", "stale%", "hit-rate",
              "backoffs", "actions/s");
  for (bool deferred : {true, false}) {
    IQServer::Config server_cfg;
    server_cfg.deferred_delete = deferred;
    IQServer server(CacheStore::Config{}, server_cfg);
    auto cfg = MakeCasqlConfig(casql::Technique::kInvalidate,
                               casql::Consistency::kIQ);
    auto result = universe.RunCellWithServer(server, cfg, bg::HighWriteMix(),
                                             32, scale.cell_duration,
                                             /*warm_cache=*/true);
    auto stats = server.store().Stats();
    double hit_rate =
        stats.gets == 0
            ? 0
            : 100.0 * static_cast<double>(stats.get_hits) /
                  static_cast<double>(stats.gets);
    std::printf("%-14s %9.2f%% %11.1f%% %12llu %14.0f\n",
                deferred ? "deferred" : "eager",
                result.validation.StalePercent(), hit_rate,
                static_cast<unsigned long long>(server.Stats().backoffs),
                result.Throughput());
    std::fflush(stdout);
  }
}

void BackoffAblation(BenchScale& scale) {
  PrintHeader("A3: thundering herd on one missing hot key (32 readers)");
  std::printf("%-14s %14s %14s\n", "policy", "kvs lookups", "elapsed(ms)");
  for (bool exponential : {true, false}) {
    IQServer server;
    IQClient::Config ccfg;
    ccfg.exponential_backoff = exponential;
    ccfg.backoff_base = 20 * kNanosPerMicro;
    ccfg.backoff_cap = 5 * kNanosPerMilli;
    ccfg.seed = scale.seed;
    IQClient client(server, ccfg);

    Nanos t0 = server.clock().Now();
    WorkerGroup group;
    group.Start(32, [&](int id, const std::atomic<bool>&) {
      auto session = client.NewSession();
      auto r = session->Get("hot", 100000);
      if (r.status == ClientGetResult::Status::kMissRecompute) {
        // The one lease holder "recomputes" for a while (models an
        // expensive RDBMS query), then installs.
        SleepFor(server.clock(), 5 * kNanosPerMilli);
        session->Put("hot", "value");
      }
      (void)id;
    });
    group.StopAndJoin();
    Nanos elapsed = server.clock().Now() - t0;
    auto stats = server.store().Stats();
    std::printf("%-14s %14llu %14.2f\n",
                exponential ? "exponential" : "fixed",
                static_cast<unsigned long long>(stats.gets),
                static_cast<double>(elapsed) / kNanosPerMilli);
    std::fflush(stdout);
  }
  std::printf(
      "\nOne session recomputes; everyone else converges on its value\n"
      "(Facebook's thundering-herd protection via the I lease).\n");
}

void TransportAblation(BenchScale& scale) {
  PrintHeader("A5: transport - in-process vs wire protocol (refresh cycle)");
  std::printf("%-26s %16s\n", "backend", "sessions/sec");
  // One full refresh write cycle per session: QaRead + SaR + commit.
  auto run = [&](KvsBackend& backend) {
    IQClient client(backend);
    backend.Set("K", "0");
    Nanos t0 = backend.clock().Now();
    constexpr int kSessions = 20000;
    for (int i = 0; i < kSessions; ++i) {
      auto session = client.NewSession();
      std::optional<std::string> old;
      if (session->QaRead("K", old) == ClientQResult::kGranted && old) {
        session->SaR("K", std::to_string(std::stoll(*old) + 1));
      }
      session->Commit();
    }
    Nanos elapsed = backend.clock().Now() - t0;
    return static_cast<double>(kSessions) /
           (static_cast<double>(elapsed) / kNanosPerSec);
  };
  {
    IQServer server;
    std::printf("%-26s %16.0f\n", "in-process", run(server));
  }
  {
    IQServer server;
    net::LoopbackChannel channel(server);
    net::RemoteBackend backend(channel);
    std::printf("%-26s %16.0f\n", "wire (loopback)", run(backend));
  }
  {
    IQServer server;
    net::LoopbackChannel channel(server, /*one_way_latency=*/50 * kNanosPerMicro);
    net::RemoteBackend backend(channel);
    std::printf("%-26s %16.0f\n", "wire (100us RTT)", run(backend));
  }
  (void)scale;
  std::printf(
      "\nThe protocol codec costs ~2-4x; network latency dominates real\n"
      "deployments (which is why the paper's absolute SoAR is ~30k/s).\n");
}

}  // namespace

int main() {
  BenchScale scale = BenchScale::FromEnv();
  LeaseLifetimeSweep(scale);
  DeferredDeleteAblation(scale);
  BackoffAblation(scale);
  TransportAblation(scale);
  return 0;
}
