// bench_shard: throughput of a sharded cache tier vs shard count.
//
// The tier is 1, 2, or 4 in-process IQServer children behind a
// ShardedBackend consistent-hash ring, each child configured with a
// single-shard CacheStore so the child itself is the serialization point —
// the way a real deployment scales by adding servers, not by adding locks
// inside one. A direct (router-free) IQServer row isolates what the ring
// and session fan-out cost on top.
//
// The op mix is 25% counter increments via the refresh protocol
// (GenID -> QaRead -> SaR -> Commit, abort + retry on rejection) and 75%
// plain gets over a larger keyspace. Every cell ends with two exact checks:
//   - each counter equals the number of increments the clients committed;
//   - the children's summed commit counters equal that same total.
// A lease leak, a mis-routed fan-out, or a ring disagreement between
// threads fails the run (nonzero exit), so CI can gate on it.
//
// Output: a human table on stdout and a JSON record (BENCH_shard.json by
// default, override with IQ_BENCH_SHARD_OUT). On a single-CPU host the
// shards all contend for one core, so the scaling column attributes
// routing overhead rather than parallel speedup; the JSON carries an
// attribution note when hardware_concurrency == 1.
// Env knobs: IQ_BENCH_SECONDS (measurement window per cell, default 1.0).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/iq_server.h"
#include "core/sharded_backend.h"
#include "util/backoff.h"
#include "util/rng.h"

using namespace iq;

namespace {

constexpr int kThreads = 4;
constexpr int kCounters = 32;
constexpr int kDataKeys = 256;
constexpr int kWritePct = 25;

/// One committed increment of `key` through the refresh protocol. Retries
/// on Q-lease rejection; every session ends with Commit/Abort so the
/// router can retire its per-shard session state.
bool Increment(KvsBackend& backend, const std::string& key) {
  for (int attempt = 0; attempt < 100000; ++attempt) {
    SessionId session = backend.GenID();
    QaReadReply q = backend.QaRead(key, session);
    if (q.status != QaReadReply::Status::kGranted) {
      backend.Abort(session);
      SleepFor(backend.clock(), 20 * kNanosPerMicro);
      continue;
    }
    long long current = q.value ? std::atoll(q.value->c_str()) : 0;
    std::string next = std::to_string(current + 1);
    if (backend.SaR(key, std::string_view(next), q.token) ==
        StoreResult::kStored) {
      backend.Commit(session);
      return true;
    }
    backend.Abort(session);
  }
  return false;
}

struct CellResult {
  double ops_per_sec = 0;
  long long increments = 0;
  bool balanced = false;
  // Fraction of the keyspace the lightest/heaviest shard owns (1.0/n ideal).
  double min_share = 1.0;
  double max_share = 1.0;
};

/// Run one cell against per-thread routing stacks built by `make_backend`
/// (shared_ptr so the direct cell can lend out one caller-owned server).
/// The final counter check sees a fresh stack; `commits` must return the
/// summed commit counter of every child.
CellResult RunCell(
    const std::function<std::shared_ptr<KvsBackend>()>& make_backend,
    const std::function<long long()>& commits, Nanos window) {
  const Clock& clock = SteadyClock::Instance();
  {
    auto setup = make_backend();
    for (int i = 0; i < kCounters; ++i) {
      setup->Set("ctr:" + std::to_string(i), "0");
    }
    for (int i = 0; i < kDataKeys; ++i) {
      setup->Set("data:" + std::to_string(i), std::string(100, 'x'));
    }
  }
  std::vector<std::atomic<long long>> committed(kCounters);
  for (auto& c : committed) c.store(0);
  std::atomic<std::uint64_t> ops{0};
  std::atomic<bool> failed{false};
  Nanos deadline = clock.Now() + window;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto backend = make_backend();
      Rng rng(0x5eed + static_cast<std::uint64_t>(t) * 7919);
      std::uint64_t local = 0;
      while (clock.Now() < deadline) {
        if (rng.NextUint64(100) < kWritePct) {
          int idx = static_cast<int>(rng.NextUint64(kCounters));
          if (!Increment(*backend, "ctr:" + std::to_string(idx))) {
            failed.store(true);
            return;
          }
          committed[idx].fetch_add(1, std::memory_order_relaxed);
        } else {
          backend->Get("data:" + std::to_string(rng.NextUint64(kDataKeys)));
        }
        ++local;
      }
      ops.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();

  CellResult r;
  r.ops_per_sec = static_cast<double>(ops.load()) /
                  (static_cast<double>(window) / kNanosPerSec);
  r.balanced = !failed.load();
  auto verify = make_backend();
  for (int i = 0; i < kCounters; ++i) {
    auto item = verify->Get("ctr:" + std::to_string(i));
    long long expect = committed[i].load();
    long long got = item ? std::atoll(item->value.c_str()) : -1;
    r.increments += expect;
    if (got != expect) {
      std::fprintf(stderr, "bench_shard: ctr:%d = %lld, expected %lld\n", i,
                   got, expect);
      r.balanced = false;
    }
  }
  if (commits() != r.increments) {
    std::fprintf(stderr,
                 "bench_shard: children committed %lld sessions, clients "
                 "tallied %lld\n",
                 commits(), r.increments);
    r.balanced = false;
  }
  return r;
}

/// Cell for an n-shard tier: shared children, a ShardedBackend per thread
/// (identical shard names, so every thread's ring agrees on placement).
CellResult RunSharded(int shard_count, Nanos window) {
  std::vector<std::unique_ptr<IQServer>> children;
  for (int i = 0; i < shard_count; ++i) {
    children.push_back(std::make_unique<IQServer>(
        CacheStore::Config{.shard_count = 1},
        IQServer::Config{.lease_lifetime = 0}));
  }
  auto make_backend = [&]() -> std::shared_ptr<KvsBackend> {
    std::vector<ShardedBackend::Shard> shards;
    for (int i = 0; i < shard_count; ++i) {
      IQServer* child = children[static_cast<std::size_t>(i)].get();
      std::string name = "s";
      name += std::to_string(i);
      shards.push_back({std::move(name), child, 1,
                        [child] { return child->Stats(); }, {}, {}, {}});
    }
    return std::make_shared<ShardedBackend>(std::move(shards));
  };
  auto commits = [&] {
    long long total = 0;
    for (const auto& c : children) {
      total += static_cast<long long>(c->Stats().commits);
    }
    return total;
  };
  CellResult r = RunCell(make_backend, commits, window);

  // How evenly the ring spreads this cell's keyspace across the children.
  auto router = make_backend();
  auto* sharded = static_cast<ShardedBackend*>(router.get());
  std::vector<int> owned(static_cast<std::size_t>(shard_count), 0);
  for (int i = 0; i < kCounters; ++i) {
    ++owned[sharded->ShardFor("ctr:" + std::to_string(i))];
  }
  for (int i = 0; i < kDataKeys; ++i) {
    ++owned[sharded->ShardFor("data:" + std::to_string(i))];
  }
  const double total_keys = kCounters + kDataKeys;
  r.min_share = 1.0;
  r.max_share = 0.0;
  for (int count : owned) {
    double share = count / total_keys;
    r.min_share = std::min(r.min_share, share);
    r.max_share = std::max(r.max_share, share);
  }
  return r;
}

/// Router-free baseline: the same workload straight into one IQServer.
CellResult RunDirect(Nanos window) {
  IQServer server(CacheStore::Config{.shard_count = 1},
                  IQServer::Config{.lease_lifetime = 0});
  // The cell scope owns the server; lend it out with a no-op deleter.
  auto make_backend = [&]() -> std::shared_ptr<KvsBackend> {
    return std::shared_ptr<KvsBackend>(&server, [](KvsBackend*) {});
  };
  auto commits = [&] { return static_cast<long long>(server.Stats().commits); };
  return RunCell(make_backend, commits, window);
}

}  // namespace

int main() {
  Nanos window = static_cast<Nanos>(
      bench::EnvDouble("IQ_BENCH_SECONDS", 1.0) * kNanosPerSec);
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf(
      "bench_shard: %d%% refresh increments : %d%% gets, %d client threads, "
      "%u hardware threads\n\n",
      kWritePct, 100 - kWritePct, kThreads, hw);

  CellResult direct = RunDirect(window);
  const int shard_counts[] = {1, 2, 4};
  std::vector<CellResult> cells;

  std::printf("  %-16s %14s %12s %10s %16s\n", "tier", "ops/sec", "increments",
              "balance", "key share min/max");
  std::printf("  %-16s %14.0f %12lld %10s %16s\n", "direct (1 srv)",
              direct.ops_per_sec, direct.increments,
              direct.balanced ? "exact" : "VIOLATED", "-");
  bool all_balanced = direct.balanced;
  for (int n : shard_counts) {
    CellResult r = RunSharded(n, window);
    cells.push_back(r);
    all_balanced = all_balanced && r.balanced;
    char share[32];
    std::snprintf(share, sizeof(share), "%.2f / %.2f", r.min_share,
                  r.max_share);
    char tier[32];
    std::snprintf(tier, sizeof(tier), "sharded x%d", n);
    std::printf("  %-16s %14.0f %12lld %10s %16s\n", tier, r.ops_per_sec,
                r.increments, r.balanced ? "exact" : "VIOLATED", share);
  }

  double router_overhead = cells[0].ops_per_sec > 0
                               ? direct.ops_per_sec / cells[0].ops_per_sec
                               : 0;
  double scaling_4x = cells[0].ops_per_sec > 0
                          ? cells[2].ops_per_sec / cells[0].ops_per_sec
                          : 0;
  std::printf("\n  direct vs sharded x1:  %.2fx (ring + session-map cost)\n",
              router_overhead);
  std::printf("  sharded x4 vs x1:      %.2fx\n", scaling_4x);
  const char* note =
      hw <= 1 ? "single-CPU host: all shards contend for one core, so the "
                "x4-vs-x1 figure attributes routing overhead, not parallel "
                "scaling; rerun on a multicore host for the >=2x check"
              : "";
  if (note[0] != '\0') std::printf("  note: %s\n", note);

  const char* out_path = std::getenv("IQ_BENCH_SHARD_OUT");
  if (out_path == nullptr) out_path = "BENCH_shard.json";
  if (FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"bench_shard\",\n"
                 "  \"mix\": \"%d%% refresh increments : %d%% gets\",\n"
                 "  \"client_threads\": %d,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"direct_ops_per_sec\": %.0f,\n"
                 "  \"tiers\": [\n",
                 kWritePct, 100 - kWritePct, kThreads, hw,
                 direct.ops_per_sec);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::fprintf(f,
                   "    {\"shards\": %d, \"ops_per_sec\": %.0f, "
                   "\"increments\": %lld, \"balanced\": %s, "
                   "\"key_share_min\": %.3f, \"key_share_max\": %.3f}%s\n",
                   shard_counts[i], cells[i].ops_per_sec, cells[i].increments,
                   cells[i].balanced ? "true" : "false", cells[i].min_share,
                   cells[i].max_share, i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"scaling_4_shards_vs_1\": %.2f,\n"
                 "  \"router_overhead_vs_direct\": %.2f,\n"
                 "  \"note\": \"%s\"\n"
                 "}\n",
                 scaling_4x, router_overhead, note);
    std::fclose(f);
    std::printf("  wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "bench_shard: cannot write %s\n", out_path);
    return 1;
  }
  return all_balanced ? 0 : 1;
}
