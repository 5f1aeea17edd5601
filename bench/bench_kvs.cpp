// bench_kvs: read-hit scaling of the CacheStore hot path, optimistic
// (mutex-free seqlock entries, DESIGN.md §4.6) vs locked (per-shard mutex),
// plus single-thread hit latency for both — the numbers behind the claim
// that lease-free read hits no longer serialize on shard mutexes.
//
// All threads share one hot keyspace (the worst case for the mutex: every
// hit funnels through the shard locks; the best case for the seqlock:
// readers share nothing writable but each entry's CLOCK bit, written only
// while it is clear, and count their hits in per-thread slots).
//
// Environment:
//   IQ_BENCH_SECONDS   measurement window per cell in seconds (default 1.0)
//   IQ_BENCH_KVS_OUT   JSON artifact path (default BENCH_kvs.json)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/iq_server.h"
#include "kvs/kvs.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kKeys = 256;
constexpr int kValueBytes = 64;

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

iq::CacheStore::Config StoreConfig(bool optimistic) {
  iq::CacheStore::Config cfg;
  cfg.shard_count = 16;
  cfg.memory_budget_bytes = 0;
  if (!optimistic) cfg.optimistic_value_cap = 0;
  return cfg;
}

std::vector<std::string> MakeKeys() {
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) keys.push_back("hot" + std::to_string(i));
  return keys;
}

void Fill(iq::CacheStore& store, const std::vector<std::string>& keys) {
  const std::string value(kValueBytes, 'v');
  for (const auto& k : keys) store.Set(k, value);
}

/// Aggregate Get/sec across `threads` readers over the window.
double RunReadCell(bool optimistic, int threads, double seconds) {
  iq::CacheStore store(StoreConfig(optimistic));
  const auto keys = MakeKeys();
  Fill(store, keys);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t ops = 0;
      std::size_t i = static_cast<std::size_t>(t) * 37;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int b = 0; b < 64; ++b) {
          auto item = store.Get(keys[i++ % kKeys]);
          if (item) ++ops;
        }
      }
      total.fetch_add(ops, std::memory_order_relaxed);
    });
  }
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  return elapsed > 0 ? static_cast<double>(total.load()) / elapsed : 0;
}

/// Single-thread ns per hit through CacheStore::Get.
double RunLatencyCell(bool optimistic, double seconds) {
  iq::CacheStore store(StoreConfig(optimistic));
  const auto keys = MakeKeys();
  Fill(store, keys);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::uint64_t ops = 0;
  const auto start = Clock::now();
  std::size_t i = 0;
  while (Clock::now() < deadline) {
    for (int b = 0; b < 256; ++b) {
      auto item = store.Get(keys[i++ % kKeys]);
      if (item) ++ops;
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  return ops > 0 ? elapsed * 1e9 / static_cast<double>(ops) : 0;
}

/// Single-thread ns per lease-free IQget hit (the paper's Table 8 path).
double RunIQgetLatencyCell(bool optimistic, double seconds) {
  iq::IQServer server(StoreConfig(optimistic), iq::IQServer::Config{});
  const auto keys = MakeKeys();
  Fill(server.store(), keys);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::uint64_t ops = 0;
  const auto start = Clock::now();
  std::size_t i = 0;
  while (Clock::now() < deadline) {
    for (int b = 0; b < 256; ++b) {
      iq::GetReply r = server.IQget(keys[i++ % kKeys], 0);
      if (r.status == iq::GetReply::Status::kHit) ++ops;
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  return ops > 0 ? elapsed * 1e9 / static_cast<double>(ops) : 0;
}

}  // namespace

int main() {
  const double seconds = EnvDouble("IQ_BENCH_SECONDS", 1.0);
  const unsigned hw = std::thread::hardware_concurrency();
  const int thread_counts[] = {1, 2, 4, 8};

  std::printf("bench_kvs: shared-keyspace read hits, %d keys x %d-byte "
              "values, %.1fs per cell, %u hardware threads\n\n",
              kKeys, kValueBytes, seconds, hw);

  struct Cell {
    int threads;
    double opt_ops;
    double locked_ops;
  };
  std::vector<Cell> cells;
  std::printf("  %-8s %18s %18s %10s\n", "threads", "optimistic ops/s",
              "locked ops/s", "ratio");
  for (int n : thread_counts) {
    Cell c;
    c.threads = n;
    c.opt_ops = RunReadCell(/*optimistic=*/true, n, seconds);
    c.locked_ops = RunReadCell(/*optimistic=*/false, n, seconds);
    cells.push_back(c);
    std::printf("  %-8d %18.0f %18.0f %9.2fx\n", n, c.opt_ops, c.locked_ops,
                c.locked_ops > 0 ? c.opt_ops / c.locked_ops : 0);
  }

  const double lat_opt = RunLatencyCell(true, seconds);
  const double lat_locked = RunLatencyCell(false, seconds);
  const double iq_lat_opt = RunIQgetLatencyCell(true, seconds);
  const double iq_lat_locked = RunIQgetLatencyCell(false, seconds);
  std::printf("\n  single-thread Get hit:   optimistic %.0f ns, locked %.0f ns\n",
              lat_opt, lat_locked);
  std::printf("  single-thread IQget hit: optimistic %.0f ns, locked %.0f ns\n",
              iq_lat_opt, iq_lat_locked);

  const double scaling_8_vs_1 =
      cells[0].opt_ops > 0 ? cells[3].opt_ops / cells[0].opt_ops : 0;
  const char* note =
      hw <= 1 ? "single-CPU host: every reader thread timeshares one core, so "
                "threads-vs-1 ratios attribute scheduler overhead, not "
                "parallel scaling; the meaningful single-host signals are the "
                "optimistic-vs-locked ratios and the single-thread latencies. "
                "Rerun on a multicore host for the scaling check."
              : "";
  if (note[0] != '\0') std::printf("\n  note: %s\n", note);

  const char* out_path = std::getenv("IQ_BENCH_KVS_OUT");
  if (out_path == nullptr) out_path = "BENCH_kvs.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kvs: cannot write %s\n", out_path);
    return 1;
  }
  // bench_kvs drives the in-process store in the shared execution model
  // (any thread touches any shard), with `workers` = the largest reader
  // count exercised.
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"bench_kvs\",\n"
               "  \"mode\": \"shared\",\n"
               "  \"workers\": %d,\n"
               "  \"keys\": %d,\n"
               "  \"value_bytes\": %d,\n"
               "  \"window_seconds\": %.2f,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"read_hit_cells\": [\n",
               thread_counts[3], kKeys, kValueBytes, seconds, hw);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::fprintf(f,
                 "    {\"threads\": %d, \"optimistic_ops_per_sec\": %.0f, "
                 "\"locked_ops_per_sec\": %.0f}%s\n",
                 cells[i].threads, cells[i].opt_ops, cells[i].locked_ops,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"optimistic_scaling_8_threads_vs_1\": %.2f,\n"
               "  \"single_thread_get_hit_ns\": "
               "{\"optimistic\": %.0f, \"locked\": %.0f},\n"
               "  \"single_thread_iqget_hit_ns\": "
               "{\"optimistic\": %.0f, \"locked\": %.0f},\n"
               "  \"note\": \"%s\"\n"
               "}\n",
               scaling_8_vs_1, lat_opt, lat_locked, iq_lat_opt, iq_lat_locked,
               note);
  std::fclose(f);
  std::printf("  wrote %s\n", out_path);
  return 0;
}
