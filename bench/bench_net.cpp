// bench_net: round trips/sec over loopback TCP vs pipeline depth.
//
// Measures the cost the LoopbackChannel was hiding (syscalls, wakeups) and
// what client-side pipelining buys back:
//   - loopback       in-process Channel baseline, depth 1
//   - tcp depth 1    one request per write/read pair (memcached default)
//   - tcp depth 8/64 SendNoWait x N -> Flush (one write) -> Drain
//   - tcp depth 64 against 1/2/4 TcpServer workers: how the server side
//     scales with worker threads once pipelining has amortized the wakeups
//
// Every cell runs kClientThreads concurrent clients (one connection each
// for TCP), the way a cache server is actually loaded: the server drains
// whatever is ready per epoll wakeup, so per-round-trip scheduler costs
// amortize across connections instead of being serialized through one.
//
// The op mix is 1 set : 3 get over a small keyspace with 100-byte values —
// small requests, where per-round-trip overhead dominates, i.e. the case
// pipelining exists for.
//
// Output: a human table on stdout and a JSON record (BENCH_net.json by
// default, override with IQ_BENCH_NET_OUT) so CI can track the trajectory.
// Env knobs: IQ_BENCH_SECONDS (measurement window per cell, default 1.0).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/iq_server.h"
#include "net/channel.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"

using namespace iq;

namespace {

constexpr int kClientThreads = 4;
constexpr int kKeys = 64;
constexpr std::size_t kValueBytes = 100;

/// Build the i-th request of the 1-set:3-get mix.
net::Request MixRequest(std::uint64_t i) {
  net::Request r;
  std::string key = "k:" + std::to_string(i % kKeys);
  if (i % 4 == 0) {
    r.command = net::Command::kSet;
    r.key = std::move(key);
    r.data.assign(kValueBytes, 'v');
  } else {
    r.command = net::Command::kGet;
    r.key = std::move(key);
  }
  return r;
}

/// Aggregate requests/sec of kClientThreads threads, each driving its own
/// channel until the shared deadline. make_channel is called per thread.
double MeasureThreads(
    const std::function<std::unique_ptr<net::Channel>()>& make_channel,
    int depth, Nanos window) {
  const Clock& clock = SteadyClock::Instance();
  Nanos deadline = clock.Now() + window;
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> threads;
  threads.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&, t] {
      std::unique_ptr<net::Channel> channel = make_channel();
      auto* pipelined = dynamic_cast<net::PipelinedChannel*>(channel.get());
      std::uint64_t count = static_cast<std::uint64_t>(t) * 7;  // decorrelate
      std::string bytes;
      std::string reply;
      while (clock.Now() < deadline) {
        if (depth == 1 || pipelined == nullptr) {
          bytes.clear();
          net::AppendTo(MixRequest(count), &bytes);
          if (!channel->RoundTrip(bytes, &reply)) {
            std::fprintf(stderr, "bench_net: transport failure\n");
            std::exit(1);
          }
          ++count;
          total.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (int i = 0; i < depth; ++i) {
          pipelined->SendNoWait(MixRequest(count + static_cast<std::uint64_t>(i)));
        }
        pipelined->Flush();
        std::vector<net::Response> responses = pipelined->Drain();
        if (static_cast<int>(responses.size()) != depth) {
          std::fprintf(stderr, "bench_net: short drain (%zu of %d)\n",
                       responses.size(), depth);
          std::exit(1);
        }
        count += static_cast<std::uint64_t>(depth);
        total.fetch_add(static_cast<std::uint64_t>(depth),
                        std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  return static_cast<double>(total.load()) /
         (static_cast<double>(window) / kNanosPerSec);
}

/// Requests/sec of the mix at `depth` against a fresh IQServer behind a
/// `workers`-worker TcpServer on 127.0.0.1, one connection per client thread.
double MeasureTcp(int workers, int depth, Nanos window) {
  IQServer server;
  net::TcpServer::Config cfg;
  cfg.workers = workers;
  net::TcpServer tcp(server, cfg);
  std::string error;
  if (!tcp.Start(&error)) {
    std::fprintf(stderr, "bench_net: %s\n", error.c_str());
    std::exit(1);
  }
  return MeasureThreads(
      [&tcp]() -> std::unique_ptr<net::Channel> {
        std::string err;
        auto ch = net::TcpChannel::Connect("127.0.0.1", tcp.port(), &err);
        if (!ch) {
          std::fprintf(stderr, "bench_net: %s\n", err.c_str());
          std::exit(1);
        }
        return ch;
      },
      depth, window);
}

/// Round trips one bare 1-byte TCP echo pair (two threads) completes in
/// `window`: no epoll, no parsing, no dispatch. 0 if the host refuses a
/// loopback connection.
std::uint64_t EchoPairRoundTrips(Nanos window) {
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (lfd < 0 || ::bind(lfd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) != 0 ||
      ::listen(lfd, 1) != 0) {
    return 0;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len);
  // Loopback connect completes through the backlog, so accept() after it
  // cannot block.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    ::close(lfd);
    return 0;
  }
  int srv = ::accept(lfd, nullptr, nullptr);
  ::close(lfd);
  if (srv < 0) {
    ::close(fd);
    return 0;
  }
  int on = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
  ::setsockopt(srv, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
  std::thread echo([srv] {
    char b[16];
    while (::read(srv, b, sizeof(b)) > 0) {
      if (::write(srv, b, 1) != 1) break;
    }
    ::close(srv);
  });
  const Clock& clock = SteadyClock::Instance();
  Nanos deadline = clock.Now() + window;
  std::uint64_t count = 0;
  char b[16] = {'x'};
  while (clock.Now() < deadline) {
    if (::write(fd, b, 1) != 1 || ::read(fd, b, sizeof(b)) <= 0) break;
    ++count;
  }
  ::close(fd);  // echo thread's read() returns 0 -> joins
  echo.join();
  return count;
}

/// The syscall + scheduler floor this host imposes on any depth-1
/// request/response protocol, in the same shape as the tcp depth 1 cell:
/// kClientThreads echo pairs at once, round trips/sec summed. Everything
/// the real server adds on top of this is our overhead; the rest is the
/// machine's.
double MeasureWireFloor(Nanos window) {
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> pairs;
  pairs.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    pairs.emplace_back([&total, window] {
      total.fetch_add(EchoPairRoundTrips(window), std::memory_order_relaxed);
    });
  }
  for (auto& th : pairs) th.join();
  return static_cast<double>(total.load()) /
         (static_cast<double>(window) / kNanosPerSec);
}

}  // namespace

int main() {
  Nanos window = static_cast<Nanos>(
      bench::EnvDouble("IQ_BENCH_SECONDS", 1.0) * kNanosPerSec);

  // Loopback baseline: same serialize/parse/dispatch work, no sockets.
  double loopback_rps;
  {
    IQServer server;
    loopback_rps = MeasureThreads(
        [&server] { return std::make_unique<net::LoopbackChannel>(server); },
        1, window);
  }

  // What this host charges for any depth-1 TCP round trip at all.
  double floor_rps = MeasureWireFloor(window);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "bench_net: loopback TCP, 1 set : 3 get, %zu-byte values, "
      "%d client threads, %u hardware threads\n\n",
      kValueBytes, kClientThreads, hw);
  std::printf("  %-18s %14.0f req/s\n", "loopback (no net)", loopback_rps);
  std::printf("  %-18s %14.0f req/s  (%d echo pairs)\n", "wire floor (echo)",
              floor_rps, kClientThreads);

  // TCP over 127.0.0.1 against a 2-worker server, depths 1/8/64.
  const int depths[] = {1, 8, 64};
  std::vector<double> tcp_rps;
  for (int depth : depths) {
    tcp_rps.push_back(MeasureTcp(2, depth, window));
    std::printf("  tcp depth %-8d %14.0f req/s\n", depth, tcp_rps.back());
  }

  // Server-side worker scaling at depth 64.
  const int worker_counts[] = {1, 2, 4};
  std::vector<double> worker_rps;
  for (int workers : worker_counts) {
    worker_rps.push_back(MeasureTcp(workers, 64, window));
    std::printf("  tcp d64 workers=%-2d %14.0f req/s\n", workers,
                worker_rps.back());
  }

  double speedup = tcp_rps.back() / tcp_rps.front();
  double vs_loopback = loopback_rps / tcp_rps.front();
  double pct_of_floor = floor_rps > 0 ? 100.0 * tcp_rps.front() / floor_rps : 0;
  std::printf("\n  depth 64 vs depth 1:   %.2fx\n", speedup);
  std::printf("  loopback vs tcp d1:    %.2fx\n", vs_loopback);
  std::printf("  tcp d1 vs wire floor:  %.0f%% of the attainable rate\n",
              pct_of_floor);

  const char* out_path = std::getenv("IQ_BENCH_NET_OUT");
  if (out_path == nullptr) out_path = "BENCH_net.json";
  if (FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"bench_net\",\n"
                 "  \"mix\": \"1 set : 3 get, %zu-byte values\",\n"
                 "  \"client_threads\": %d,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"loopback_rps\": %.0f,\n"
                 "  \"wire_floor_rps\": %.0f,\n"
                 "  \"wire_floor_pairs\": %d,\n"
                 "  \"tcp\": [\n",
                 kValueBytes, kClientThreads, hw, loopback_rps, floor_rps,
                 kClientThreads);
    for (std::size_t i = 0; i < tcp_rps.size(); ++i) {
      std::fprintf(f, "    {\"depth\": %d, \"rps\": %.0f}%s\n", depths[i],
                   tcp_rps[i], i + 1 < tcp_rps.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"tcp_depth64_by_workers\": [\n");
    for (std::size_t i = 0; i < worker_rps.size(); ++i) {
      std::fprintf(f, "    {\"workers\": %d, \"rps\": %.0f}%s\n",
                   worker_counts[i], worker_rps[i],
                   i + 1 < worker_rps.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"speedup_depth64_vs_depth1\": %.2f,\n"
                 "  \"loopback_over_tcp_depth1\": %.2f,\n"
                 "  \"tcp_depth1_pct_of_wire_floor\": %.1f\n"
                 "}\n",
                 speedup, vs_loopback, pct_of_floor);
    std::fclose(f);
    std::printf("  wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "bench_net: cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}
