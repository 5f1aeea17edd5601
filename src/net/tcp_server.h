// The networked front end of IQ-Twemcached: a multi-threaded TCP server
// speaking the memcached/IQ text protocol over real sockets.
//
// Thread model (one epoll instance per worker, level-triggered):
//   - worker 0 owns the listening socket; it accept4()s non-blocking
//     connections and hands them to the least-loaded worker (by live +
//     pending connection count) through a small mutex-guarded mailbox +
//     eventfd wakeup;
//   - each worker owns its connections outright (parser state, output
//     buffer, epoll registration) and its own CommandDispatcher, so request
//     handling never takes a cross-worker lock — all sharing happens inside
//     IQServer, which is already shard-locked. Any worker executes any
//     command: IQ's guarantees hold under the per-key shard locks, so the
//     executing thread never affects consistency;
//   - a readable event drains *every* complete pipelined request in the
//     input buffer before returning to epoll_wait, and the responses are
//     coalesced into one write() per flush.
//
// Each worker keeps a live TcpServerStats block (util/counters.h), bumped
// with relaxed atomic adds and summed lock-free by Stats(); `stats` over any
// connection includes the totals.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/iq_server.h"
#include "net/server.h"
#include "util/counters.h"

namespace iq::net {

/// Aggregate of the per-worker wire counters.
struct TcpServerStats {
  std::uint64_t conn_accepted = 0;
  std::uint64_t conn_active = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t requests = 0;
};

inline constexpr CounterField<TcpServerStats> kTcpServerStatsFields[] = {
    {"conn_accepted", &TcpServerStats::conn_accepted},
    {"conn_active", &TcpServerStats::conn_active},
    {"bytes_read", &TcpServerStats::bytes_read},
    {"bytes_written", &TcpServerStats::bytes_written},
    {"net_requests", &TcpServerStats::requests},
};
static_assert(CoversEveryField(kTcpServerStatsFields));

class TcpServer {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = kernel-assigned ephemeral; see port()
    int workers = 4;
    /// Output-side memory guard: once a connection's unsent responses
    /// exceed this, the worker stops draining its requests and stops reading
    /// from it (EPOLLIN off) until the backlog flushes — a client that
    /// pipelines reads of large values but never consumes the replies is
    /// throttled by TCP flow control instead of growing server memory
    /// without bound. Soft cap: a single response may overshoot it. One
    /// `batch` frame's reply stops once its data passes the same bound, so
    /// a frame is throttled like the requests it carries.
    std::size_t max_response_bytes = 8u << 20;
  };

  explicit TcpServer(IQServer& server) : TcpServer(server, Config{}) {}
  TcpServer(IQServer& server, Config config);
  ~TcpServer();  // implies Stop()

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind + listen + spawn the workers. False (with *error) on failure.
  bool Start(std::string* error = nullptr);

  /// Close the listener, wake every worker, drop all connections, join.
  /// Idempotent.
  void Stop();

  /// The bound port, valid after a successful Start().
  std::uint16_t port() const { return port_; }

  TcpServerStats Stats() const;

 private:
  struct Connection;
  struct Worker;

  void WorkerLoop(Worker& worker);
  void AcceptReady(Worker& w0);
  void AdoptPending(Worker& worker);
  void AdoptConnection(Worker& worker, int fd);
  void HandleEvent(Worker& worker, Connection& conn, std::uint32_t events);
  /// Alternate DrainRequests/FlushOutput until neither makes progress, then
  /// close or re-arm epoll interest — the tail of every readable/writable
  /// event.
  void PumpConnection(Worker& worker, Connection& conn, bool peer_closed);
  void DrainRequests(Worker& worker, Connection& conn);
  void FlushOutput(Worker& worker, Connection& conn);
  void UpdateInterest(Worker& worker, Connection& conn);
  void CloseConnection(Worker& worker, Connection& conn);

  IQServer& server_;
  Config config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::size_t accept_rotor_ = 0;  // least-loaded tie-break (worker 0 only)
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace iq::net
