// Server-side command dispatch: maps parsed protocol Requests onto an
// IQServer, producing protocol Responses - the request-handling loop of the
// real IQ-Twemcached, minus the sockets (see channel.h for the transport).
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "core/iq_server.h"
#include "net/protocol.h"

namespace iq::net {

/// Events returned by a bare `trace` request (no count argument).
inline constexpr std::size_t kDefaultTraceEvents = 128;

class CommandDispatcher {
 public:
  explicit CommandDispatcher(IQServer& server) : server_(server) {}

  /// Execute one request against the server, recording its service time
  /// into the server's per-command latency histograms. kQuit returns kOk;
  /// transport teardown is the channel's business.
  Response Dispatch(const Request& request);

  /// Extra "STAT name value\r\n" lines appended to every `stats` response —
  /// how a transport (e.g. TcpServer) surfaces its wire counters without
  /// the dispatcher knowing about sockets. Must be safe to call from the
  /// dispatching thread at any time.
  using StatsAugmenter = std::function<void(std::string&)>;
  void set_stats_augmenter(StatsAugmenter fn) {
    stats_augmenter_ = std::move(fn);
  }

 private:
  Response DispatchCommand(const Request& request);
  Response DispatchStorage(const Request& request);
  Response DispatchIQ(const Request& request);

  IQServer& server_;
  StatsAugmenter stats_augmenter_;
};

/// Latency-accounting class for a wire command.
CommandClass ClassOf(Command c);

/// Render the server's statistics as memcached "STAT name value" lines:
/// the CacheStore counters, the IQ lease counters, and per-command latency
/// percentiles ("cmd_<class>_{count,mean_us,p95_us,p99_us,max_us}") for
/// every command class observed so far.
std::string FormatStats(const IQServer& server);

/// Render one StatsWindowSample as "STAT" lines: window_ms, then per IQ
/// counter the windowed delta ("w_<name>") and, when the window has width,
/// the rate ("w_<name>_per_sec", 3 decimals). The STAT-format twin of the
/// Prometheus export in net/metrics.h.
std::string FormatWindowedStats(const StatsWindowSample& sample);

/// Inverse of FormatStats for the IQ lease counters: pick the
/// "STAT <name> <value>" lines that map onto IQServerStats fields out of a
/// `stats` response body, ignoring everything else (store counters, latency
/// percentiles, wire stats). This is how a ShardedBackend aggregates a TCP
/// child's counters without the child growing a binary stats protocol.
IQServerStats ParseIQStats(std::string_view stats_text);

}  // namespace iq::net
