// Server-side command dispatch: runs a request read in place (RequestView)
// against an IQServer and appends its response bytes to the connection's
// output buffer - the request-handling loop of the real IQ-Twemcached, minus
// the sockets (see channel.h and tcp_server.h for the transports).
// FormatStats renders a server's counters as STAT lines through the
// counter-set helper (util/counters.h), which owns that line format; the
// `metrics` exposition and both parsers are views of those lines.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "core/iq_server.h"
#include "net/protocol.h"

namespace iq::net {

/// Events returned by a bare `trace` request (no count argument).
inline constexpr std::size_t kDefaultTraceEvents = 128;

class CommandDispatcher {
 public:
  /// `batch_reply_bytes` bounds the reply of one `batch` frame: the frame
  /// stops once its replies hold more bytes than that (a transport passes
  /// its output-side memory guard).
  explicit CommandDispatcher(IQServer& server,
                             std::size_t batch_reply_bytes = 8u << 20)
      : server_(server), batch_reply_bytes_(batch_reply_bytes) {}

  /// Execute one request against the server and append its response bytes
  /// to *out, recording its service time into the server's per-command
  /// latency histograms. kQuit answers OK; transport teardown is the
  /// channel's business. A kBatch frame runs its requests in order (each
  /// recorded under its own class), stopping after the first REJECT or once
  /// its replies pass the reply budget in bytes.
  void DispatchTo(const RequestView& request, std::string* out);

  /// DispatchTo for an owning Request, its reply read back into an owning
  /// Response: an adapter for tests and the benchmark ladder.
  Response Dispatch(const Request& request);

  /// Extra "STAT name value\r\n" lines appended to every `stats` response
  /// (and so to every `metrics` scrape) — how a transport (e.g. TcpServer)
  /// surfaces its wire counters without the dispatcher knowing about
  /// sockets. Must be safe to call from the dispatching thread at any time.
  using StatsAugmenter = std::function<void(std::string&)>;
  void set_stats_augmenter(StatsAugmenter fn) {
    stats_augmenter_ = std::move(fn);
  }

 private:
  /// FormatStats plus the augmenter's lines: the `stats` reply body, which
  /// `metrics` re-renders.
  std::string StatsText() const;
  void DispatchBatch(const RequestView& frame, std::string* out);
  /// Execute and time one request that is not a frame; each step below
  /// returns the type of the response it appended.
  ResponseType Run(const RequestView& request, std::string* out);
  ResponseType DispatchCommand(const RequestView& request, std::string* out);
  ResponseType DispatchGet(const RequestView& request, std::string* out);
  ResponseType DispatchStorage(const RequestView& request, std::string* out);
  ResponseType DispatchIQ(const RequestView& request, std::string* out);

  IQServer& server_;
  const std::size_t batch_reply_bytes_;
  StatsAugmenter stats_augmenter_;
};

/// Latency-accounting class for a wire command.
CommandClass ClassOf(Command c);

/// Render the server's statistics as memcached "STAT name value" lines, the
/// one rendering of its counters: every row of kCacheStatsFields,
/// kIQStatsFields and kTraceInfoFields, the live-lease gauge (leases_live),
/// and per-command service times in nanoseconds
/// ("cmd_<class>_{count,mean_ns,p95_ns,p99_ns,max_ns}") for every command
/// class observed so far. Every counter is a lifetime total; rates are the
/// reader's difference of two scrapes.
std::string FormatStats(const IQServer& server);

/// Inverse of FormatStats for the IQ lease counters: pick the
/// "STAT <name> <value>" lines that map onto IQServerStats fields out of a
/// `stats` response body, ignoring everything else (store counters, latency
/// percentiles, wire stats). This is how a ShardedBackend aggregates a TCP
/// child's counters without the child growing a binary stats protocol.
inline IQServerStats ParseIQStats(std::string_view stats_text) {
  return ParseStats(stats_text, kIQStatsFields);
}

/// The `metrics` verb's Prometheus text: each numeric "STAT <name> <value>"
/// line of `stat_lines` becomes one "iq_<name> <value>" sample, value text
/// unchanged. Other lines are skipped.
std::string FormatMetrics(std::string_view stat_lines);

/// Parse exposition text produced by FormatMetrics back into a map keyed by
/// the full series id as written (name including any {labels}). Comment and
/// blank lines are ignored. Returns false on a malformed sample line.
bool ParseMetrics(std::string_view text, std::map<std::string, double>* out);

}  // namespace iq::net
