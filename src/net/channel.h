// Transport layer: a byte-oriented channel between a protocol client and
// the dispatcher, plus a remote-client facade that speaks the wire format.
//
// LoopbackChannel is an in-process stand-in for a TCP connection to the
// cache server: bytes go through the full serialize -> parse -> dispatch ->
// serialize -> parse cycle, with optional injected round-trip latency, so
// everything above the socket layer is exercised exactly as in a networked
// deployment.
#pragma once

#include "core/iq_server.h"
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/server.h"
#include "util/clock.h"

namespace iq::net {

/// Abstract request/response byte channel (client side of a connection).
class Channel {
 public:
  virtual ~Channel() = default;
  /// Send request bytes; block until the response bytes arrive in *reply.
  /// Returns false on transport failure (dead connection, deadline expiry,
  /// fault injection) — *reply is then unspecified. A zero-byte reply with
  /// a true return is a valid (empty) response, distinct from failure.
  virtual bool RoundTrip(const std::string& request_bytes,
                         std::string* reply) = 0;
};

/// In-process channel straight into a CommandDispatcher.
class LoopbackChannel final : public Channel {
 public:
  /// `one_way_latency` is injected on each direction of every round trip.
  explicit LoopbackChannel(IQServer& server, Nanos one_way_latency = 0,
                           const Clock* clock = nullptr);

  bool RoundTrip(const std::string& request_bytes,
                 std::string* reply) override;

  /// Requests served so far. Safe to call while other threads are inside
  /// RoundTrip (monitoring reads race with increments, hence the atomic).
  std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  CommandDispatcher dispatcher_;
  Nanos latency_;
  const Clock& clock_;
  std::mutex mu_;  // one outstanding request per connection, like memcached
  RequestParser parser_;
  std::atomic<std::uint64_t> requests_{0};
};

/// A memcached/IQ client that talks through a Channel - the remote
/// equivalent of calling IQServer directly. Each method performs one
/// round trip.
class RemoteCacheClient {
 public:
  explicit RemoteCacheClient(Channel& channel) : channel_(channel) {}

  // -- standard commands --
  std::optional<CacheItem> Get(const std::string& key);
  std::optional<CacheItem> Gets(const std::string& key);
  /// Fetch N keys in one round trip (`get k1 k2 ... kn`). Result is aligned
  /// with `keys`; misses are nullopt. `with_cas` issues `gets` instead.
  std::vector<std::optional<CacheItem>> MultiGet(
      const std::vector<std::string>& keys, bool with_cas = false);
  StoreResult Set(const std::string& key, const std::string& value,
                  std::uint32_t flags = 0, std::int64_t exptime = 0);
  StoreResult Add(const std::string& key, const std::string& value);
  StoreResult Cas(const std::string& key, const std::string& value,
                  std::uint64_t unique);
  bool Delete(const std::string& key);
  StoreResult Append(const std::string& key, const std::string& blob);
  StoreResult Prepend(const std::string& key, const std::string& blob);
  std::optional<std::uint64_t> Incr(const std::string& key, std::uint64_t amount);
  std::optional<std::uint64_t> Decr(const std::string& key, std::uint64_t amount);
  void FlushAll();
  std::string Stats();
  /// Force one lease-table sweep on the server; returns the number of
  /// overdue leases expired, or nullopt on transport failure.
  std::optional<std::uint64_t> Sweep();
  /// Scrape the server's Prometheus exposition (`metrics` verb): the `stats`
  /// lines as "iq_<name> <value>" samples. nullopt on transport failure.
  std::optional<std::string> Metrics();
  /// Drain the newest `max_events` lease-trace events (0 = server default).
  /// nullopt on transport failure or an unparsable reply.
  std::optional<std::vector<TraceEvent>> Trace(std::uint64_t max_events = 0);
  /// One drained trace with its completeness header. `has_info` is false
  /// against pre-TRACE_INFO servers.
  struct TraceDrain {
    std::vector<TraceEvent> events;
    TraceInfo info;
    bool has_info = false;
  };
  /// Like Trace() but also returns the server's TRACE_INFO header, so the
  /// caller (iqcheck) can tell a complete history from a wrapped one.
  std::optional<TraceDrain> TraceWithInfo(std::uint64_t max_events = 0);

  // -- IQ commands --
  GetReply IQget(const std::string& key, SessionId session);
  StoreResult IQset(const std::string& key, const std::string& value,
                    LeaseToken token);
  QaReadReply QaRead(const std::string& key, SessionId session);
  StoreResult SaR(const std::string& key,
                  const std::optional<std::string>& value, LeaseToken token);
  SessionId GenID();
  /// Parses the wire reply: kGranted only on an explicit GRANTED — a dead
  /// channel yields kTransportError, never a silently "granted" quarantine.
  QuarantineResult QaReg(SessionId tid, const std::string& key);
  /// Each returns true iff the server acknowledged (OK). False means the
  /// command may or may not have been applied; lease expiry is the backstop.
  bool DaR(SessionId tid);
  QuarantineResult IQDelta(SessionId tid, const std::string& key, DeltaOp delta);
  bool Commit(SessionId tid);
  bool Abort(SessionId tid);
  /// Drop the session's lease on one key, keeping everything else it holds.
  bool Release(SessionId tid, const std::string& key);

  // -- a write session's batches (KvsBackend::Acquire / CommitSwaps) --
  /// Each is one round trip: the requests travel as one `batch` frame (a
  /// lone request as itself), split into several frames, sent in order,
  /// only where one would exceed kMaxRequestBytes or kMaxBatchRequests, or
  /// where the server's reply budget cut a frame short.
  std::vector<LeaseReply> Acquire(SessionId tid,
                                  const std::vector<LeaseRequest>& requests);
  /// The commit's own OK is not reported, as for Commit().
  std::vector<StoreResult> CommitSwaps(SessionId tid,
                                       const std::vector<Swap>& swaps);

 private:
  Response Call(const Request& request);
  Response Exchange(const std::string& request_bytes);
  /// Send `requests` in frames; one response per executed request, in
  /// order. The list stops short after a REJECT (the requests after it are
  /// then not sent) and ends with a kTransportError response when a round
  /// trip failed.
  std::vector<Response> CallBatch(const std::vector<Request>& requests);

  Channel& channel_;
};

}  // namespace iq::net
