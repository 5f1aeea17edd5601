// RemoteBackend: the IQ client's wire side (the paper's memcached client
// extended with the IQ verbs, Section 5) - a KvsBackend that speaks the
// wire protocol through a Channel. This is the deployment shape of the
// paper's testbed, where the application (IQ-Client) and the cache server
// (IQ-Twemcached) are separate processes. Everything above KvsBackend
// (IQClient, the casql session layer, the BG benchmark) runs unchanged
// over it.
//
// Each per-key verb is one round trip carrying one request; Acquire and
// CommitSwaps frame all their requests as one `batch` round trip (split
// only past the frame caps). A failed round trip or an unparsable reply
// surfaces as the verb's transport-error shape (kTransportError, id 0,
// nullopt, false), never as a miss, a grant or a conflict. So does a key
// the text protocol cannot carry (empty, or holding ' ', '\r' or '\n'):
// nothing is sent for it.
//
// Requests are written into one reused buffer and replies received into
// another, where they are read in place (ResponseView); only the caller's
// result is allocated.
//
// Thread safety: safe for concurrent callers. One mutex covers the build,
// the round trip and the read of each call, since the channel serializes
// round trips anyway, like a single memcached connection would. For higher
// fan-out, give each worker its own RemoteBackend over its own channel.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/kvs_backend.h"
#include "net/channel.h"

namespace iq::net {

class RemoteBackend final : public KvsBackend {
 public:
  /// `clock` defaults to the process steady clock (the remote server's
  /// clock is not observable, exactly as in a real deployment).
  explicit RemoteBackend(Channel& channel, const Clock* clock = nullptr)
      : channel_(channel),
        clock_(clock != nullptr ? *clock : SteadyClock::Instance()) {}

  const Clock& clock() const override { return clock_; }

  // ---- the IQ command set --------------------------------------------------
  SessionId GenID() override;  // 0 on transport failure
  GetReply IQget(std::string_view key, SessionId session = 0) override;
  StoreResult IQset(std::string_view key, std::string_view value,
                    LeaseToken token) override;
  QaReadReply QaRead(std::string_view key, SessionId session) override;
  StoreResult SaR(std::string_view key, std::optional<std::string_view> v_new,
                  LeaseToken token) override;
  /// kGranted only on an explicit GRANTED: a session on a dead channel must
  /// never believe its key quarantined and commit its RDBMS txn with no
  /// invalidation in place.
  QuarantineResult QaReg(SessionId tid, std::string_view key) override;
  /// The void verbs send and forget: a lost reply leaves the outcome
  /// unknown, and lease expiry is the backstop.
  void DaR(SessionId tid) override;
  QuarantineResult IQDelta(SessionId tid, std::string_view key,
                           DeltaOp delta) override;
  void Commit(SessionId tid) override;
  void Abort(SessionId tid) override;
  /// `release <tid> <key>` drops just this lease; the session's buffered
  /// deltas and quarantines on other keys survive, as in IQServer.
  void ReleaseKey(SessionId tid, std::string_view key) override;
  /// One round trip: the requests travel as one `batch` frame (a lone
  /// request as itself), split into several frames, sent in order, only
  /// where one would exceed kMaxRequestBytes or kMaxBatchRequests, or
  /// where the server's reply budget cut a frame short.
  std::vector<LeaseReply> Acquire(
      SessionId tid, const std::vector<LeaseRequest>& requests) override;
  /// The swaps and the commit in one round trip, framed as for Acquire.
  /// The commit's own OK is not reported, as for Commit().
  std::vector<StoreResult> CommitSwaps(SessionId tid,
                                       const std::vector<Swap>& swaps) override;

  // ---- plain memcached operations --------------------------------------------
  std::optional<CacheItem> Get(std::string_view key) override;  // via gets
  StoreResult Set(std::string_view key, std::string_view value) override;
  StoreResult Add(std::string_view key, std::string_view value) override;
  StoreResult Cas(std::string_view key, std::string_view value,
                  std::uint64_t cas) override;
  StoreResult Append(std::string_view key, std::string_view blob) override;
  StoreResult Prepend(std::string_view key, std::string_view blob) override;
  std::optional<std::uint64_t> Incr(std::string_view key,
                                    std::uint64_t amount) override;
  std::optional<std::uint64_t> Decr(std::string_view key,
                                    std::uint64_t amount) override;
  bool DeleteVoid(std::string_view key) override;  // wire delete voids I leases

  // ---- wire-only verbs ---------------------------------------------------------
  /// Fetch N keys in one round trip (`get k1 k2 ... kn`). Result is aligned
  /// with `keys`; misses are nullopt. `with_cas` issues `gets` instead.
  std::vector<std::optional<CacheItem>> MultiGet(
      const std::vector<std::string>& keys, bool with_cas = false);
  void FlushAll();
  /// The `stats` reply's STAT lines.
  std::string Stats();
  /// Force one lease-table sweep on the server; returns the number of
  /// overdue leases expired, or nullopt on transport failure.
  std::optional<std::uint64_t> Sweep();
  /// Scrape the server's Prometheus exposition (`metrics` verb): the `stats`
  /// lines as "iq_<name> <value>" samples. nullopt on transport failure.
  std::optional<std::string> Metrics();
  /// One drained lease trace with its completeness header. `has_info` is
  /// false against pre-TRACE_INFO servers.
  struct TraceDrain {
    std::vector<TraceEvent> events;
    TraceInfo info;
    bool has_info = false;
  };
  /// Drain the newest `max_events` lease-trace events (0 = server default)
  /// and the server's TRACE_INFO header, so the caller (iqcheck) can tell a
  /// complete history from a wrapped one. nullopt on transport failure or
  /// an unparsable reply.
  std::optional<TraceDrain> Trace(std::uint64_t max_events = 0);

 private:
  /// Write `request` into request_, round-trip it into reply_ and return
  /// read(response), the reply read in place, all under mu_. A key the
  /// protocol cannot carry sends nothing and reads a default
  /// (transport-error) view.
  template <typename Read>
  auto Call(const RequestView& request, Read&& read);
  /// Round-trip request_ into reply_ and read the reply; a failed round
  /// trip or an unreadable reply is the transport-error view. Needs mu_.
  ResponseView Exchange();
  /// Send frame_ in frames and call on_reply(i, response) for each request
  /// the server executed, in order. It stops after a REJECT; on a failed
  /// round trip, or a key the protocol cannot carry (then nothing is
  /// sent), the last call gets a transport-error view. Needs mu_.
  template <typename OnReply>
  void CallBatch(OnReply&& on_reply);

  Channel& channel_;
  const Clock& clock_;
  std::mutex mu_;
  std::string request_;  // the request bytes being built
  std::string reply_;    // the reply bytes; the views read point here
  // Views, kept for their capacity: valid only within the call that
  // filled them.
  std::vector<ResponseView> batch_;  // a frame reply's inner responses
  std::vector<RequestView> frame_;   // Acquire's or CommitSwaps' requests
};

}  // namespace iq::net
