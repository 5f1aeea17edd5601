// RemoteBackend: a KvsBackend that speaks the wire protocol through a
// Channel - the deployment shape of the paper's testbed, where the
// application (IQ-Client) and the cache server (IQ-Twemcached) are separate
// processes. Everything above KvsBackend (IQClient, the casql session
// layer, the BG benchmark) runs unchanged over it.
//
// Thread safety: safe for concurrent callers; the underlying channel
// serializes round trips like a single memcached connection would. For
// higher fan-out, give each worker its own RemoteBackend over its own
// channel.
#pragma once

#include "core/kvs_backend.h"
#include "net/channel.h"

namespace iq::net {

class RemoteBackend final : public KvsBackend {
 public:
  /// `clock` defaults to the process steady clock (the remote server's
  /// clock is not observable, exactly as in a real deployment).
  explicit RemoteBackend(Channel& channel, const Clock* clock = nullptr)
      : client_(channel),
        clock_(clock != nullptr ? *clock : SteadyClock::Instance()) {}

  const Clock& clock() const override { return clock_; }

  SessionId GenID() override { return client_.GenID(); }
  GetReply IQget(std::string_view key, SessionId session = 0) override {
    return client_.IQget(std::string(key), session);
  }
  StoreResult IQset(std::string_view key, std::string_view value,
                    LeaseToken token) override {
    return client_.IQset(std::string(key), std::string(value), token);
  }
  QaReadReply QaRead(std::string_view key, SessionId session) override {
    return client_.QaRead(std::string(key), session);
  }
  StoreResult SaR(std::string_view key, std::optional<std::string_view> v_new,
                  LeaseToken token) override {
    return client_.SaR(std::string(key),
                       v_new ? std::optional<std::string>(std::string(*v_new))
                             : std::nullopt,
                       token);
  }
  QuarantineResult QaReg(SessionId tid, std::string_view key) override {
    // The server always grants QaReg, but only an acknowledged GRANTED may
    // be reported as one: returning kGranted unconditionally here let a
    // session on a dead channel believe its keys were quarantined and
    // commit its RDBMS txn with no invalidation in place — the permanent
    // staleness the whole lease protocol exists to prevent.
    return client_.QaReg(tid, std::string(key));
  }
  void DaR(SessionId tid) override { client_.DaR(tid); }
  QuarantineResult IQDelta(SessionId tid, std::string_view key,
                           DeltaOp delta) override {
    return client_.IQDelta(tid, std::string(key), std::move(delta));
  }
  void Commit(SessionId tid) override { client_.Commit(tid); }
  void Abort(SessionId tid) override { client_.Abort(tid); }
  void ReleaseKey(SessionId tid, std::string_view key) override {
    // `release <tid> <key>` drops just this lease; the session's buffered
    // deltas/quarantines on other keys survive, matching IQServer::ReleaseKey.
    client_.Release(tid, std::string(key));
  }
  std::vector<LeaseReply> Acquire(
      SessionId tid, const std::vector<LeaseRequest>& requests) override {
    return client_.Acquire(tid, requests);  // one `batch` round trip
  }
  std::vector<StoreResult> CommitSwaps(
      SessionId tid, const std::vector<Swap>& swaps) override {
    return client_.CommitSwaps(tid, swaps);  // one `batch` round trip
  }

  std::optional<CacheItem> Get(std::string_view key) override {
    return client_.Gets(std::string(key));  // gets: cas unique included
  }
  StoreResult Set(std::string_view key, std::string_view value) override {
    return client_.Set(std::string(key), std::string(value));
  }
  StoreResult Add(std::string_view key, std::string_view value) override {
    return client_.Add(std::string(key), std::string(value));
  }
  StoreResult Cas(std::string_view key, std::string_view value,
                  std::uint64_t cas) override {
    return client_.Cas(std::string(key), std::string(value), cas);
  }
  StoreResult Append(std::string_view key, std::string_view blob) override {
    return client_.Append(std::string(key), std::string(blob));
  }
  StoreResult Prepend(std::string_view key, std::string_view blob) override {
    return client_.Prepend(std::string(key), std::string(blob));
  }
  std::optional<std::uint64_t> Incr(std::string_view key,
                                    std::uint64_t amount) override {
    return client_.Incr(std::string(key), amount);
  }
  std::optional<std::uint64_t> Decr(std::string_view key,
                                    std::uint64_t amount) override {
    return client_.Decr(std::string(key), amount);
  }
  bool DeleteVoid(std::string_view key) override {
    return client_.Delete(std::string(key));  // wire delete voids I leases
  }

 private:
  RemoteCacheClient client_;
  const Clock& clock_;
};

}  // namespace iq::net
