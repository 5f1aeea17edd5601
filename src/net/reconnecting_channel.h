// Endpoints and ReconnectingChannel — the connection fabric under a remote
// or sharded cache tier. A client thread holds one ReconnectingChannel per
// endpoint (channels are single-in-flight, like memcached connections),
// builds one RemoteBackend per channel, and hands them to an
// iq::ShardedBackend whose ring routes keys across the endpoints.
//
// Endpoint lists use the conventional comma form "host:port,host:port,...";
// ParseEndpoints is the single parser shared by tools and tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/tcp_channel.h"
#include "util/backoff.h"
#include "util/clock.h"
#include "util/rng.h"

namespace iq::net {

struct Endpoint {
  std::string host;
  std::uint16_t port = 11211;

  bool operator==(const Endpoint&) const = default;
};

/// "host:port" label used for shard names and stats lines.
std::string Name(const Endpoint& endpoint);

/// Parse "h1:p1,h2:p2,..." (port optional, default 11211). Returns an empty
/// vector with *error set on malformed input (empty element, bad port).
std::vector<Endpoint> ParseEndpoints(const std::string& spec,
                                     std::string* error = nullptr);

/// A Channel bound to one endpoint that establishes its TcpChannel on first
/// use and re-establishes it after failure. Connecting is lazy — attempted
/// on the next operation, never from a background thread, so an endpoint
/// down at start heals like one that dies later — and gated by exponential
/// backoff: while the backoff window is open every operation fails fast (a
/// transport error) without touching the network, so a dead shard costs
/// nanoseconds, not a connect timeout, per request.
class ReconnectingChannel final : public Channel {
 public:
  struct Config {
    TcpChannel::Options channel;  // deadlines for the underlying sockets
    Nanos backoff_base = 10 * kNanosPerMilli;
    Nanos backoff_cap = 2 * kNanosPerSec;
  };

  ReconnectingChannel(Endpoint endpoint, Config config);

  /// Fails fast inside a backoff window; otherwise (re)connects as needed
  /// and performs the round trip. A failed trip tears the connection down
  /// and opens the next backoff window.
  bool RoundTrip(const std::string& request_bytes,
                 std::string* reply) override;

  /// Successful connection establishments after the first.
  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Operations failed (dead trips + backoff-window fast-fails).
  std::uint64_t transport_errors() const {
    return transport_errors_.load(std::memory_order_relaxed);
  }

 private:
  bool EnsureConnectedLocked();
  void TearDownLocked();

  const Endpoint endpoint_;
  const Config config_;
  std::mutex mu_;  // guards channel_, attempts_, next_attempt_
  std::unique_ptr<TcpChannel> channel_;
  int attempts_ = 0;          // consecutive failed connect attempts
  Nanos next_attempt_ = 0;    // steady-clock time the backoff window closes
  bool ever_connected_ = false;
  Rng rng_{0x9E3779B97F4A7C15ULL};  // backoff jitter (per-channel stream)
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> transport_errors_{0};
};

}  // namespace iq::net
