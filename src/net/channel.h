// Transport layer: a byte-oriented channel between a protocol client
// (net::RemoteBackend) and the dispatcher.
//
// LoopbackChannel is an in-process stand-in for a TCP connection to the
// cache server: bytes go through the full write -> parse -> dispatch ->
// write -> parse cycle, with optional injected round-trip latency, so
// everything above the socket layer is exercised exactly as in a networked
// deployment (quit included: it draws no reply).
#pragma once

#include "core/iq_server.h"
#include <atomic>
#include <mutex>
#include <string>

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

}  // namespace iq::net
