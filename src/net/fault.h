// FaultChannel: deterministic transport-fault injection for tests.
//
// Wraps any Channel and fires armed faults against matching round trips.
// The three fault kinds model the distinct failure points of a request on
// a real connection:
//
//   kDropRequest   the request never reaches the server (connect refused,
//                  send into a dead socket): the server state is unchanged
//                  and the round trip fails.
//   kDropResponse  the server EXECUTES the request but the reply is lost
//                  (server crashed after processing, reply segment dropped):
//                  the dangerous asymmetric case — e.g. a QaReg the client
//                  cannot distinguish from one that never arrived.
//   kDown          this and every later round trip fails until Heal() —
//                  a crashed server, as seen from one connection.
//
// Matching is by substring of the serialized request ("qareg", a key, or
// empty for any), with `skip` requests let through first and `count`
// firings before the rule disarms. Rules are checked in Arm() order. A
// `batch` frame is one request: a rule matching any of its inner requests
// fires on the whole frame.
//
// faults_injected() counts every round trip failed here, the ones failed
// while down included, so a test can tell whether a caller reached the
// channel at all. Tests above the wire layer (sessions, the router's
// breaker, casql) use it too: a RemoteBackend over a FaultChannel over a
// LoopbackChannel to an in-process IQServer.
//
// Thread safety: safe for concurrent callers, like the channels it wraps.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/channel.h"

namespace iq::net {

class FaultChannel final : public Channel {
 public:
  enum class Fault { kDropRequest, kDropResponse, kDown };

  struct Rule {
    Fault fault = Fault::kDropResponse;
    /// Substring of the serialized request bytes; empty matches every
    /// request. Commands serialize lowercase ("qareg 7 k1\r\n").
    std::string match;
    /// Let this many matching round trips through before firing.
    int skip = 0;
    /// Fire at most this many times, then disarm; -1 = forever.
    int count = 1;
  };

  explicit FaultChannel(Channel& inner) : inner_(inner) {}

  void Arm(Rule rule) {
    std::lock_guard lock(mu_);
    rules_.push_back(std::move(rule));
  }

  /// Clear a kDown state; armed rules keep their remaining counts.
  void Heal() {
    std::lock_guard lock(mu_);
    down_ = false;
  }

  /// Drop every rule and any kDown state.
  void Clear() {
    std::lock_guard lock(mu_);
    rules_.clear();
    down_ = false;
  }

  bool down() const {
    std::lock_guard lock(mu_);
    return down_;
  }
  std::uint64_t faults_injected() const {
    std::lock_guard lock(mu_);
    return injected_;
  }

  bool RoundTrip(const std::string& request_bytes, std::string* reply) override;

 private:
  Channel& inner_;
  mutable std::mutex mu_;
  std::vector<Rule> rules_;
  bool down_ = false;
  std::uint64_t injected_ = 0;
};

}  // namespace iq::net
