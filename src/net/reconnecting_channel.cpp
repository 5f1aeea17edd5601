#include "net/reconnecting_channel.h"

#include <charconv>

namespace iq::net {

std::string Name(const Endpoint& endpoint) {
  return endpoint.host + ":" + std::to_string(endpoint.port);
}

std::vector<Endpoint> ParseEndpoints(const std::string& spec,
                                     std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::vector<Endpoint>{};
  };
  std::vector<Endpoint> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string_view element(spec.data() + pos, comma - pos);
    if (element.empty()) return fail("empty endpoint in '" + spec + "'");
    Endpoint ep;
    std::size_t colon = element.rfind(':');
    if (colon == std::string_view::npos) {
      ep.host = std::string(element);
    } else {
      std::string_view port_sv = element.substr(colon + 1);
      std::uint16_t port = 0;
      auto [p, ec] =
          std::from_chars(port_sv.data(), port_sv.data() + port_sv.size(), port);
      if (ec != std::errc{} || p != port_sv.data() + port_sv.size() ||
          port == 0) {
        return fail("bad port in '" + std::string(element) + "'");
      }
      ep.host = std::string(element.substr(0, colon));
      ep.port = port;
    }
    if (ep.host.empty()) return fail("empty host in '" + std::string(element) + "'");
    out.push_back(std::move(ep));
    if (comma == spec.size()) break;
    pos = comma + 1;
  }
  if (out.empty()) return fail("no endpoints in '" + spec + "'");
  return out;
}

ReconnectingChannel::ReconnectingChannel(Endpoint endpoint, Config config)
    : endpoint_(std::move(endpoint)),
      config_(config),
      // Derive the jitter stream from the endpoint so pooled channels don't
      // retry in lockstep after a shared outage.
      rng_(std::hash<std::string>{}(Name(endpoint_)) | 1) {}

void ReconnectingChannel::TearDownLocked() {
  channel_.reset();
  ExponentialBackoff policy(config_.backoff_base, config_.backoff_cap);
  next_attempt_ =
      SteadyClock::Instance().Now() + policy.DelayFor(attempts_++, rng_);
}

bool ReconnectingChannel::EnsureConnectedLocked() {
  if (channel_ != nullptr && channel_->connected()) return true;
  channel_ =
      TcpChannel::Connect(endpoint_.host, endpoint_.port, config_.channel);
  if (channel_ == nullptr) {
    ExponentialBackoff policy(config_.backoff_base, config_.backoff_cap);
    next_attempt_ =
        SteadyClock::Instance().Now() + policy.DelayFor(attempts_++, rng_);
    return false;
  }
  if (ever_connected_) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  ever_connected_ = true;
  attempts_ = 0;
  next_attempt_ = 0;
  return true;
}

bool ReconnectingChannel::RoundTrip(const std::string& request_bytes,
                                    std::string* reply) {
  std::lock_guard lock(mu_);
  bool live = channel_ != nullptr && channel_->connected();
  if (!live) {
    if (SteadyClock::Instance().Now() < next_attempt_) {
      // Backoff window open: fail fast, no syscalls.
      transport_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (!EnsureConnectedLocked()) {
      transport_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  if (channel_->RoundTrip(request_bytes, reply)) return true;
  transport_errors_.fetch_add(1, std::memory_order_relaxed);
  TearDownLocked();
  return false;
}

}  // namespace iq::net
