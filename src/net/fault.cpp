#include "net/fault.h"

namespace iq::net {

bool FaultChannel::RoundTrip(const std::string& request_bytes,
                             std::string* reply) {
  Fault fault = Fault::kDropRequest;
  bool fire = false;
  {
    std::lock_guard lock(mu_);
    if (down_) {
      ++injected_;
      return false;
    }
    for (auto it = rules_.begin(); it != rules_.end(); ++it) {
      if (!it->match.empty() &&
          request_bytes.find(it->match) == std::string::npos) {
        continue;
      }
      if (it->skip > 0) {
        // A skipping rule consumes the request (no later rule may fire on
        // it), so "skip N then fire" counts the same requests a test sees.
        --it->skip;
        break;
      }
      fire = true;
      fault = it->fault;
      ++injected_;
      if (it->count > 0 && --it->count == 0) rules_.erase(it);
      if (fault == Fault::kDown) down_ = true;
      break;
    }
  }
  if (!fire) return inner_.RoundTrip(request_bytes, reply);
  switch (fault) {
    case Fault::kDropRequest:
    case Fault::kDown:
      return false;  // the server never saw it
    case Fault::kDropResponse:
      // The server executes the request; its reply is discarded. A second
      // buffer keeps the caller's *reply unset, per the Channel contract
      // for a failed round trip.
      {
        std::string discarded;
        inner_.RoundTrip(request_bytes, &discarded);
      }
      return false;
  }
  return false;
}

}  // namespace iq::net
