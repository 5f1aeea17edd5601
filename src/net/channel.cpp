#include "net/channel.h"

#include "util/backoff.h"

namespace iq::net {

LoopbackChannel::LoopbackChannel(IQServer& server, Nanos one_way_latency,
                                 const Clock* clock)
    : dispatcher_(server),
      latency_(one_way_latency),
      clock_(clock != nullptr ? *clock : SteadyClock::Instance()) {}

bool LoopbackChannel::RoundTrip(const std::string& request_bytes,
                                std::string* reply) {
  if (latency_ > 0) SleepFor(clock_, latency_);
  reply->clear();
  {
    std::lock_guard lock(mu_);
    parser_.Feed(request_bytes);
    RequestView request;
    std::string error;
    // A single RoundTrip may carry several pipelined requests; answer all,
    // each read in place and answered straight into *reply.
    while (true) {
      auto status = parser_.Next(&request, &error);
      if (status == RequestParser::Status::kNeedMore) break;
      if (status == RequestParser::Status::kError) {
        AppendError(error, reply);
        continue;
      }
      requests_.fetch_add(1, std::memory_order_relaxed);
      // quit draws no reply, as over TCP (CountRequests agrees).
      if (request.command == Command::kQuit) continue;
      dispatcher_.DispatchTo(request, reply);
    }
  }
  if (latency_ > 0) SleepFor(clock_, latency_);
  return true;
}

}  // namespace iq::net
