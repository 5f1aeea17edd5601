// The benchmark's workloads. Each fills the end-to-end metrics (always) and
// the per-layer metrics (traced runs) by name, and records its correctness
// gates and operation counts in the Report.
#pragma once

#include <map>
#include <string>

#include "net/channel.h"
#include "util.h"

namespace perfbench {

struct RunOutput {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
};

/// Times each workload's set-up this many times per run and reports the
/// median, so one slow set-up does not decide setup_s.
inline constexpr int kSetups = 3;

void RunBgRead(const Options& options, Report& report, RunOutput& out);
void RunBgWrite(const Options& options, Report& report, RunOutput& out);

/// Single-threaded layer ladder (traced runs): one IQget hit and one refresh
/// session timed at every layer of the stack, plus the raw TCP echo floor
/// at the same connection/thread shape as the TCP rung.
void RunLadder(Report& report, RunOutput& out);

/// Client-side request counter around a connection (one owner thread): the
/// count the request-balance gate compares with the server's wire counter.
class CountingChannel final : public iq::net::Channel {
 public:
  explicit CountingChannel(iq::net::Channel& inner) : inner_(inner) {}
  bool RoundTrip(const std::string& request_bytes,
                 std::string* reply) override {
    ++requests_;
    return inner_.RoundTrip(request_bytes, reply);
  }
  std::uint64_t requests() const { return requests_; }

 private:
  iq::net::Channel& inner_;
  std::uint64_t requests_ = 0;
};

}  // namespace perfbench
