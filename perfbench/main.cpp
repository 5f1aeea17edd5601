// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <bg_read|bg_write> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>]
//   perfbench --self-test
//
// An untraced run (--trace 0) prints every end-to-end metric; a traced run
// (--trace 1) splits its time between an untraced and a traced window of
// the same workload, then runs the layer ladder, and prints every per-layer
// metric. The last stdout line is the result object; the exit code is
// nonzero when any correctness gate failed.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"op_p50_us", "us"},       {"op_p99_us", "us"},
    {"write_p50_us", "us"},    {"write_p99_us", "us"},
    {"rss_mb", "MiB"},
};

// Every per-layer metric, in report order. A workload that does not exercise
// a layer reports 0 for its metrics.
constexpr MetricSpec kPerLayer[] = {
    {"casql.self_us_per_op", "us"},
    {"casql.q_restarts_per_write", "count"},
    {"casql.rdbms_restarts_per_write", "count"},
    {"bg.declined_frac", "ratio"},
    {"client.calls_per_op", "count"},
    {"client.backend_us_per_op", "us"},
    {"client.iqget_p50_us", "us"},
    {"client.iqget_p99_us", "us"},
    {"client.iqset_p50_us", "us"},
    {"client.iqset_p99_us", "us"},
    {"client.qaread_p50_us", "us"},
    {"client.qaread_p99_us", "us"},
    {"client.sar_p50_us", "us"},
    {"client.sar_p99_us", "us"},
    {"client.qareg_p50_us", "us"},
    {"client.qareg_p99_us", "us"},
    {"client.commit_p50_us", "us"},
    {"client.commit_p99_us", "us"},
    {"router.self_us_per_call", "us"},
    {"router.shard_mints_per_op", "count"},
    {"router.cross_shard_frac", "ratio"},
    {"net.requests_per_op", "count"},
    {"net.bytes_per_request", "B"},
    {"net.server_cpu_frac", "ratio"},
    {"net.client_cpu_frac", "ratio"},
    {"leases.i_granted_per_op", "count"},
    {"leases.backoffs_per_op", "count"},
    {"leases.q_rejected_per_write", "count"},
    {"leases.stale_sets_dropped", "count"},
    {"kvs.hit_ratio", "ratio"},
    {"kvs.evictions_per_op", "count"},
    {"kvs.opt_hit_ratio", "ratio"},
    {"rdbms.txns_per_op", "count"},
    {"rdbms.conflict_ratio", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"ladder.kvs_iqget_p50_ns", "ns"},
    {"ladder.kvs_iqget_p99_ns", "ns"},
    {"ladder.kvs_iqget_delta_ns", "ns"},
    {"ladder.iq_server_iqget_p50_ns", "ns"},
    {"ladder.iq_server_iqget_p99_ns", "ns"},
    {"ladder.iq_server_iqget_delta_ns", "ns"},
    {"ladder.dispatcher_iqget_p50_ns", "ns"},
    {"ladder.dispatcher_iqget_p99_ns", "ns"},
    {"ladder.dispatcher_iqget_delta_ns", "ns"},
    {"ladder.loopback_iqget_p50_ns", "ns"},
    {"ladder.loopback_iqget_p99_ns", "ns"},
    {"ladder.loopback_iqget_delta_ns", "ns"},
    {"ladder.tcp_iqget_p50_ns", "ns"},
    {"ladder.tcp_iqget_p99_ns", "ns"},
    {"ladder.tcp_iqget_delta_ns", "ns"},
    {"ladder.sharded_tcp_iqget_p50_ns", "ns"},
    {"ladder.sharded_tcp_iqget_p99_ns", "ns"},
    {"ladder.sharded_tcp_iqget_delta_ns", "ns"},
    {"ladder.session_iqget_p50_ns", "ns"},
    {"ladder.session_iqget_p99_ns", "ns"},
    {"ladder.session_iqget_delta_ns", "ns"},
    {"ladder.near_iqget_p50_ns", "ns"},
    {"ladder.near_iqget_p99_ns", "ns"},
    {"ladder.near_iqget_delta_ns", "ns"},
    {"ladder.iq_server_refresh_p50_ns", "ns"},
    {"ladder.iq_server_refresh_p99_ns", "ns"},
    {"ladder.iq_server_refresh_delta_ns", "ns"},
    {"ladder.dispatcher_refresh_p50_ns", "ns"},
    {"ladder.dispatcher_refresh_p99_ns", "ns"},
    {"ladder.dispatcher_refresh_delta_ns", "ns"},
    {"ladder.loopback_refresh_p50_ns", "ns"},
    {"ladder.loopback_refresh_p99_ns", "ns"},
    {"ladder.loopback_refresh_delta_ns", "ns"},
    {"ladder.tcp_refresh_p50_ns", "ns"},
    {"ladder.tcp_refresh_p99_ns", "ns"},
    {"ladder.tcp_refresh_delta_ns", "ns"},
    {"ladder.sharded_tcp_refresh_p50_ns", "ns"},
    {"ladder.sharded_tcp_refresh_p99_ns", "ns"},
    {"ladder.sharded_tcp_refresh_delta_ns", "ns"},
    {"ladder.session_refresh_p50_ns", "ns"},
    {"ladder.session_refresh_p99_ns", "ns"},
    {"ladder.session_refresh_delta_ns", "ns"},
    {"ladder.wire_floor_p50_ns", "ns"},
    {"ladder.wire_floor_p99_ns", "ns"},
    {"ladder.tcp_over_floor_ns", "ns"},
};

/// Move `values` into the report in `specs` order. A name a workload set
/// that is not in the table is a programming error; returns false.
template <std::size_t N>
bool Emit(const MetricSpec (&specs)[N], std::map<std::string, double> values,
          Report& report) {
  for (const MetricSpec& s : specs) {
    auto it = values.find(s.name);
    report.Add(s.name, it == values.end() ? 0.0 : it->second, s.unit);
    if (it != values.end()) values.erase(it);
  }
  for (const auto& [name, value] : values) {
    std::fprintf(stderr, "perfbench: metric %s is not in the table\n",
                 name.c_str());
  }
  return values.empty();
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<bg_read|bg_write> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>]\n       perfbench --self-test\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-test") {
      int failures = SelfTestSpanArithmetic();
      std::printf("span arithmetic self-test: %s\n", failures == 0 ? "ok" : "FAILED");
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--commit") {
      options.commit = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");

  Report report;
  RunOutput out;
  if (options.workload == "bg_read") {
    RunBgRead(options, report, out);
  } else if (options.workload == "bg_write") {
    RunBgWrite(options, report, out);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (options.trace) RunLadder(report, out);

  bool known = options.trace ? Emit(kPerLayer, out.per_layer, report)
                             : Emit(kEndToEnd, out.end_to_end, report);
  if (!known) return 3;
  report.Gate(report.attempted > 0, "no operation was attempted");

  std::printf("%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  report.PrintTable();
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"hardware_concurrency\": %u, \"build_type\": \"%s\", "
      "\"commit\": \"%s\"}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      options.commit.c_str());
  report.PrintResultLine();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
