// iqcheck: offline execution-history consistency checker (DESIGN.md §4.8).
//
// Ingests one or more drained lease traces (files of TRACE lines with their
// TRACE_INFO completeness header, or live servers drained over the wire)
// plus the client-side op log written by iqbench --oplog / casql, replays
// them through check::CheckHistory, and prints the verdict:
//
//   iqcheck --oplog=run.oplog --trace=server.trace
//   iqcheck --oplog=run.oplog --connect=127.0.0.1:11211 [--connect=...]
//
//   --trace=FILE        trace dump (one TraceSource per file; repeatable)
//   --connect=HOST:PORT[,HOST:PORT...]
//                       drain live servers' traces via the `trace` verb
//                       (one TraceSource per endpoint; repeatable)
//   --oplog=FILE        the client op log (OPLOG_INFO + OP lines)
//   --max-events=N      wire drain size per endpoint (default 1<<20)
//   --save-traces=PFX   archive each wire-drained trace as PFX-<endpoint>.txt
//                       (iqcheck --trace ingestible; CI uploads these as the
//                       post-mortem artifact when a check leg fails)
//   --allow-drops       wrapped/short traces warn instead of flagging
//                       (certification still requires a complete history)
//   --require-quiescent flag leases still live at end-of-history
//   --quiet             print only the verdict line
//
// Exit status: 0 = certified (clean AND complete); 1 = anomalies found or
// history incomplete; 2 = usage / I/O / parse error. CI treats 0 as "this
// run provably respected the IQ protocol and the SI session axioms".
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.h"
#include "check/oplog.h"
#include "net/channel.h"
#include "net/reconnecting_channel.h"
#include "net/remote_backend.h"
#include "net/tcp_channel.h"
#include "util/flags.h"
#include "util/trace_ring.h"

using namespace iq;

namespace {

[[noreturn]] void Usage(const char* bad) {
  if (bad) std::fprintf(stderr, "iqcheck: bad argument '%s'\n", bad);
  std::fprintf(stderr,
               "usage: iqcheck [--trace=FILE]... [--connect=HOST:PORT]...\n"
               "               [--oplog=FILE] [--max-events=N]\n"
               "               [--save-traces=PREFIX]\n"
               "               [--allow-drops] [--require-quiescent]\n"
               "               [--quiet]\n"
               "(at least one --trace/--connect or an --oplog is required)\n");
  std::exit(2);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return in.good() || in.eof();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> trace_files;
  std::vector<net::Endpoint> endpoints;
  std::string oplog_file;
  std::string save_prefix;
  std::uint64_t max_events = 1ull << 20;
  check::CheckerOptions options;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    const char* arg = argv[i];
    if (flags::Value(arg, "--trace=", &v)) {
      trace_files.emplace_back(v);
    } else if (flags::Value(arg, "--connect=", &v)) {
      std::vector<net::Endpoint> parsed = net::ParseEndpoints(v);
      if (parsed.empty()) Usage(arg);
      endpoints.insert(endpoints.end(), parsed.begin(), parsed.end());
    } else if (flags::Value(arg, "--oplog=", &v)) {
      oplog_file = v;
    } else if (flags::Value(arg, "--max-events=", &v)) {
      max_events = flags::Number<std::uint64_t>(arg, v, Usage);
    } else if (flags::Value(arg, "--save-traces=", &v)) {
      save_prefix = v;
    } else if (std::strcmp(arg, "--allow-drops") == 0) {
      options.allow_drops = true;
    } else if (std::strcmp(arg, "--require-quiescent") == 0) {
      options.require_quiescent = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      Usage(arg);
    }
  }
  if (trace_files.empty() && endpoints.empty() && oplog_file.empty()) {
    Usage(nullptr);
  }

  std::vector<check::TraceSource> sources;

  for (const std::string& path : trace_files) {
    std::string text;
    if (!ReadFile(path, &text)) {
      std::fprintf(stderr, "iqcheck: cannot read trace file '%s'\n",
                   path.c_str());
      return 2;
    }
    check::TraceSource src;
    src.name = path;
    if (!ParseTraceEvents(text, &src.events, &src.info, &src.has_info)) {
      std::fprintf(stderr, "iqcheck: malformed trace in '%s'\n", path.c_str());
      return 2;
    }
    sources.push_back(std::move(src));
  }

  for (const net::Endpoint& endpoint : endpoints) {
    const std::string spec = net::Name(endpoint);
    std::string error;
    auto channel =
        net::TcpChannel::Connect(endpoint.host, endpoint.port, &error);
    if (!channel) {
      std::fprintf(stderr, "iqcheck: connect %s: %s\n", spec.c_str(),
                   error.c_str());
      return 2;
    }
    net::RemoteBackend client(*channel);
    auto drain = client.Trace(max_events);
    if (!drain) {
      std::fprintf(stderr, "iqcheck: trace drain from %s failed\n",
                   spec.c_str());
      return 2;
    }
    check::TraceSource src;
    src.name = spec;
    src.events = std::move(drain->events);
    src.info = drain->info;
    src.has_info = drain->has_info;
    if (!save_prefix.empty()) {
      // Archive exactly what was drained, header first, so the file is
      // itself --trace ingestible for offline post-mortems.
      std::string fname = spec;
      for (char& c : fname) {
        if (c == ':' || c == '/') c = '-';
      }
      std::string path = save_prefix + "-" + fname + ".txt";
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (src.has_info) out << FormatTraceInfo(src.info);
      out << FormatTraceEvents(src.events);
      if (!out) {
        std::fprintf(stderr, "iqcheck: cannot write '%s'\n", path.c_str());
        return 2;
      }
    }
    sources.push_back(std::move(src));
  }

  std::vector<check::OpRecord> ops;
  if (!oplog_file.empty()) {
    std::string text;
    if (!ReadFile(oplog_file, &text)) {
      std::fprintf(stderr, "iqcheck: cannot read op log '%s'\n",
                   oplog_file.c_str());
      return 2;
    }
    if (!check::ParseOpLog(text, &ops)) {
      std::fprintf(stderr, "iqcheck: malformed op log '%s'\n",
                   oplog_file.c_str());
      return 2;
    }
  }

  check::CheckReport report = check::CheckHistory(sources, ops, options);
  std::string summary = report.Summary();
  if (quiet) {
    // First line of the summary is the verdict.
    std::size_t eol = summary.find('\n');
    summary = summary.substr(0, eol == std::string::npos ? summary.size()
                                                         : eol + 1);
  }
  std::fputs(summary.c_str(), stdout);
  return report.certified() ? 0 : 1;
}
