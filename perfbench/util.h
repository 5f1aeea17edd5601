// Shared plumbing of the benchmark program: the run report (metrics, gates,
// result line), exact order statistics, process introspection (RSS,
// per-thread CPU), and a closed-loop window runner.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/clock.h"

namespace iq::net {
class TcpServer;
}

namespace perfbench {

using iq::Nanos;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Source revision recorded in the result record (run.py fills it in).
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports: the counts and metrics of the result line
/// plus the correctness gates checked along the way.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Record one correctness gate; a failed gate makes the run incorrect and
  /// is printed to stderr.
  void Gate(bool ok, const std::string& what);
  bool correct() const { return gate_failures_ == 0; }

  /// Human-readable metric table (stdout, before the record lines).
  void PrintTable() const;
  /// The final line: {"correct", "attempted", "failed", "metrics"}.
  void PrintResultLine() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
  int gate_failures_ = 0;
};

/// Exact quantile q in [0, 1] of `samples` (nearest rank; reorders the
/// vector). 0 for an empty sample.
Nanos Quantile(std::vector<Nanos>& samples, double q);
double Micros(Nanos ns);
double Seconds(Nanos ns);
/// a / b, or 0 when b is 0 (a layer the workload never exercises).
double Ratio(double a, double b);
/// Median of a small sample (copied).
double Median(std::vector<double> values);

Nanos Now();

/// Resident set size after returning freed heap pages to the kernel, MiB.
double RssMegabytes();

pid_t ThisThreadId();
/// CPU seconds (user + system) consumed so far by every live thread of this
/// process, keyed by thread id, from /proc/self/task/*/stat.
std::map<pid_t, double> ThreadCpuSeconds();
/// Ids of this process's live threads.
std::vector<pid_t> ThreadIds();

/// Pin `threads[i]` to CPU `first_cpu + i`, when the host has a CPU for
/// each, so the scheduler cannot stack a spinning client onto a server
/// worker's CPU. Returns whether the threads were pinned.
bool PinThreads(const std::vector<pid_t>& threads, int first_cpu);

/// Start `server` and pin the worker threads it spawned to CPUs from
/// `first_cpu` on. False, with *error set, when the server does not start.
bool StartPinned(iq::net::TcpServer& server, int first_cpu, std::string* error);

/// CPU seconds of the calling thread.
double ThisThreadCpuSeconds();

/// Summed CPU of the threads in `after` that are not in `exclude`, minus
/// what the same threads had consumed in `before`.
double CpuDelta(const std::map<pid_t, double>& before,
                const std::map<pid_t, double>& after,
                const std::vector<pid_t>& exclude);

/// Per-thread result of a closed-loop window.
struct WindowThread {
  pid_t tid = 0;
  double cpu_s = 0;  // CPU the thread burned inside the window
};

/// The timing of one closed-loop window.
struct Window {
  Nanos start = 0;    // common start of every thread
  Nanos elapsed = 0;  // until every thread has returned
  std::vector<WindowThread> threads;
};

/// Run `body(i, stop, start)` on `threads` fresh threads, pinned from CPU
/// `first_cpu` on (see PinThreads), that start together at `start` and loop
/// until `stop` is raised after `seconds`. The main thread sleeps meanwhile,
/// so the CPU the other threads burn over the window is the server side's.
Window RunWindow(
    int threads, int first_cpu, double seconds,
    const std::function<void(int, const std::atomic<bool>&, Nanos)>& body);

/// Latency samples of one window, bucketed by the two-second slice they
/// completed in (at least `min_slices` slices). Percentiles are medians over
/// the slices: a shared virtual machine's host slows down in bursts, and a burst
/// that covers a few slices moves a pooled p99 but not the median slice's.
/// The traced run records spans in every other slice.
class SlicedSamples {
 public:
  explicit SlicedSamples(double seconds, std::size_t min_slices = 1);

  /// The slice an event `offset` after the window start falls in.
  std::size_t SliceOf(Nanos offset) const {
    auto i = static_cast<std::size_t>(std::max<Nanos>(offset, 0) / slice_ns_);
    return std::min(i, slices_.size() - 1);
  }
  /// Record one latency that completed `offset` after the window start.
  void Add(Nanos offset, Nanos latency) {
    slices_[SliceOf(offset)].push_back(latency);
  }
  void Merge(const SlicedSamples& other);

  std::uint64_t Count() const;
  /// Median over slices of the slice's exact quantile q, in microseconds.
  double MedianQuantileUs(double q) const;
  /// Median over the slices i with i % stride == phase of the slice's
  /// completions per second.
  double MedianRate(std::size_t stride, std::size_t phase) const;

 private:
  Nanos slice_ns_;
  std::vector<std::vector<Nanos>> slices_;
};

}  // namespace perfbench
