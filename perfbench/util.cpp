#include "util.h"

#include <malloc.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <thread>

#include "net/tcp_server.h"

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Gate(bool ok, const std::string& what) {
  if (ok) return;
  ++gate_failures_;
  std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", what.c_str());
}

void Report::PrintTable() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void Report::PrintResultLine() const {
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

Nanos Quantile(std::vector<Nanos>& samples, double q) {
  if (samples.empty()) return 0;
  auto rank = static_cast<std::size_t>(q * static_cast<double>(samples.size()));
  if (rank >= samples.size()) rank = samples.size() - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

double Micros(Nanos ns) { return static_cast<double>(ns) / 1e3; }
double Seconds(Nanos ns) { return static_cast<double>(ns) / 1e9; }

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Nanos Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double RssMegabytes() {
  ::malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

pid_t ThisThreadId() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::map<pid_t, double> ThreadCpuSeconds() {
  std::map<pid_t, double> out;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream stat(std::string("/proc/self/task/") + entry->d_name +
                       "/stat");
    std::string content;
    std::getline(stat, content);
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    std::size_t close = content.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(content.substr(close + 2));
    std::string field;
    double utime = 0;
    double stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    out[static_cast<pid_t>(std::stol(entry->d_name))] = (utime + stime) / tick;
  }
  ::closedir(dir);
  return out;
}

std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> out;
  for (const auto& [tid, cpu] : ThreadCpuSeconds()) out.push_back(tid);
  return out;
}

bool PinThreads(const std::vector<pid_t>& threads, int first_cpu) {
  const auto cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (first_cpu + static_cast<int>(threads.size()) > cpus) return false;
  bool ok = true;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(first_cpu + static_cast<int>(i), &set);
    ok = ::sched_setaffinity(threads[i], sizeof(set), &set) == 0 && ok;
  }
  return ok;
}

bool StartPinned(iq::net::TcpServer& server, int first_cpu, std::string* error) {
  std::vector<pid_t> before = ThreadIds();
  if (!server.Start(error)) return false;
  std::vector<pid_t> spawned;
  for (pid_t tid : ThreadIds()) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      spawned.push_back(tid);
    }
  }
  PinThreads(spawned, first_cpu);
  return true;
}

double ThisThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double CpuDelta(const std::map<pid_t, double>& before,
                const std::map<pid_t, double>& after,
                const std::vector<pid_t>& exclude) {
  double total = 0;
  for (const auto& [tid, cpu] : after) {
    if (std::find(exclude.begin(), exclude.end(), tid) != exclude.end()) {
      continue;
    }
    auto it = before.find(tid);
    total += cpu - (it == before.end() ? 0.0 : it->second);
  }
  return total;
}

Window RunWindow(
    int threads, int first_cpu, double seconds,
    const std::function<void(int, const std::atomic<bool>&, Nanos)>& body) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  Window w;
  w.threads.assign(static_cast<std::size_t>(threads), WindowThread{});
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] {
      WindowThread& self = w.threads[static_cast<std::size_t>(i)];
      self.tid = ThisThreadId();
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      double cpu0 = ThisThreadCpuSeconds();
      body(i, stop, w.start);
      self.cpu_s = ThisThreadCpuSeconds() - cpu0;
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  std::vector<pid_t> tids;
  for (const WindowThread& t : w.threads) tids.push_back(t.tid);
  PinThreads(tids, first_cpu);
  w.start = Now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  w.elapsed = Now() - w.start;
  return w;
}

SlicedSamples::SlicedSamples(double seconds, std::size_t min_slices) {
  constexpr double kSliceSeconds = 2;
  auto n = std::max(min_slices, static_cast<std::size_t>(std::max(
                                    1.0, std::round(seconds / kSliceSeconds))));
  slice_ns_ = static_cast<Nanos>(seconds * 1e9 / static_cast<double>(n));
  slices_.resize(n);
}

void SlicedSamples::Merge(const SlicedSamples& other) {
  for (std::size_t i = 0; i < slices_.size(); ++i) {
    slices_[i].insert(slices_[i].end(), other.slices_[i].begin(),
                      other.slices_[i].end());
  }
}

std::uint64_t SlicedSamples::Count() const {
  std::uint64_t n = 0;
  for (const auto& s : slices_) n += s.size();
  return n;
}

double SlicedSamples::MedianQuantileUs(double q) const {
  std::vector<double> values;
  for (auto s : slices_) {  // a copy: Quantile reorders
    if (!s.empty()) values.push_back(Micros(Quantile(s, q)));
  }
  return Median(values);
}

double SlicedSamples::MedianRate(std::size_t stride,
                                 std::size_t phase) const {
  std::vector<double> rates;
  for (std::size_t i = phase; i < slices_.size(); i += stride) {
    rates.push_back(static_cast<double>(slices_[i].size()) / Seconds(slice_ns_));
  }
  return Median(rates);
}

}  // namespace perfbench
