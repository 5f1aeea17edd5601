#include "net/metrics.h"

#include <charconv>
#include <cstdio>

namespace iq::net {
namespace {

void AppendSample(std::string* out, std::string_view series, double value) {
  char buf[64];
  // %.6g keeps integers exact up to 2^53-ish scrape counts and rates short.
  int n = std::snprintf(buf, sizeof buf, " %.6g\n", value);
  out->append(series);
  if (n > 0) out->append(buf, static_cast<std::size_t>(n));
}

void AppendGauge(std::string* out, std::string_view name, double value) {
  out->append("# TYPE ");
  out->append(name);
  out->append(" gauge\n");
  AppendSample(out, name, value);
}

}  // namespace

std::string FormatMetrics(IQServer& server) {
  std::string out;
  out.reserve(2048);
  // Counter totals and per-sec rates; rates are omitted while the window
  // has no width (first scrape).
  StatsWindowSample s = server.WindowedStats();
  for (const IQStatsField& f : kIQStatsFields) {
    std::string name = "iq_";
    name += f.name;
    out.append("# TYPE ");
    out.append(name);
    out.append("_total counter\n");
    AppendSample(&out, name + "_total",
                 static_cast<double>(s.lifetime.*f.member));
    if (s.seconds > 0) {
      AppendSample(&out, name + "_per_sec",
                   static_cast<double>(s.delta.*f.member) / s.seconds);
    }
  }
  AppendGauge(&out, "iq_window_seconds", s.seconds);
  CacheStats store = server.store().Stats();
  AppendGauge(&out, "iq_store_gets", static_cast<double>(store.gets));
  AppendGauge(&out, "iq_store_get_hits", static_cast<double>(store.get_hits));
  AppendGauge(&out, "iq_store_get_misses",
              static_cast<double>(store.get_misses));
  AppendGauge(&out, "iq_store_sets", static_cast<double>(store.sets));
  AppendGauge(&out, "iq_store_deletes", static_cast<double>(store.deletes));
  AppendGauge(&out, "iq_store_evictions",
              static_cast<double>(store.evictions));
  AppendGauge(&out, "iq_store_opt_hits",
              static_cast<double>(store.opt_hits));
  AppendGauge(&out, "iq_store_opt_fallbacks",
              static_cast<double>(store.opt_fallbacks));
  AppendGauge(&out, "iq_store_bytes_used",
              static_cast<double>(store.bytes_used));
  AppendGauge(&out, "iq_store_item_count",
              static_cast<double>(store.item_count));
  AppendGauge(&out, "iq_leases_live", static_cast<double>(server.LeaseCount()));
  AppendGauge(&out, "iq_trace_recorded",
              static_cast<double>(server.TraceRecorded()));
  return out;
}

void AppendStatsAsMetrics(std::string_view stat_lines, std::string* out) {
  std::size_t pos = 0;
  while (pos < stat_lines.size()) {
    std::size_t eol = stat_lines.find_first_of("\r\n", pos);
    if (eol == std::string_view::npos) eol = stat_lines.size();
    std::string_view line = stat_lines.substr(pos, eol - pos);
    pos = stat_lines.find_first_not_of("\r\n", eol);
    if (pos == std::string_view::npos) pos = stat_lines.size();
    if (!line.starts_with("STAT ")) continue;
    line.remove_prefix(5);
    std::size_t space = line.find(' ');
    if (space == std::string_view::npos) continue;
    std::string_view name = line.substr(0, space);
    std::string_view value = line.substr(space + 1);
    double v = 0;
    auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
    if (ec != std::errc{} || p != value.data() + value.size()) continue;
    AppendSample(out, "iq_" + std::string(name), v);
  }
}

bool ParseMetrics(std::string_view text, std::map<std::string, double>* out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (line.empty() || line[0] == '#') continue;
    // The series id runs to the last space (label values never contain
    // spaces in our exporter); the remainder is the value.
    std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0) return false;
    std::string_view series = line.substr(0, space);
    std::string_view value = line.substr(space + 1);
    double v = 0;
    auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
    if (ec != std::errc{} || p != value.data() + value.size()) return false;
    (*out)[std::string(series)] = v;
  }
  return true;
}

}  // namespace iq::net
