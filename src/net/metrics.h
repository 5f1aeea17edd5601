// Prometheus-style metrics export for the `metrics` wire verb — the rate
// (windowed) view of the same counters `stats` exposes as lifetime totals.
//
// Exposition subset: one "name value" or "name{label="v"} value" line per
// series plus "# TYPE" comments. Each FormatMetrics call advances the
// target's StatsWindow, so every sample carries both `iq_<counter>_total`
// (lifetime) and `iq_<counter>_per_sec` (rate over the window since the
// previous scrape; omitted on the very first scrape, which has no window).
// One logical scraper per server — see StatsWindow in core/iq_stats.h.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "core/iq_server.h"

namespace iq::net {

/// Scrape one server: store gauges, IQ counter totals + per-sec rates,
/// lease/trace gauges. Advances the server's metrics window.
std::string FormatMetrics(IQServer& server);

/// Re-render "STAT <name> <value>" lines (e.g. a transport's wire stats)
/// as "iq_<name> <value>" gauge lines appended to *out. Non-numeric values
/// are skipped.
void AppendStatsAsMetrics(std::string_view stat_lines, std::string* out);

/// Parse exposition text produced by FormatMetrics back into a map keyed by
/// the full series id as written (name including any {labels}). Comment and
/// blank lines are ignored. Returns false on a malformed sample line.
bool ParseMetrics(std::string_view text, std::map<std::string, double>* out);

}  // namespace iq::net
