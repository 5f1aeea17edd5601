#include "util/trace_ring.h"

#include <charconv>
#include <cstdio>

namespace iq {
namespace {

/// One row per LeaseTraceKind, indexed by the enum value.
constexpr const char* kKindNames[kLeaseTraceKindCount] = {
    "i_grant",     "i_void",        "q_inv_grant", "q_ref_grant",
    "q_ref_void",  "reject",        "expire",      "expire_delete",
    "commit",      "abort",         "release",
};

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool ParseU64(std::string_view v, std::uint64_t* out) {
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), *out);
  return ec == std::errc{} && ptr == v.data() + v.size();
}

bool ParseI64(std::string_view v, std::int64_t* out) {
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), *out);
  return ec == std::errc{} && ptr == v.data() + v.size();
}

}  // namespace

const char* ToString(LeaseTraceKind k) {
  auto i = static_cast<std::size_t>(k);
  return i < kLeaseTraceKindCount ? kKindNames[i] : "?";
}

std::optional<LeaseTraceKind> ParseLeaseTraceKind(std::string_view name) {
  for (std::size_t i = 0; i < kLeaseTraceKindCount; ++i) {
    if (name == kKindNames[i]) return static_cast<LeaseTraceKind>(i);
  }
  return std::nullopt;
}

TraceRing::TraceRing(std::size_t capacity) {
  if (capacity == 0) return;
  capacity_ = RoundUpPow2(capacity);
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
}

std::vector<TraceEvent> TraceRing::Snapshot(std::size_t max_events) const {
  std::vector<TraceEvent> out;
  if (capacity_ == 0 || max_events == 0) return out;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t lo = head > capacity_ ? head - capacity_ : 0;
  if (head - lo > max_events) lo = head - max_events;
  out.reserve(static_cast<std::size_t>(head - lo));
  for (std::uint64_t i = lo; i < head; ++i) {
    const Slot& s = slots_[i & mask_];
    if (s.seq.load(std::memory_order_acquire) != i + 1) continue;
    TraceEvent e;
    e.kind = static_cast<LeaseTraceKind>(
        s.kind.load(std::memory_order_relaxed) % kLeaseTraceKindCount);
    e.shard = s.shard.load(std::memory_order_relaxed);
    e.session = s.session.load(std::memory_order_relaxed);
    e.key_hash = s.key_hash.load(std::memory_order_relaxed);
    e.at = s.at.load(std::memory_order_relaxed);
    e.seq = i;
    // Re-check after the field reads: a writer that wrapped onto this slot
    // mid-read stored seq = 0 first, so a second matching load proves the
    // fields were stable across the read.
    if (s.seq.load(std::memory_order_acquire) != i + 1) continue;
    out.push_back(e);
  }
  return out;
}

std::string FormatTraceEvents(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 64);
  char line[160];
  for (const TraceEvent& e : events) {
    int n = std::snprintf(
        line, sizeof line, "TRACE %llu %lld %u %s %llu %llu\r\n",
        static_cast<unsigned long long>(e.seq), static_cast<long long>(e.at),
        e.shard, ToString(e.kind), static_cast<unsigned long long>(e.session),
        static_cast<unsigned long long>(e.key_hash));
    if (n > 0) out.append(line, static_cast<std::size_t>(n));
  }
  return out;
}

std::string FormatTraceInfo(const TraceInfo& info) {
  char line[96];
  int n = std::snprintf(line, sizeof line, "TRACE_INFO %llu %llu %llu\r\n",
                        static_cast<unsigned long long>(info.recorded),
                        static_cast<unsigned long long>(info.dropped),
                        static_cast<unsigned long long>(info.capacity));
  return std::string(line, n > 0 ? static_cast<std::size_t>(n) : 0);
}

bool ParseTraceEvents(std::string_view text, std::vector<TraceEvent>* out,
                      TraceInfo* info, bool* has_info) {
  // All-or-nothing: parse into locals, publish only on full success.
  std::vector<TraceEvent> events;
  TraceInfo totals;
  bool saw_info = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

    if (line.rfind("TRACE_INFO ", 0) == 0) {
      // TRACE_INFO <recorded> <dropped> <capacity>
      std::string_view rest = line.substr(11);
      std::string_view tok[3];
      std::size_t count = 0;
      while (!rest.empty() && count < 3) {
        std::size_t sp = rest.find(' ');
        tok[count++] = rest.substr(0, sp);
        rest = sp == std::string_view::npos ? std::string_view{}
                                            : rest.substr(sp + 1);
      }
      if (count != 3 || !rest.empty()) return false;
      TraceInfo ti;
      if (!ParseU64(tok[0], &ti.recorded) || !ParseU64(tok[1], &ti.dropped) ||
          !ParseU64(tok[2], &ti.capacity)) {
        return false;
      }
      Accumulate(totals, ti, kTraceInfoFields);
      saw_info = true;
      continue;
    }
    if (line.rfind("TRACE ", 0) != 0) continue;  // END / noise: skip

    // TRACE <seq> <at> <shard> <kind> <session> <key_hash>
    std::string_view rest = line.substr(6);
    std::string_view tok[6];
    std::size_t count = 0;
    while (!rest.empty() && count < 6) {
      std::size_t sp = rest.find(' ');
      tok[count++] = rest.substr(0, sp);
      rest = sp == std::string_view::npos ? std::string_view{}
                                          : rest.substr(sp + 1);
    }
    if (count != 6 || !rest.empty()) return false;

    TraceEvent e;
    std::uint64_t shard = 0;
    auto kind = ParseLeaseTraceKind(tok[3]);
    if (!ParseU64(tok[0], &e.seq) || !ParseI64(tok[1], &e.at) ||
        !ParseU64(tok[2], &shard) || !kind ||
        !ParseU64(tok[4], &e.session) || !ParseU64(tok[5], &e.key_hash)) {
      return false;
    }
    e.shard = static_cast<std::uint32_t>(shard);
    e.kind = *kind;
    events.push_back(e);
  }
  out->insert(out->end(), events.begin(), events.end());
  if (info) Accumulate(*info, totals, kTraceInfoFields);
  if (has_info) *has_info = saw_info;
  return true;
}

}  // namespace iq
