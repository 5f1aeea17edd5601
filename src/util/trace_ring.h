// Lock-free lease-event trace ring. IQServer records one TraceEvent per
// lease transition (grant / void / reject / expire / commit / abort /
// release) while already holding the shard lock, so in production exactly
// one writer touches each ring at a time; the ring is nevertheless fully
// MPMC-safe because drains (`trace` wire verb, --trace-dump, tests) run
// concurrently with writers on other threads.
//
// Design: fixed power-of-two array of all-atomic slots. A writer claims an
// index with fetch_add on head_, invalidates the slot (seq = 0), stores the
// fields relaxed, then publishes seq = index + 1 with release order. A
// reader loads seq before and after its relaxed field reads and accepts the
// event only if both loads equal index + 1 — a torn (being-overwritten)
// slot is simply skipped. Every access is atomic, so drain-while-writing is
// clean under TSan without any lock on the hot path.
//
// Best-effort caveat: if the ring wraps a full capacity *during* one
// writer's five field stores (capacity concurrent writers racing a stalled
// one), a reader can observe mixed fields under a matching seq. With one
// writer per ring under the shard lock this cannot happen in the server;
// it is an accepted diagnostic-grade bound for the general MPMC case.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"
#include "util/counters.h"

namespace iq {

/// Lease-state transition kinds recorded by IQServer. Names match the STAT
/// counters they accompany where one exists.
enum class LeaseTraceKind : std::uint8_t {
  kIGrant,        // I lease granted on a miss
  kIVoid,         // I lease preempted by a Q request / delete
  kQInvGrant,     // Q(invalidate) lease granted (QaReg)
  kQRefGrant,     // Q(refresh) lease granted (QaRead / IQDelta)
  kQRefVoid,      // Q(refresh) lease voided by QaReg
  kReject,        // QaRead/IQDelta rejected: another session holds Q
  kExpire,        // overdue lease reclaimed, value left in place
  kExpireDelete,  // overdue Q lease reclaimed and the key deleted
  kCommit,        // per-key commit (delta apply or quarantine delete)
  kAbort,         // per-key abort (buffered changes discarded)
  kRelease,       // per-key release without apply (SaR / ReleaseKey)
};
inline constexpr std::size_t kLeaseTraceKindCount =
    static_cast<std::size_t>(LeaseTraceKind::kRelease) + 1;

const char* ToString(LeaseTraceKind k);
std::optional<LeaseTraceKind> ParseLeaseTraceKind(std::string_view name);

/// One drained trace record. `seq` is the ring-global record number (older
/// events that were overwritten keep advancing it), so gaps reveal drops.
struct TraceEvent {
  LeaseTraceKind kind = LeaseTraceKind::kIGrant;
  std::uint32_t shard = 0;
  std::uint64_t session = 0;
  std::uint64_t key_hash = 0;
  Nanos at = 0;
  std::uint64_t seq = 0;
};

/// FNV-1a of the key, recorded instead of the key itself: constant-size
/// slots, no allocation under the shard lock, and no key material leaves
/// the server through the trace channel.
inline std::uint64_t TraceKeyHash(std::string_view key) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

class TraceRing {
 public:
  /// Capacity is rounded up to a power of two; 0 disables the ring (Record
  /// becomes a no-op, Snapshot returns empty).
  explicit TraceRing(std::size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Record(LeaseTraceKind kind, std::uint32_t shard, std::uint64_t session,
              std::uint64_t key_hash, Nanos at) {
    if (capacity_ == 0) return;
    const std::uint64_t i = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[i & mask_];
    s.seq.store(0, std::memory_order_release);
    s.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
    s.shard.store(shard, std::memory_order_relaxed);
    s.session.store(session, std::memory_order_relaxed);
    s.key_hash.store(key_hash, std::memory_order_relaxed);
    s.at.store(at, std::memory_order_relaxed);
    s.seq.store(i + 1, std::memory_order_release);
  }

  /// The newest (up to) `max_events` events, oldest first. Safe against
  /// concurrent Record; slots mid-overwrite are skipped.
  std::vector<TraceEvent> Snapshot(std::size_t max_events) const;

  /// Lifetime number of Record calls (including overwritten ones).
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Events no longer reachable by Snapshot because the ring wrapped.
  std::uint64_t dropped() const {
    std::uint64_t h = recorded();
    return h > capacity_ ? h - capacity_ : 0;
  }
  std::size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ != 0; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // 0 = empty/invalid, else index + 1
    std::atomic<std::uint64_t> session{0};
    std::atomic<std::uint64_t> key_hash{0};
    std::atomic<std::int64_t> at{0};
    std::atomic<std::uint32_t> shard{0};
    std::atomic<std::uint8_t> kind{0};
  };

  std::size_t capacity_ = 0;  // power of two (or 0: disabled)
  std::uint64_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
};

/// Drain-completeness accounting for a trace source: how many events were
/// ever recorded, how many are no longer reachable because the ring
/// wrapped, and the ring capacity. A history with dropped != 0 cannot be
/// certified (the checker may be missing the very transition that proves
/// an anomaly).
struct TraceInfo {
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t capacity = 0;
};

inline constexpr CounterField<TraceInfo> kTraceInfoFields[] = {
    {"trace_recorded", &TraceInfo::recorded},
    {"trace_dropped", &TraceInfo::dropped},
    {"trace_capacity", &TraceInfo::capacity},
};
static_assert(CoversEveryField(kTraceInfoFields));

/// Concatenate drain(source, max_events), each oldest first, in source
/// order; stable-sort by timestamp, so ties keep source and then seq order
/// (one key's events, all from one ring, stay causal); keep the newest.
template <typename Sources, typename Drain>
std::vector<TraceEvent> MergeDrains(const Sources& sources,
                                    std::size_t max_events, Drain&& drain) {
  std::vector<TraceEvent> merged;
  if (max_events == 0) return merged;
  for (const auto& source : sources) {
    std::vector<TraceEvent> part = drain(source, max_events);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.at < b.at;
                   });
  if (merged.size() > max_events) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  return merged;
}

/// Render events as the wire format used by the `trace` verb, one
/// "TRACE <seq> <at> <shard> <kind> <session> <key_hash>\r\n" line per
/// event (no trailing END marker; the protocol layer adds it).
std::string FormatTraceEvents(const std::vector<TraceEvent>& events);

/// The completeness header preceding the TRACE lines on the wire:
/// "TRACE_INFO <recorded> <dropped> <capacity>\r\n".
std::string FormatTraceInfo(const TraceInfo& info);

/// Inverse of FormatTraceEvents/FormatTraceInfo: parses the TRACE lines
/// (ignoring unrecognized lines, e.g. a trailing END). All-or-nothing: on
/// a malformed TRACE or TRACE_INFO line it returns false and leaves *out
/// (and *info) untouched, so a truncated drain file can never be half-
/// ingested as a valid history. When `info`/`has_info` are given,
/// TRACE_INFO headers are accumulated into *info (summed across multiple
/// headers, e.g. a file concatenating several drains) and *has_info
/// reports whether at least one header was present.
bool ParseTraceEvents(std::string_view text, std::vector<TraceEvent>* out,
                      TraceInfo* info = nullptr, bool* has_info = nullptr);

}  // namespace iq
