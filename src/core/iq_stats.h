// IQServerStats and its counter table (util/counters.h), which every
// generic user of its fields walks: STAT rendering, ParseIQStats and
// per-shard breakdowns. Split out of iq_server.h so observers that only
// handle counter snapshots need not pull in the server.
#pragma once

#include <cstdint>

#include "util/counters.h"

namespace iq {

/// Server-side lease counters for the evaluation harness: the snapshot
/// IQServer::Stats() returns, and the type of its live per-shard blocks.
struct IQServerStats {
  std::uint64_t i_granted = 0;
  std::uint64_t i_voided = 0;       // I leases preempted by Q requests
  std::uint64_t q_ref_voided = 0;   // Q(refresh) leases voided by QaReg
  std::uint64_t backoffs = 0;       // IQget told a session to back off
  std::uint64_t stale_sets_dropped = 0;  // IQset/SaR with invalid token ignored
  std::uint64_t q_inv_granted = 0;
  std::uint64_t q_ref_granted = 0;
  std::uint64_t q_rejected = 0;     // QaRead/IQDelta aborted a requester
  std::uint64_t leases_expired = 0;
  std::uint64_t expiry_deletes = 0; // keys deleted because a Q lease expired
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  // IQget hits granted a near-cache validity TTL (DESIGN.md §4.10). What
  // clients then do with their grants is counted client-side, by NearCache.
  std::uint64_t near_grants = 0;
};

/// One row of the IQServerStats table.
using IQStatsField = CounterField<IQServerStats>;

/// Wire names of the IQServerStats members, shared by net::FormatStats,
/// net::ParseIQStats and the ShardedBackend aggregate and per-shard lines.
inline constexpr IQStatsField kIQStatsFields[] = {
    {"i_leases_granted", &IQServerStats::i_granted},
    {"i_leases_voided", &IQServerStats::i_voided},
    {"q_ref_voided", &IQServerStats::q_ref_voided},
    {"backoffs", &IQServerStats::backoffs},
    {"stale_sets_dropped", &IQServerStats::stale_sets_dropped},
    {"q_inv_granted", &IQServerStats::q_inv_granted},
    {"q_ref_granted", &IQServerStats::q_ref_granted},
    {"q_rejected", &IQServerStats::q_rejected},
    {"leases_expired", &IQServerStats::leases_expired},
    {"expiry_deletes", &IQServerStats::expiry_deletes},
    {"commits", &IQServerStats::commits},
    {"aborts", &IQServerStats::aborts},
    {"near_grants", &IQServerStats::near_grants},
};
static_assert(CoversEveryField(kIQStatsFields));

}  // namespace iq
