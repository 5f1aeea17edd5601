#include "net/server.h"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "net/metrics.h"

namespace iq::net {
namespace {

Response FromStoreResult(StoreResult r) {
  Response resp;
  switch (r) {
    case StoreResult::kStored: resp.type = ResponseType::kStored; break;
    case StoreResult::kNotStored: resp.type = ResponseType::kNotStored; break;
    case StoreResult::kExists: resp.type = ResponseType::kExists; break;
    case StoreResult::kNotFound: resp.type = ResponseType::kNotFound; break;
    // A server never produces kTransportError itself; surfacing it keeps a
    // relaying tier (proxy) honest if one ever forwards backend results.
    case StoreResult::kTransportError:
      resp.type = ResponseType::kTransportError;
      break;
  }
  return resp;
}

Nanos ExptimeToTtl(std::int64_t exptime) {
  // memcached: 0 = never; positive = relative seconds (we skip the 30-day
  // absolute-timestamp rule - callers here always use relative).
  return exptime <= 0 ? 0 : exptime * kNanosPerSec;
}

}  // namespace

CommandClass ClassOf(Command c) {
  switch (c) {
    case Command::kGet:
    case Command::kGets: return CommandClass::kGet;
    case Command::kSet:
    case Command::kAdd:
    case Command::kReplace:
    case Command::kCas:
    case Command::kAppend:
    case Command::kPrepend: return CommandClass::kStore;
    case Command::kDelete: return CommandClass::kDelete;
    case Command::kIncr:
    case Command::kDecr: return CommandClass::kIncrDecr;
    case Command::kIQGet: return CommandClass::kIQget;
    case Command::kIQSet: return CommandClass::kIQset;
    case Command::kQaRead: return CommandClass::kQaRead;
    case Command::kSaR:
    case Command::kSaRNull: return CommandClass::kSaR;
    case Command::kQaReg: return CommandClass::kQaReg;
    case Command::kDaR: return CommandClass::kDaR;
    case Command::kIQAppend:
    case Command::kIQPrepend:
    case Command::kIQIncr:
    case Command::kIQDecr: return CommandClass::kIQDelta;
    case Command::kCommit: return CommandClass::kCommit;
    case Command::kAbort: return CommandClass::kAbort;
    default: return CommandClass::kOther;
  }
}

Response CommandDispatcher::Dispatch(const Request& request) {
  const Clock& clock = server_.clock();
  Nanos start = clock.Now();
  Response resp = DispatchCommand(request);
  server_.command_latencies().Record(
      static_cast<std::size_t>(ClassOf(request.command)), clock.Now() - start);
  return resp;
}

Response CommandDispatcher::DispatchCommand(const Request& request) {
  switch (request.command) {
    case Command::kGet:
    case Command::kGets: {
      Response resp;
      // Multi-key get: one VALUE block per hit, misses silently omitted
      // (memcached semantics). Requests built in-process may carry only
      // `key`; the wire parser always fills `keys`.
      auto lookup = [&](const std::string& k) {
        auto item = server_.store().Get(k);
        if (!item) return;
        ValueEntry entry;
        entry.key = k;
        entry.data = std::move(item->value);
        entry.flags = item->flags;
        entry.cas_unique = item->cas;
        resp.values.push_back(std::move(entry));
      };
      if (request.keys.empty()) {
        lookup(request.key);
      } else {
        for (const std::string& k : request.keys) lookup(k);
      }
      if (resp.values.empty()) {
        resp.type = ResponseType::kEnd;
        return resp;
      }
      resp.type = ResponseType::kValue;
      resp.with_cas = request.command == Command::kGets;
      return resp;
    }
    case Command::kSet:
    case Command::kAdd:
    case Command::kReplace:
    case Command::kCas:
    case Command::kAppend:
    case Command::kPrepend:
    case Command::kDelete:
    case Command::kIncr:
    case Command::kDecr:
    case Command::kFlushAll:
      return DispatchStorage(request);
    case Command::kStats: {
      Response resp;
      resp.type = ResponseType::kStats;
      resp.message = FormatStats(server_);
      if (stats_augmenter_) stats_augmenter_(resp.message);
      return resp;
    }
    case Command::kQuit: {
      Response resp;
      resp.type = ResponseType::kOk;
      return resp;
    }
    default:
      return DispatchIQ(request);
  }
}

Response CommandDispatcher::DispatchStorage(const Request& r) {
  CacheStore& store = server_.store();
  Nanos ttl = ExptimeToTtl(r.exptime);
  switch (r.command) {
    case Command::kSet:
      return FromStoreResult(store.Set(r.key, r.data, r.flags, ttl));
    case Command::kAdd:
      return FromStoreResult(store.Add(r.key, r.data, r.flags, ttl));
    case Command::kReplace:
      return FromStoreResult(store.Replace(r.key, r.data, r.flags, ttl));
    case Command::kCas:
      return FromStoreResult(store.Cas(r.key, r.data, r.cas_unique, r.flags, ttl));
    case Command::kAppend:
      return FromStoreResult(store.Append(r.key, r.data));
    case Command::kPrepend:
      return FromStoreResult(store.Prepend(r.key, r.data));
    case Command::kDelete: {
      Response resp;
      // Baseline delete carries Facebook semantics: voids I leases too.
      resp.type = server_.DeleteVoid(r.key) ? ResponseType::kDeleted
                                            : ResponseType::kNotFound;
      return resp;
    }
    case Command::kIncr:
    case Command::kDecr: {
      auto result = r.command == Command::kIncr ? store.Incr(r.key, r.amount)
                                                : store.Decr(r.key, r.amount);
      Response resp;
      if (!result) {
        resp.type = ResponseType::kNotFound;
      } else {
        resp.type = ResponseType::kNumber;
        resp.number = *result;
      }
      return resp;
    }
    case Command::kFlushAll: {
      store.Flush();
      Response resp;
      resp.type = ResponseType::kOk;
      return resp;
    }
    default: {
      Response resp;
      resp.type = ResponseType::kError;
      resp.message = "not a storage command";
      return resp;
    }
  }
}

Response CommandDispatcher::DispatchIQ(const Request& r) {
  Response resp;
  switch (r.command) {
    case Command::kIQGet: {
      GetReply reply = server_.IQget(r.key, r.session);
      switch (reply.status) {
        case GetReply::Status::kHit:
          resp.type = ResponseType::kValue;
          resp.key = r.key;
          resp.data = std::move(reply.value);
          // Near-cache validity grant rides the VALUE line as a duration.
          resp.ttl_ns = static_cast<std::uint64_t>(reply.validity);
          return resp;
        case GetReply::Status::kMissGrantedI:
          resp.type = ResponseType::kMissToken;
          resp.number = reply.token;
          return resp;
        case GetReply::Status::kMissBackoff:
          resp.type = ResponseType::kMissBackoff;
          return resp;
        case GetReply::Status::kMissNoLease:
          resp.type = ResponseType::kMissNoLease;
          return resp;
        case GetReply::Status::kTransportError:
          resp.type = ResponseType::kTransportError;
          return resp;
      }
      break;
    }
    case Command::kIQSet:
      return FromStoreResult(server_.IQset(r.key, r.data, r.token));
    case Command::kQaRead: {
      QaReadReply reply = server_.QaRead(r.key, r.session);
      if (reply.status == QaReadReply::Status::kReject) {
        resp.type = ResponseType::kReject;
        return resp;
      }
      if (reply.status == QaReadReply::Status::kTransportError) {
        resp.type = ResponseType::kTransportError;
        return resp;
      }
      if (reply.value) {
        resp.type = ResponseType::kQValue;
        resp.number = reply.token;
        resp.data = std::move(*reply.value);
      } else {
        resp.type = ResponseType::kQMiss;
        resp.number = reply.token;
      }
      return resp;
    }
    case Command::kSaR:
      return FromStoreResult(
          server_.SaR(r.key, std::string_view(r.data), r.token));
    case Command::kSaRNull:
      return FromStoreResult(server_.SaR(r.key, std::nullopt, r.token));
    case Command::kGenId:
      resp.type = ResponseType::kId;
      resp.number = server_.GenID();
      return resp;
    case Command::kQaReg: {
      QuarantineResult q = server_.QaReg(r.session, r.key);
      // In-process QaReg is always granted; the switch keeps a relaying
      // tier honest should its backend ever report differently.
      resp.type = q == QuarantineResult::kGranted
                      ? ResponseType::kGranted
                      : (q == QuarantineResult::kTransportError
                             ? ResponseType::kTransportError
                             : ResponseType::kReject);
      return resp;
    }
    case Command::kDaR:
      server_.DaR(r.session);
      resp.type = ResponseType::kOk;
      return resp;
    case Command::kIQAppend:
    case Command::kIQPrepend:
    case Command::kIQIncr:
    case Command::kIQDecr: {
      DeltaOp delta;
      switch (r.command) {
        case Command::kIQAppend:
          delta = {DeltaOp::Kind::kAppend, r.data, 0};
          break;
        case Command::kIQPrepend:
          delta = {DeltaOp::Kind::kPrepend, r.data, 0};
          break;
        case Command::kIQIncr:
          delta = {DeltaOp::Kind::kIncr, {}, r.amount};
          break;
        default:
          delta = {DeltaOp::Kind::kDecr, {}, r.amount};
          break;
      }
      QuarantineResult q = server_.IQDelta(r.session, r.key, std::move(delta));
      resp.type = q == QuarantineResult::kGranted
                      ? ResponseType::kGranted
                      : (q == QuarantineResult::kTransportError
                             ? ResponseType::kTransportError
                             : ResponseType::kReject);
      return resp;
    }
    case Command::kCommit:
      server_.Commit(r.session);
      resp.type = ResponseType::kOk;
      return resp;
    case Command::kAbort:
      server_.Abort(r.session);
      resp.type = ResponseType::kOk;
      return resp;
    case Command::kRelease:
      server_.ReleaseKey(r.session, r.key);
      resp.type = ResponseType::kOk;
      return resp;
    case Command::kSweep:
      resp.type = ResponseType::kNumber;
      resp.number = server_.SweepExpired();
      return resp;
    case Command::kMetrics:
      resp.type = ResponseType::kMetrics;
      resp.data = FormatMetrics(server_);
      if (stats_augmenter_) {
        // The wire tier's STAT lines, re-rendered as Prometheus gauges so
        // one scrape carries both layers.
        std::string wire;
        stats_augmenter_(wire);
        AppendStatsAsMetrics(wire, &resp.data);
      }
      return resp;
    case Command::kTrace:
      // TRACE_INFO header first: consumers (iqcheck) need recorded/dropped/
      // capacity to tell a complete history from one the rings wrapped.
      resp.type = ResponseType::kTrace;
      resp.message = FormatTraceInfo(server_.TraceInfoTotal());
      resp.message += FormatTraceEvents(server_.TraceSnapshot(
          r.amount != 0 ? static_cast<std::size_t>(r.amount)
                        : kDefaultTraceEvents));
      return resp;
    default:
      break;
  }
  resp.type = ResponseType::kError;
  resp.message = "unhandled command";
  return resp;
}

std::string FormatStats(const IQServer& server) {
  const IQServerStats iq = server.Stats();
  const CacheStats store = const_cast<IQServer&>(server).store().Stats();
  std::ostringstream out;
  auto stat = [&](const char* name, std::uint64_t v) {
    out << "STAT " << name << " " << v << "\r\n";
  };
  stat("gets", store.gets);
  stat("get_hits", store.get_hits);
  stat("get_misses", store.get_misses);
  stat("sets", store.sets);
  stat("deletes", store.deletes);
  stat("evictions", store.evictions);
  stat("expirations", store.expirations);
  stat("opt_hits", store.opt_hits);
  stat("opt_fallbacks", store.opt_fallbacks);
  stat("flushes", store.flushes);
  stat("bytes_used", store.bytes_used);
  stat("item_count", store.item_count);
  for (const IQStatsField& f : kIQStatsFields) stat(f.name, iq.*f.member);
  // Per-command service-time percentiles, recorded by the dispatcher.
  // Classes with no observations are omitted (a fresh server emits none).
  const StripedLatencyRecorder& lat = server.command_latencies();
  for (std::size_t cls = 0; cls < lat.num_classes(); ++cls) {
    LatencyHistogram h = lat.Merged(cls);
    if (h.Count() == 0) continue;
    std::string prefix = "cmd_";
    prefix += ToString(static_cast<CommandClass>(cls));
    stat((prefix + "_count").c_str(), h.Count());
    stat((prefix + "_mean_us").c_str(),
         static_cast<std::uint64_t>(h.MeanNanos() / kNanosPerMicro));
    stat((prefix + "_p95_us").c_str(),
         static_cast<std::uint64_t>(h.Percentile(0.95) / kNanosPerMicro));
    stat((prefix + "_p99_us").c_str(),
         static_cast<std::uint64_t>(h.Percentile(0.99) / kNanosPerMicro));
    stat((prefix + "_max_us").c_str(),
         static_cast<std::uint64_t>(h.Max() / kNanosPerMicro));
  }
  return out.str();
}

std::string FormatWindowedStats(const StatsWindowSample& sample) {
  std::ostringstream out;
  out << "STAT window_ms "
      << static_cast<std::uint64_t>(sample.seconds * 1000.0) << "\r\n";
  for (const IQStatsField& f : kIQStatsFields) {
    out << "STAT w_" << f.name << " " << sample.delta.*f.member << "\r\n";
    if (sample.seconds > 0) {
      char rate[32];
      std::snprintf(rate, sizeof rate, "%.3f",
                    static_cast<double>(sample.delta.*f.member) /
                        sample.seconds);
      out << "STAT w_" << f.name << "_per_sec " << rate << "\r\n";
    }
  }
  return out.str();
}

IQServerStats ParseIQStats(std::string_view stats_text) {
  // Names and members come straight from the canonical kIQStatsFields table
  // (core/iq_stats.h), the same one FormatStats renders from.
  IQServerStats out{};
  std::size_t pos = 0;
  while (pos < stats_text.size()) {
    std::size_t eol = stats_text.find_first_of("\r\n", pos);
    if (eol == std::string_view::npos) eol = stats_text.size();
    std::string_view line = stats_text.substr(pos, eol - pos);
    pos = stats_text.find_first_not_of("\r\n", eol);
    if (pos == std::string_view::npos) pos = stats_text.size();
    if (!line.starts_with("STAT ")) continue;
    line.remove_prefix(5);
    std::size_t space = line.find(' ');
    if (space == std::string_view::npos) continue;
    std::string_view name = line.substr(0, space);
    std::string_view value = line.substr(space + 1);
    for (const IQStatsField& f : kIQStatsFields) {
      if (name != f.name) continue;
      std::uint64_t v = 0;
      auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
      if (ec == std::errc{} && p == value.data() + value.size()) out.*f.member = v;
      break;
    }
  }
  return out;
}

}  // namespace iq::net
