#include "net/server.h"

#include <algorithm>
#include <charconv>
#include <sstream>

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

/// True when all of `text` parses as one number.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc{} && end == text.data() + text.size();
}

/// Call fn(line) for each CR- or LF-terminated line of `text` (empty lines
/// included) until fn returns false. Returns false iff fn did.
template <typename Fn>
bool ForEachLine(std::string_view text, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = std::min(text.find_first_of("\r\n", pos), text.size());
    if (!fn(text.substr(pos, eol - pos))) return false;
    pos = eol + 1;
  }
  return true;
}

/// The STAT-line walker: call fn(name, value) for each "STAT <name> <value>"
/// line of `text`, skipping every other line.
template <typename Fn>
void ForEachStat(std::string_view text, Fn&& fn) {
  ForEachLine(text, [&](std::string_view line) {
    if (!line.starts_with("STAT ")) return true;
    line.remove_prefix(5);
    std::size_t space = line.find(' ');
    if (space != std::string_view::npos && space > 0) {
      fn(line.substr(0, space), line.substr(space + 1));
    }
    return true;
  });
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
  if (request.command == Command::kBatch) return DispatchBatch(request);
  const Clock& clock = server_.clock();
  Nanos start = clock.Now();
  Response resp = DispatchCommand(request);
  server_.command_latencies().Record(
      static_cast<std::size_t>(ClassOf(request.command)), clock.Now() - start);
  return resp;
}

Response CommandDispatcher::DispatchBatch(const Request& frame) {
  // The parser admits only batchable requests into a frame (IsBatchable),
  // at most kMaxBatchRequests of them.
  Response resp;
  resp.type = ResponseType::kBatch;
  resp.batch.reserve(frame.batch.size());
  std::size_t reply_bytes = 0;
  for (const Request& r : frame.batch) {
    // Output guard: a frame of QaReads re-reading one large value would
    // otherwise copy it once per request before a byte is written. The
    // client sends the requests a short reply leaves out in its next frame.
    if (reply_bytes > batch_reply_bytes_) break;
    resp.batch.push_back(Dispatch(r));
    reply_bytes += resp.batch.back().data.size();
    // A rejected lease means the session must release everything and
    // retry; running its later requests would only take leases to drop.
    if (resp.batch.back().type == ResponseType::kReject) break;
  }
  return resp;
}

std::string CommandDispatcher::StatsText() const {
  std::string text = FormatStats(server_);
  if (stats_augmenter_) stats_augmenter_(text);
  return text;
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
      resp.message = StatsText();
      return resp;
    }
    case Command::kMetrics: {
      Response resp;
      resp.type = ResponseType::kMetrics;
      resp.data = FormatMetrics(StatsText());
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
  const CacheStats store = server.store().Stats();
  const TraceInfo trace = server.TraceInfoTotal();
  std::ostringstream out;
  auto stat = [&](std::string_view name, std::uint64_t v) {
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
  stat("leases_live", server.LeaseCount());
  stat("trace_recorded", trace.recorded);
  stat("trace_dropped", trace.dropped);
  // Per-command service times, recorded by the dispatcher. Nanoseconds,
  // because a hit is served in well under a microsecond. Classes with no
  // observations are omitted (a fresh server emits none).
  const StripedLatencyRecorder& lat = server.command_latencies();
  for (std::size_t cls = 0; cls < lat.num_classes(); ++cls) {
    LatencyHistogram h = lat.Merged(cls);
    if (h.Count() == 0) continue;
    std::string prefix = "cmd_";
    prefix += ToString(static_cast<CommandClass>(cls));
    stat(prefix + "_count", h.Count());
    stat(prefix + "_mean_ns", static_cast<std::uint64_t>(h.MeanNanos()));
    stat(prefix + "_p95_ns", static_cast<std::uint64_t>(h.Percentile(0.95)));
    stat(prefix + "_p99_ns", static_cast<std::uint64_t>(h.Percentile(0.99)));
    stat(prefix + "_max_ns", static_cast<std::uint64_t>(h.Max()));
  }
  return out.str();
}

IQServerStats ParseIQStats(std::string_view stats_text) {
  // Names and members come straight from the canonical kIQStatsFields table
  // (core/iq_stats.h), the same one FormatStats renders from.
  IQServerStats out{};
  ForEachStat(stats_text, [&](std::string_view name, std::string_view value) {
    for (const IQStatsField& f : kIQStatsFields) {
      if (name != f.name) continue;
      std::uint64_t v = 0;
      if (ParseWhole(value, &v)) out.*f.member = v;
      return;
    }
  });
  return out;
}

std::string FormatMetrics(std::string_view stat_lines) {
  std::string out;
  ForEachStat(stat_lines, [&](std::string_view name, std::string_view value) {
    double v = 0;
    if (!ParseWhole(value, &v)) return;
    out.append("iq_").append(name).append(" ").append(value).append("\n");
  });
  return out;
}

bool ParseMetrics(std::string_view text, std::map<std::string, double>* out) {
  return ForEachLine(text, [out](std::string_view line) {
    if (line.empty() || line[0] == '#') return true;
    // The series id runs to the last space; the remainder is the value.
    std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0) return false;
    double v = 0;
    if (!ParseWhole(line.substr(space + 1), &v)) return false;
    (*out)[std::string(line.substr(0, space))] = v;
    return true;
  });
}

}  // namespace iq::net
