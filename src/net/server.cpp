#include "net/server.h"

#include <charconv>

namespace iq::net {
namespace {

ResponseType FromStoreResult(StoreResult r) {
  switch (r) {
    case StoreResult::kStored: return ResponseType::kStored;
    case StoreResult::kNotStored: return ResponseType::kNotStored;
    case StoreResult::kExists: return ResponseType::kExists;
    case StoreResult::kNotFound: return ResponseType::kNotFound;
    // A server never produces kTransportError itself; surfacing it keeps a
    // relaying tier (proxy) honest if one ever forwards backend results.
    case StoreResult::kTransportError: return ResponseType::kTransportError;
  }
  return ResponseType::kError;
}

/// QaReg and the IQ deltas. In-process they are always granted; the
/// mapping keeps a relaying tier honest should its backend ever report
/// differently.
ResponseType FromQuarantineResult(QuarantineResult q) {
  switch (q) {
    case QuarantineResult::kGranted: return ResponseType::kGranted;
    case QuarantineResult::kTransportError: return ResponseType::kTransportError;
    default: return ResponseType::kReject;
  }
}

/// Append `response` to *out; returns its type.
ResponseType Reply(const ResponseView& response, std::string* out) {
  AppendTo(response, out);
  return response.type;
}

/// Append a response that is its type alone (or carries one number).
ResponseType Reply(ResponseType type, std::string* out,
                   std::uint64_t number = 0) {
  ResponseView response;
  response.type = type;
  response.number = number;
  return Reply(response, out);
}

Nanos ExptimeToTtl(std::int64_t exptime) {
  // memcached: 0 = never; positive = relative seconds (we skip the 30-day
  // absolute-timestamp rule - callers here always use relative).
  return exptime <= 0 ? 0 : SaturatingAdd(0, exptime, kNanosPerSec);
}

/// True when all of `text` parses as one number.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc{} && end == text.data() + text.size();
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

void CommandDispatcher::DispatchTo(const RequestView& request,
                                   std::string* out) {
  if (request.command == Command::kBatch) {
    DispatchBatch(request, out);
  } else {
    Run(request, out);
  }
}

Response CommandDispatcher::Dispatch(const Request& request) {
  std::vector<std::string_view> keys;
  std::vector<RequestView> batch;
  std::string bytes;
  DispatchTo(ViewOf(request, &keys, &batch), &bytes);
  std::size_t consumed = 0;
  if (std::optional<Response> response = ParseResponse(bytes, &consumed)) {
    return std::move(*response);
  }
  Response err;
  err.type = ResponseType::kError;
  err.message = "unreadable reply";
  return err;
}

ResponseType CommandDispatcher::Run(const RequestView& request,
                                    std::string* out) {
  const Clock& clock = server_.clock();
  Nanos start = clock.Now();
  ResponseType type = DispatchCommand(request, out);
  server_.command_latencies().Record(
      static_cast<std::size_t>(ClassOf(request.command)), clock.Now() - start);
  return type;
}

void CommandDispatcher::DispatchBatch(const RequestView& frame,
                                      std::string* out) {
  // The parser admits only batchable requests into a frame (IsBatchable),
  // at most kMaxBatchRequests of them. The replies go straight after the
  // frame's start; the BATCH line, whose count is known only at the end,
  // goes in front of them.
  const std::size_t head = out->size();
  std::uint64_t executed = 0;
  for (const RequestView& r : frame.batch) {
    // Output guard: a frame of QaReads re-reading one large value would
    // otherwise copy it once per request before a byte is written. The
    // client sends the requests a short reply leaves out in its next frame.
    if (out->size() - head > batch_reply_bytes_) break;
    ResponseType type = Run(r, out);
    ++executed;
    // A rejected lease means the session must release everything and
    // retry; running its later requests would only take leases to drop.
    if (type == ResponseType::kReject) break;
  }
  std::string line;  // "BATCH <n>\r\n" fits the small-string buffer
  Reply(ResponseType::kBatch, &line, executed);
  out->insert(head, line);
}

std::string CommandDispatcher::StatsText() const {
  std::string text = FormatStats(server_);
  if (stats_augmenter_) stats_augmenter_(text);
  return text;
}

ResponseType CommandDispatcher::DispatchCommand(const RequestView& request,
                                                std::string* out) {
  switch (request.command) {
    case Command::kGet:
    case Command::kGets:
      return DispatchGet(request, out);
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
      return DispatchStorage(request, out);
    case Command::kStats: {
      const std::string text = StatsText();
      ResponseView resp;
      resp.type = ResponseType::kStats;
      resp.message = text;
      return Reply(resp, out);
    }
    case Command::kMetrics: {
      const std::string text = FormatMetrics(StatsText());
      ResponseView resp;
      resp.type = ResponseType::kMetrics;
      resp.data = text;
      return Reply(resp, out);
    }
    case Command::kQuit:
      return Reply(ResponseType::kOk, out);
    default:
      return DispatchIQ(request, out);
  }
}

ResponseType CommandDispatcher::DispatchGet(const RequestView& request,
                                            std::string* out) {
  // Multi-key get: one VALUE block per hit, misses silently omitted
  // (memcached semantics), then END. Requests built in-process may carry
  // only `key`; the wire parser always fills `keys`.
  bool hit = false;
  auto lookup = [&](std::string_view k) {
    auto item = server_.store().Get(k);
    if (!item) return;
    ValueView v;
    v.key = k;
    v.data = item->value;
    v.flags = item->flags;
    v.cas_unique = item->cas;
    v.with_cas = request.command == Command::kGets;
    AppendValueBlock(v, out);
    hit = true;
  };
  if (request.keys.empty()) {
    lookup(request.key);
  } else {
    for (std::string_view k : request.keys) lookup(k);
  }
  Reply(ResponseType::kEnd, out);
  return hit ? ResponseType::kValue : ResponseType::kEnd;
}

ResponseType CommandDispatcher::DispatchStorage(const RequestView& r,
                                                std::string* out) {
  CacheStore& store = server_.store();
  Nanos ttl = ExptimeToTtl(r.exptime);
  switch (r.command) {
    case Command::kSet:
      return Reply(FromStoreResult(store.Set(r.key, r.data, r.flags, ttl)), out);
    case Command::kAdd:
      return Reply(FromStoreResult(store.Add(r.key, r.data, r.flags, ttl)), out);
    case Command::kReplace:
      return Reply(
          FromStoreResult(store.Replace(r.key, r.data, r.flags, ttl)), out);
    case Command::kCas:
      return Reply(FromStoreResult(
                       store.Cas(r.key, r.data, r.cas_unique, r.flags, ttl)),
                   out);
    case Command::kAppend:
      return Reply(FromStoreResult(store.Append(r.key, r.data)), out);
    case Command::kPrepend:
      return Reply(FromStoreResult(store.Prepend(r.key, r.data)), out);
    case Command::kDelete:
      // Baseline delete carries Facebook semantics: voids I leases too.
      return Reply(server_.DeleteVoid(r.key) ? ResponseType::kDeleted
                                             : ResponseType::kNotFound,
                   out);
    case Command::kIncr:
    case Command::kDecr: {
      auto result = r.command == Command::kIncr ? store.Incr(r.key, r.amount)
                                                : store.Decr(r.key, r.amount);
      if (!result) return Reply(ResponseType::kNotFound, out);
      return Reply(ResponseType::kNumber, out, *result);
    }
    case Command::kFlushAll:
      store.Flush();
      return Reply(ResponseType::kOk, out);
    default: {
      ResponseView resp;
      resp.type = ResponseType::kError;
      resp.message = "not a storage command";
      return Reply(resp, out);
    }
  }
}

ResponseType CommandDispatcher::DispatchIQ(const RequestView& r,
                                           std::string* out) {
  switch (r.command) {
    case Command::kIQGet: {
      GetReply reply = server_.IQget(r.key, r.session);
      switch (reply.status) {
        case GetReply::Status::kHit: {
          ResponseView resp;
          resp.type = ResponseType::kValue;
          resp.key = r.key;
          resp.data = reply.value;
          // Near-cache validity grant rides the VALUE line as a duration.
          resp.ttl_ns = static_cast<std::uint64_t>(reply.validity);
          return Reply(resp, out);
        }
        case GetReply::Status::kMissGrantedI:
          return Reply(ResponseType::kMissToken, out, reply.token);
        case GetReply::Status::kMissBackoff:
          return Reply(ResponseType::kMissBackoff, out);
        case GetReply::Status::kMissNoLease:
          return Reply(ResponseType::kMissNoLease, out);
        case GetReply::Status::kTransportError:
          return Reply(ResponseType::kTransportError, out);
      }
      break;
    }
    case Command::kIQSet:
      return Reply(FromStoreResult(server_.IQset(r.key, r.data, r.token)), out);
    case Command::kQaRead: {
      QaReadReply reply = server_.QaRead(r.key, r.session);
      if (reply.status == QaReadReply::Status::kReject) {
        return Reply(ResponseType::kReject, out);
      }
      if (reply.status == QaReadReply::Status::kTransportError) {
        return Reply(ResponseType::kTransportError, out);
      }
      if (!reply.value) return Reply(ResponseType::kQMiss, out, reply.token);
      ResponseView resp;
      resp.type = ResponseType::kQValue;
      resp.number = reply.token;
      resp.data = *reply.value;
      return Reply(resp, out);
    }
    case Command::kSaR:
      return Reply(FromStoreResult(server_.SaR(r.key, r.data, r.token)), out);
    case Command::kSaRNull:
      return Reply(FromStoreResult(server_.SaR(r.key, std::nullopt, r.token)),
                   out);
    case Command::kGenId:
      return Reply(ResponseType::kId, out, server_.GenID());
    case Command::kQaReg:
      return Reply(FromQuarantineResult(server_.QaReg(r.session, r.key)), out);
    case Command::kDaR:
      server_.DaR(r.session);
      return Reply(ResponseType::kOk, out);
    case Command::kIQAppend:
    case Command::kIQPrepend:
    case Command::kIQIncr:
    case Command::kIQDecr: {
      DeltaOp delta;
      switch (r.command) {
        case Command::kIQAppend:
          delta = {DeltaOp::Kind::kAppend, std::string(r.data), 0};
          break;
        case Command::kIQPrepend:
          delta = {DeltaOp::Kind::kPrepend, std::string(r.data), 0};
          break;
        case Command::kIQIncr:
          delta = {DeltaOp::Kind::kIncr, {}, r.amount};
          break;
        default:
          delta = {DeltaOp::Kind::kDecr, {}, r.amount};
          break;
      }
      return Reply(FromQuarantineResult(
                       server_.IQDelta(r.session, r.key, std::move(delta))),
                   out);
    }
    case Command::kCommit:
      server_.Commit(r.session);
      return Reply(ResponseType::kOk, out);
    case Command::kAbort:
      server_.Abort(r.session);
      return Reply(ResponseType::kOk, out);
    case Command::kRelease:
      server_.ReleaseKey(r.session, r.key);
      return Reply(ResponseType::kOk, out);
    case Command::kSweep:
      return Reply(ResponseType::kNumber, out, server_.SweepExpired());
    case Command::kTrace: {
      // TRACE_INFO header first: consumers (iqcheck) need recorded/dropped/
      // capacity to tell a complete history from one the rings wrapped.
      std::string text = FormatTraceInfo(server_.TraceInfoTotal());
      text += FormatTraceEvents(server_.TraceSnapshot(
          r.amount != 0 ? static_cast<std::size_t>(r.amount)
                        : kDefaultTraceEvents));
      ResponseView resp;
      resp.type = ResponseType::kTrace;
      resp.message = text;
      return Reply(resp, out);
    }
    default:
      break;
  }
  ResponseView resp;
  resp.type = ResponseType::kError;
  resp.message = "unhandled command";
  return Reply(resp, out);
}

std::string FormatStats(const IQServer& server) {
  std::string out;
  AppendStats(out, server.store().Stats(), kCacheStatsFields);
  AppendStats(out, server.Stats(), kIQStatsFields);
  AppendStat(out, "leases_live", server.LeaseCount());
  AppendStats(out, server.TraceInfoTotal(), kTraceInfoFields);
  // Per-command service times, recorded by the dispatcher. Nanoseconds,
  // because a hit is served in well under a microsecond. Classes with no
  // observations are omitted (a fresh server emits none).
  const StripedLatencyRecorder& lat = server.command_latencies();
  for (std::size_t cls = 0; cls < lat.num_classes(); ++cls) {
    LatencyHistogram h = lat.Merged(cls);
    if (h.Count() == 0) continue;
    std::string prefix = "cmd_";
    prefix += ToString(static_cast<CommandClass>(cls));
    AppendStat(out, prefix + "_count", h.Count());
    AppendStat(out, prefix + "_mean_ns",
               static_cast<std::uint64_t>(h.MeanNanos()));
    AppendStat(out, prefix + "_p95_ns",
               static_cast<std::uint64_t>(h.Percentile(0.95)));
    AppendStat(out, prefix + "_p99_ns",
               static_cast<std::uint64_t>(h.Percentile(0.99)));
    AppendStat(out, prefix + "_max_ns", static_cast<std::uint64_t>(h.Max()));
  }
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
