#include "net/remote_backend.h"

namespace iq::net {
namespace {

// Request builders, one per wire shape, each straight from the caller's
// views, plus the reply readers the per-key and batched verbs share.

Request KeyRequest(Command command, std::string_view key) {
  Request r;
  r.command = command;
  r.key = key;
  return r;
}

Request DataRequest(Command command, std::string_view key,
                    std::string_view data) {
  Request r = KeyRequest(command, key);
  r.data = data;
  return r;
}

Request SessionRequest(Command command, SessionId tid,
                       std::string_view key = {}) {
  Request r = KeyRequest(command, key);
  r.session = tid;
  return r;
}

Request DeltaRequest(SessionId tid, std::string_view key, DeltaOp delta) {
  Request r;
  r.session = tid;
  r.key = key;
  switch (delta.kind) {
    case DeltaOp::Kind::kAppend:
      r.command = Command::kIQAppend;
      r.data = std::move(delta.blob);
      break;
    case DeltaOp::Kind::kPrepend:
      r.command = Command::kIQPrepend;
      r.data = std::move(delta.blob);
      break;
    case DeltaOp::Kind::kIncr:
      r.command = Command::kIQIncr;
      r.amount = delta.amount;
      break;
    case DeltaOp::Kind::kDecr:
      r.command = Command::kIQDecr;
      r.amount = delta.amount;
      break;
  }
  return r;
}

Request SaRRequest(std::string_view key, std::optional<std::string_view> value,
                   LeaseToken token) {
  Request r = value ? DataRequest(Command::kSaR, key, *value)
                    : KeyRequest(Command::kSaRNull, key);
  r.token = token;
  return r;
}

StoreResult ToStoreResult(const Response& resp) {
  switch (resp.type) {
    case ResponseType::kStored: return StoreResult::kStored;
    case ResponseType::kExists: return StoreResult::kExists;
    case ResponseType::kNotFound: return StoreResult::kNotFound;
    case ResponseType::kTransportError: return StoreResult::kTransportError;
    default: return StoreResult::kNotStored;
  }
}

QaReadReply ToQaReadReply(Response resp) {
  switch (resp.type) {
    case ResponseType::kQValue:
      return {QaReadReply::Status::kGranted, std::move(resp.data), resp.number};
    case ResponseType::kQMiss:
      return {QaReadReply::Status::kGranted, std::nullopt, resp.number};
    case ResponseType::kReject:
      return {QaReadReply::Status::kReject, std::nullopt, 0};
    default:
      // Only an explicit REJECT means "Q conflict, abort and retry". A dead
      // channel must surface as an outage so the session aborts its RDBMS
      // txn instead of spinning the conflict path forever.
      return {QaReadReply::Status::kTransportError, std::nullopt, 0};
  }
}

/// QaReg and the IQ deltas: kGranted only on an explicit GRANTED.
QuarantineResult ToQuarantineResult(const Response& resp) {
  switch (resp.type) {
    case ResponseType::kGranted: return QuarantineResult::kGranted;
    case ResponseType::kReject: return QuarantineResult::kReject;
    default: return QuarantineResult::kTransportError;
  }
}

std::optional<std::uint64_t> ToNumber(const Response& resp) {
  if (resp.type != ResponseType::kNumber) return std::nullopt;
  return resp.number;
}

}  // namespace

Response RemoteBackend::Call(const Request& request) {
  return Exchange(Serialize(request));
}

Response RemoteBackend::Exchange(const std::string& request_bytes) {
  std::string bytes;
  Response err;
  if (!channel_.RoundTrip(request_bytes, &bytes)) {
    err.type = ResponseType::kTransportError;
    err.message = "connection failed";
    return err;
  }
  std::size_t consumed = 0;
  auto response = ParseResponse(bytes, &consumed);
  if (!response) {
    // A short or unparseable reply means the stream is desynced; the caller
    // cannot trust anything further on this connection. Treat as transport
    // failure, not as a server-refused command.
    err.type = ResponseType::kTransportError;
    err.message = "short or malformed response";
    return err;
  }
  return std::move(*response);
}

// ---- the IQ command set ------------------------------------------------------

SessionId RemoteBackend::GenID() {
  Request r;
  r.command = Command::kGenId;
  Response resp = Call(r);
  return resp.type == ResponseType::kId ? resp.number : 0;
}

GetReply RemoteBackend::IQget(std::string_view key, SessionId session) {
  Request r = KeyRequest(Command::kIQGet, key);
  r.session = session;
  Response resp = Call(r);
  switch (resp.type) {
    case ResponseType::kValue:
      // The ttl token, if any, is a duration relative to receipt: the
      // caller anchors it to its own clock the moment it stores the entry.
      return {GetReply::Status::kHit, std::move(resp.data), 0,
              static_cast<Nanos>(resp.ttl_ns)};
    case ResponseType::kMissToken:
      return {GetReply::Status::kMissGrantedI, {}, resp.number};
    case ResponseType::kMissNoLease:
      return {GetReply::Status::kMissNoLease, {}, 0};
    case ResponseType::kMissBackoff:
      return {GetReply::Status::kMissBackoff, {}, 0};
    default:
      // Transport failure (or a refused/garbled command): report the outage
      // rather than kMissBackoff, which would make the session spin its full
      // retry budget against a dead server.
      return {GetReply::Status::kTransportError, {}, 0};
  }
}

StoreResult RemoteBackend::IQset(std::string_view key, std::string_view value,
                                 LeaseToken token) {
  Request r = DataRequest(Command::kIQSet, key, value);
  r.token = token;
  return ToStoreResult(Call(r));
}

QaReadReply RemoteBackend::QaRead(std::string_view key, SessionId session) {
  return ToQaReadReply(Call(SessionRequest(Command::kQaRead, session, key)));
}

StoreResult RemoteBackend::SaR(std::string_view key,
                               std::optional<std::string_view> v_new,
                               LeaseToken token) {
  return ToStoreResult(Call(SaRRequest(key, v_new, token)));
}

QuarantineResult RemoteBackend::QaReg(SessionId tid, std::string_view key) {
  return ToQuarantineResult(Call(SessionRequest(Command::kQaReg, tid, key)));
}

void RemoteBackend::DaR(SessionId tid) {
  Call(SessionRequest(Command::kDaR, tid));
}

QuarantineResult RemoteBackend::IQDelta(SessionId tid, std::string_view key,
                                        DeltaOp delta) {
  return ToQuarantineResult(Call(DeltaRequest(tid, key, std::move(delta))));
}

void RemoteBackend::Commit(SessionId tid) {
  Call(SessionRequest(Command::kCommit, tid));
}

void RemoteBackend::Abort(SessionId tid) {
  Call(SessionRequest(Command::kAbort, tid));
}

void RemoteBackend::ReleaseKey(SessionId tid, std::string_view key) {
  Call(SessionRequest(Command::kRelease, tid, key));
}

std::vector<Response> RemoteBackend::CallBatch(
    const std::vector<Request>& requests) {
  std::vector<Response> out;
  out.reserve(requests.size());
  std::string body;
  std::string one;
  std::size_t next = 0;
  while (next < requests.size()) {
    // Fill one frame up to the server's caps (the 32 bytes cover the frame
    // header); a lone request travels as itself.
    body.clear();
    std::size_t n = 0;
    for (; next + n < requests.size() && n < kMaxBatchRequests; ++n) {
      one.clear();
      AppendTo(requests[next + n], &one);
      if (n > 0 && 32 + body.size() + one.size() > kMaxRequestBytes) break;
      body += one;
    }
    Response resp =
        Exchange(n == 1 ? body : "batch " + std::to_string(n) + "\r\n" + body);
    if (n == 1) {
      out.push_back(std::move(resp));
      ++next;
    } else if (resp.type == ResponseType::kBatch && !resp.batch.empty() &&
               resp.batch.size() <= n) {
      // A reply cut short by the server's reply budget leaves the rest for
      // the next frame; one cut short by a REJECT ends the call below.
      next += resp.batch.size();
      for (Response& r : resp.batch) out.push_back(std::move(r));
    } else {
      // A failed round trip, or a reply that is not this frame's: what the
      // server executed is unknown, exactly as for a per-key transport
      // error.
      Response err;
      err.type = ResponseType::kTransportError;
      err.message = resp.message;
      out.push_back(std::move(err));
      return out;
    }
    ResponseType last = out.back().type;
    if (last == ResponseType::kReject ||
        last == ResponseType::kTransportError) {
      return out;
    }
  }
  return out;
}

std::vector<LeaseReply> RemoteBackend::Acquire(
    SessionId tid, const std::vector<LeaseRequest>& requests) {
  std::vector<Request> wire;
  wire.reserve(requests.size());
  for (const LeaseRequest& r : requests) {
    switch (r.kind) {
      case LeaseRequest::Kind::kQaRead:
        wire.push_back(SessionRequest(Command::kQaRead, tid, r.key));
        break;
      case LeaseRequest::Kind::kQaReg:
        wire.push_back(SessionRequest(Command::kQaReg, tid, r.key));
        break;
      case LeaseRequest::Kind::kDelta:
        wire.push_back(DeltaRequest(tid, r.key, r.delta));
        break;
    }
  }
  std::vector<Response> responses = CallBatch(wire);
  std::vector<LeaseReply> replies(requests.size());
  for (std::size_t i = 0; i < responses.size() && i < replies.size(); ++i) {
    replies[i] = requests[i].kind == LeaseRequest::Kind::kQaRead
                     ? ToLeaseReply(ToQaReadReply(std::move(responses[i])))
                     : ToLeaseReply(ToQuarantineResult(responses[i]));
  }
  return replies;
}

std::vector<StoreResult> RemoteBackend::CommitSwaps(
    SessionId tid, const std::vector<Swap>& swaps) {
  std::vector<Request> wire;
  wire.reserve(swaps.size() + 1);
  for (const Swap& s : swaps) {
    wire.push_back(SaRRequest(s.key, s.value, s.token));
  }
  wire.push_back(SessionRequest(Command::kCommit, tid));
  std::vector<Response> responses = CallBatch(wire);
  std::vector<StoreResult> results(swaps.size(), StoreResult::kTransportError);
  for (std::size_t i = 0; i < responses.size() && i < results.size(); ++i) {
    results[i] = ToStoreResult(responses[i]);
  }
  return results;
}

// ---- plain memcached operations ------------------------------------------------

std::optional<CacheItem> RemoteBackend::Get(std::string_view key) {
  Response resp = Call(KeyRequest(Command::kGets, key));
  if (resp.type != ResponseType::kValue) return std::nullopt;
  return CacheItem{std::move(resp.data), resp.flags, resp.cas_unique};
}

StoreResult RemoteBackend::Set(std::string_view key, std::string_view value) {
  return ToStoreResult(Call(DataRequest(Command::kSet, key, value)));
}

StoreResult RemoteBackend::Add(std::string_view key, std::string_view value) {
  return ToStoreResult(Call(DataRequest(Command::kAdd, key, value)));
}

StoreResult RemoteBackend::Cas(std::string_view key, std::string_view value,
                               std::uint64_t cas) {
  Request r = DataRequest(Command::kCas, key, value);
  r.cas_unique = cas;
  return ToStoreResult(Call(r));
}

StoreResult RemoteBackend::Append(std::string_view key, std::string_view blob) {
  return ToStoreResult(Call(DataRequest(Command::kAppend, key, blob)));
}

StoreResult RemoteBackend::Prepend(std::string_view key,
                                   std::string_view blob) {
  return ToStoreResult(Call(DataRequest(Command::kPrepend, key, blob)));
}

std::optional<std::uint64_t> RemoteBackend::Incr(std::string_view key,
                                                 std::uint64_t amount) {
  Request r = KeyRequest(Command::kIncr, key);
  r.amount = amount;
  return ToNumber(Call(r));
}

std::optional<std::uint64_t> RemoteBackend::Decr(std::string_view key,
                                                 std::uint64_t amount) {
  Request r = KeyRequest(Command::kDecr, key);
  r.amount = amount;
  return ToNumber(Call(r));
}

bool RemoteBackend::DeleteVoid(std::string_view key) {
  return Call(KeyRequest(Command::kDelete, key)).type == ResponseType::kDeleted;
}

// ---- wire-only verbs -------------------------------------------------------------

std::vector<std::optional<CacheItem>> RemoteBackend::MultiGet(
    const std::vector<std::string>& keys, bool with_cas) {
  std::vector<std::optional<CacheItem>> out(keys.size());
  if (keys.empty()) return out;
  Request r = KeyRequest(with_cas ? Command::kGets : Command::kGet, keys[0]);
  r.keys = keys;
  Response resp = Call(r);
  if (resp.type != ResponseType::kValue) return out;
  // The server omits misses, so match returned VALUE blocks back to the
  // requested keys (duplicates each consume one block, in order). Caveat,
  // inherent to memcached get semantics: the server looks keys up one at a
  // time, so with duplicate keys in one request a concurrent write can make
  // the copies disagree (e.g. only the second copy hits), and sequence
  // matching then attributes the hit to the first copy. Positions still only
  // ever receive a value stored under their own key; dedupe keys before
  // calling if per-position exactness across duplicates matters.
  std::size_t next = 0;
  for (std::size_t i = 0; i < keys.size() && next < resp.values.size(); ++i) {
    ValueEntry& v = resp.values[next];
    if (v.key != keys[i]) continue;
    out[i] = CacheItem{std::move(v.data), v.flags, v.cas_unique};
    ++next;
  }
  return out;
}

void RemoteBackend::FlushAll() {
  Request r;
  r.command = Command::kFlushAll;
  Call(r);
}

std::string RemoteBackend::Stats() {
  Request r;
  r.command = Command::kStats;
  return Call(r).message;
}

std::optional<std::uint64_t> RemoteBackend::Sweep() {
  Request r;
  r.command = Command::kSweep;
  return ToNumber(Call(r));
}

std::optional<std::string> RemoteBackend::Metrics() {
  Request r;
  r.command = Command::kMetrics;
  Response resp = Call(r);
  if (resp.type != ResponseType::kMetrics) return std::nullopt;
  return std::move(resp.data);
}

std::optional<RemoteBackend::TraceDrain> RemoteBackend::Trace(
    std::uint64_t max_events) {
  Request r;
  r.command = Command::kTrace;
  r.amount = max_events;
  Response resp = Call(r);
  TraceDrain drain;
  // An empty trace from a pre-TRACE_INFO server is a bare END.
  if (resp.type == ResponseType::kEnd) return drain;
  if (resp.type != ResponseType::kTrace) return std::nullopt;
  if (!ParseTraceEvents(resp.message, &drain.events, &drain.info,
                        &drain.has_info)) {
    return std::nullopt;
  }
  return drain;
}

}  // namespace iq::net
