#include "net/channel.h"

#include "util/backoff.h"

namespace iq::net {

LoopbackChannel::LoopbackChannel(IQServer& server, Nanos one_way_latency,
                                 const Clock* clock)
    : dispatcher_(server),
      latency_(one_way_latency),
      clock_(clock != nullptr ? *clock : SteadyClock::Instance()) {}

bool LoopbackChannel::RoundTrip(const std::string& request_bytes,
                                std::string* reply) {
  if (latency_ > 0) SleepFor(clock_, latency_);
  reply->clear();
  {
    std::lock_guard lock(mu_);
    parser_.Feed(request_bytes);
    Request request;
    std::string error;
    // A single RoundTrip may carry several pipelined requests; answer all.
    while (true) {
      auto status = parser_.Next(&request, &error);
      if (status == RequestParser::Status::kNeedMore) break;
      if (status == RequestParser::Status::kError) {
        Response err;
        err.type = ResponseType::kError;
        err.message = error;
        *reply += Serialize(err);
        continue;
      }
      requests_.fetch_add(1, std::memory_order_relaxed);
      *reply += Serialize(dispatcher_.Dispatch(request));
    }
  }
  if (latency_ > 0) SleepFor(clock_, latency_);
  return true;
}

Response RemoteCacheClient::Call(const Request& request) {
  return Exchange(Serialize(request));
}

Response RemoteCacheClient::Exchange(const std::string& request_bytes) {
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
  return *response;
}

std::optional<CacheItem> RemoteCacheClient::Get(const std::string& key) {
  Request r;
  r.command = Command::kGet;
  r.key = key;
  Response resp = Call(r);
  if (resp.type != ResponseType::kValue) return std::nullopt;
  return CacheItem{std::move(resp.data), resp.flags, resp.cas_unique};
}

std::optional<CacheItem> RemoteCacheClient::Gets(const std::string& key) {
  Request r;
  r.command = Command::kGets;
  r.key = key;
  Response resp = Call(r);
  if (resp.type != ResponseType::kValue) return std::nullopt;
  return CacheItem{std::move(resp.data), resp.flags, resp.cas_unique};
}

std::vector<std::optional<CacheItem>> RemoteCacheClient::MultiGet(
    const std::vector<std::string>& keys, bool with_cas) {
  std::vector<std::optional<CacheItem>> out(keys.size());
  if (keys.empty()) return out;
  Request r;
  r.command = with_cas ? Command::kGets : Command::kGet;
  r.key = keys.front();
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

namespace {

StoreResult ToStoreResult(const Response& resp) {
  switch (resp.type) {
    case ResponseType::kStored: return StoreResult::kStored;
    case ResponseType::kExists: return StoreResult::kExists;
    case ResponseType::kNotFound: return StoreResult::kNotFound;
    case ResponseType::kTransportError: return StoreResult::kTransportError;
    default: return StoreResult::kNotStored;
  }
}

// The write-session verbs, each as a request builder plus a reply reader,
// shared by the per-key calls and the batched ones.

Request QaReadRequest(std::string_view key, SessionId session) {
  Request r;
  r.command = Command::kQaRead;
  r.key = key;
  r.session = session;
  return r;
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

Request QaRegRequest(SessionId tid, std::string_view key) {
  Request r;
  r.command = Command::kQaReg;
  r.session = tid;
  r.key = key;
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

/// QaReg and the IQ deltas: kGranted only on an explicit GRANTED.
QuarantineResult ToQuarantineResult(const Response& resp) {
  switch (resp.type) {
    case ResponseType::kGranted: return QuarantineResult::kGranted;
    case ResponseType::kReject: return QuarantineResult::kReject;
    default: return QuarantineResult::kTransportError;
  }
}

Request SaRRequest(std::string_view key, std::optional<std::string_view> value,
                   LeaseToken token) {
  Request r;
  r.command = value ? Command::kSaR : Command::kSaRNull;
  r.key = key;
  if (value) r.data = *value;
  r.token = token;
  return r;
}

Request SessionRequest(Command command, SessionId tid) {
  Request r;
  r.command = command;
  r.session = tid;
  return r;
}

}  // namespace

StoreResult RemoteCacheClient::Set(const std::string& key,
                                   const std::string& value,
                                   std::uint32_t flags, std::int64_t exptime) {
  Request r;
  r.command = Command::kSet;
  r.key = key;
  r.data = value;
  r.flags = flags;
  r.exptime = exptime;
  return ToStoreResult(Call(r));
}

StoreResult RemoteCacheClient::Add(const std::string& key,
                                   const std::string& value) {
  Request r;
  r.command = Command::kAdd;
  r.key = key;
  r.data = value;
  return ToStoreResult(Call(r));
}

StoreResult RemoteCacheClient::Cas(const std::string& key,
                                   const std::string& value,
                                   std::uint64_t unique) {
  Request r;
  r.command = Command::kCas;
  r.key = key;
  r.data = value;
  r.cas_unique = unique;
  return ToStoreResult(Call(r));
}

bool RemoteCacheClient::Delete(const std::string& key) {
  Request r;
  r.command = Command::kDelete;
  r.key = key;
  return Call(r).type == ResponseType::kDeleted;
}

StoreResult RemoteCacheClient::Append(const std::string& key,
                                      const std::string& blob) {
  Request r;
  r.command = Command::kAppend;
  r.key = key;
  r.data = blob;
  return ToStoreResult(Call(r));
}

StoreResult RemoteCacheClient::Prepend(const std::string& key,
                                       const std::string& blob) {
  Request r;
  r.command = Command::kPrepend;
  r.key = key;
  r.data = blob;
  return ToStoreResult(Call(r));
}

std::optional<std::uint64_t> RemoteCacheClient::Incr(const std::string& key,
                                                     std::uint64_t amount) {
  Request r;
  r.command = Command::kIncr;
  r.key = key;
  r.amount = amount;
  Response resp = Call(r);
  if (resp.type != ResponseType::kNumber) return std::nullopt;
  return resp.number;
}

std::optional<std::uint64_t> RemoteCacheClient::Decr(const std::string& key,
                                                     std::uint64_t amount) {
  Request r;
  r.command = Command::kDecr;
  r.key = key;
  r.amount = amount;
  Response resp = Call(r);
  if (resp.type != ResponseType::kNumber) return std::nullopt;
  return resp.number;
}

void RemoteCacheClient::FlushAll() {
  Request r;
  r.command = Command::kFlushAll;
  Call(r);
}

std::string RemoteCacheClient::Stats() {
  Request r;
  r.command = Command::kStats;
  return Call(r).message;
}

std::optional<std::uint64_t> RemoteCacheClient::Sweep() {
  Request r;
  r.command = Command::kSweep;
  Response resp = Call(r);
  if (resp.type != ResponseType::kNumber) return std::nullopt;
  return resp.number;
}

std::optional<std::string> RemoteCacheClient::Metrics() {
  Request r;
  r.command = Command::kMetrics;
  Response resp = Call(r);
  if (resp.type != ResponseType::kMetrics) return std::nullopt;
  return std::move(resp.data);
}

std::optional<std::vector<TraceEvent>> RemoteCacheClient::Trace(
    std::uint64_t max_events) {
  Request r;
  r.command = Command::kTrace;
  r.amount = max_events;
  Response resp = Call(r);
  // An empty trace serializes as a bare END and parses as kEnd.
  if (resp.type == ResponseType::kEnd) return std::vector<TraceEvent>{};
  if (resp.type != ResponseType::kTrace) return std::nullopt;
  std::vector<TraceEvent> events;
  if (!ParseTraceEvents(resp.message, &events)) return std::nullopt;
  return events;
}

std::optional<RemoteCacheClient::TraceDrain> RemoteCacheClient::TraceWithInfo(
    std::uint64_t max_events) {
  Request r;
  r.command = Command::kTrace;
  r.amount = max_events;
  Response resp = Call(r);
  TraceDrain drain;
  // A headerless empty trace (pre-TRACE_INFO server) is a bare END.
  if (resp.type == ResponseType::kEnd) return drain;
  if (resp.type != ResponseType::kTrace) return std::nullopt;
  if (!ParseTraceEvents(resp.message, &drain.events, &drain.info,
                        &drain.has_info)) {
    return std::nullopt;
  }
  return drain;
}

GetReply RemoteCacheClient::IQget(const std::string& key, SessionId session) {
  Request r;
  r.command = Command::kIQGet;
  r.key = key;
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

StoreResult RemoteCacheClient::IQset(const std::string& key,
                                     const std::string& value,
                                     LeaseToken token) {
  Request r;
  r.command = Command::kIQSet;
  r.key = key;
  r.data = value;
  r.token = token;
  return ToStoreResult(Call(r));
}

QaReadReply RemoteCacheClient::QaRead(const std::string& key,
                                      SessionId session) {
  return ToQaReadReply(Call(QaReadRequest(key, session)));
}

StoreResult RemoteCacheClient::SaR(const std::string& key,
                                   const std::optional<std::string>& value,
                                   LeaseToken token) {
  return ToStoreResult(Call(SaRRequest(
      key, value ? std::optional<std::string_view>(*value) : std::nullopt,
      token)));
}

SessionId RemoteCacheClient::GenID() {
  Request r;
  r.command = Command::kGenId;
  Response resp = Call(r);
  return resp.type == ResponseType::kId ? resp.number : 0;
}

QuarantineResult RemoteCacheClient::QaReg(SessionId tid,
                                          const std::string& key) {
  return ToQuarantineResult(Call(QaRegRequest(tid, key)));
}

bool RemoteCacheClient::DaR(SessionId tid) {
  return Call(SessionRequest(Command::kDaR, tid)).type == ResponseType::kOk;
}

QuarantineResult RemoteCacheClient::IQDelta(SessionId tid,
                                            const std::string& key,
                                            DeltaOp delta) {
  return ToQuarantineResult(Call(DeltaRequest(tid, key, std::move(delta))));
}

bool RemoteCacheClient::Commit(SessionId tid) {
  return Call(SessionRequest(Command::kCommit, tid)).type == ResponseType::kOk;
}

bool RemoteCacheClient::Abort(SessionId tid) {
  return Call(SessionRequest(Command::kAbort, tid)).type == ResponseType::kOk;
}

bool RemoteCacheClient::Release(SessionId tid, const std::string& key) {
  Request r;
  r.command = Command::kRelease;
  r.session = tid;
  r.key = key;
  return Call(r).type == ResponseType::kOk;
}

std::vector<Response> RemoteCacheClient::CallBatch(
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

std::vector<LeaseReply> RemoteCacheClient::Acquire(
    SessionId tid, const std::vector<LeaseRequest>& requests) {
  std::vector<Request> wire;
  wire.reserve(requests.size());
  for (const LeaseRequest& r : requests) {
    switch (r.kind) {
      case LeaseRequest::Kind::kQaRead:
        wire.push_back(QaReadRequest(r.key, tid));
        break;
      case LeaseRequest::Kind::kQaReg:
        wire.push_back(QaRegRequest(tid, r.key));
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

std::vector<StoreResult> RemoteCacheClient::CommitSwaps(
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

}  // namespace iq::net
