#include "net/remote_backend.h"

#include <charconv>

namespace iq::net {
namespace {

// Request builders, one per wire shape, each a view of the caller's
// arguments, plus the reply readers the per-key and batched verbs share.

RequestView KeyRequest(Command command, std::string_view key = {}) {
  RequestView r;
  r.command = command;
  r.key = key;
  return r;
}

RequestView DataRequest(Command command, std::string_view key,
                        std::string_view data) {
  RequestView r = KeyRequest(command, key);
  r.data = data;
  return r;
}

RequestView SessionRequest(Command command, SessionId tid,
                           std::string_view key = {}) {
  RequestView r = KeyRequest(command, key);
  r.session = tid;
  return r;
}

RequestView DeltaRequest(SessionId tid, std::string_view key,
                         const DeltaOp& delta) {
  RequestView r = SessionRequest(Command::kIQIncr, tid, key);
  switch (delta.kind) {
    case DeltaOp::Kind::kAppend:
      r.command = Command::kIQAppend;
      r.data = delta.blob;
      break;
    case DeltaOp::Kind::kPrepend:
      r.command = Command::kIQPrepend;
      r.data = delta.blob;
      break;
    case DeltaOp::Kind::kIncr:
      r.amount = delta.amount;
      break;
    case DeltaOp::Kind::kDecr:
      r.command = Command::kIQDecr;
      r.amount = delta.amount;
      break;
  }
  return r;
}

RequestView SaRRequest(std::string_view key,
                       std::optional<std::string_view> value,
                       LeaseToken token) {
  RequestView r = value ? DataRequest(Command::kSaR, key, *value)
                        : KeyRequest(Command::kSaRNull, key);
  r.token = token;
  return r;
}

StoreResult ToStoreResult(const ResponseView& resp) {
  switch (resp.type) {
    case ResponseType::kStored: return StoreResult::kStored;
    case ResponseType::kExists: return StoreResult::kExists;
    case ResponseType::kNotFound: return StoreResult::kNotFound;
    case ResponseType::kTransportError: return StoreResult::kTransportError;
    default: return StoreResult::kNotStored;
  }
}

QaReadReply ToQaReadReply(const ResponseView& resp) {
  switch (resp.type) {
    case ResponseType::kQValue:
      return {QaReadReply::Status::kGranted, std::string(resp.data),
              resp.number};
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
QuarantineResult ToQuarantineResult(const ResponseView& resp) {
  switch (resp.type) {
    case ResponseType::kGranted: return QuarantineResult::kGranted;
    case ResponseType::kReject: return QuarantineResult::kReject;
    default: return QuarantineResult::kTransportError;
  }
}

std::optional<std::uint64_t> ToNumber(const ResponseView& resp) {
  if (resp.type != ResponseType::kNumber) return std::nullopt;
  return resp.number;
}

/// The void verbs send and forget.
void Ignore(const ResponseView&) {}

}  // namespace

template <typename Read>
auto RemoteBackend::Call(const RequestView& request, Read&& read) {
  std::lock_guard lock(mu_);
  request_.clear();
  if (!AppendTo(request, &request_)) return read(ResponseView{});
  return read(Exchange());
}

ResponseView RemoteBackend::Exchange() {
  ResponseView response;
  // A short or unreadable reply means the stream is desynced; the caller
  // cannot trust anything further on this connection. Treat it as a
  // transport failure, not as a server-refused command.
  if (!channel_.RoundTrip(request_, &reply_) ||
      ReadResponse(reply_, &response, &batch_) == 0) {
    return ResponseView{};
  }
  return response;
}

template <typename OnReply>
void RemoteBackend::CallBatch(OnReply&& on_reply) {
  for (const RequestView& r : frame_) {
    if (!CanCarry(r)) {
      on_reply(0, ResponseView{});
      return;
    }
  }
  std::size_t next = 0;
  while (next < frame_.size()) {
    // Fill one frame up to the server's caps (the 32 bytes cover the frame
    // header, put in front once the count is known); a lone request
    // travels as itself.
    request_.clear();
    std::size_t n = 0;
    for (; next + n < frame_.size() && n < kMaxBatchRequests; ++n) {
      const std::size_t mark = request_.size();
      AppendTo(frame_[next + n], &request_);
      if (n > 0 && 32 + request_.size() > kMaxRequestBytes) {
        request_.resize(mark);
        break;
      }
    }
    if (n > 1) {
      char header[32] = "batch ";
      char* end = std::to_chars(header + 6, header + 28, n).ptr;
      *end++ = '\r';
      *end++ = '\n';
      request_.insert(0, header, static_cast<std::size_t>(end - header));
    }
    ResponseView resp = Exchange();
    ResponseType last;
    if (n == 1) {
      on_reply(next++, resp);
      last = resp.type;
    } else if (resp.type == ResponseType::kBatch && !batch_.empty() &&
               batch_.size() <= n) {
      // A reply cut short by the server's reply budget leaves the rest for
      // the next frame; one cut short by a REJECT ends the call below.
      for (const ResponseView& inner : batch_) on_reply(next++, inner);
      last = batch_.back().type;
    } else {
      // A failed round trip, or a reply that is not this frame's: what the
      // server executed is unknown, exactly as for a per-key transport
      // error.
      on_reply(next, ResponseView{});
      return;
    }
    if (last == ResponseType::kReject ||
        last == ResponseType::kTransportError) {
      return;
    }
  }
}

// ---- the IQ command set ------------------------------------------------------

SessionId RemoteBackend::GenID() {
  return Call(KeyRequest(Command::kGenId), [](const ResponseView& resp) {
    return resp.type == ResponseType::kId ? resp.number : 0;
  });
}

GetReply RemoteBackend::IQget(std::string_view key, SessionId session) {
  return Call(SessionRequest(Command::kIQGet, session, key),
              [](const ResponseView& resp) -> GetReply {
    switch (resp.type) {
      case ResponseType::kValue:
        // The ttl token, if any, is a duration relative to receipt: the
        // caller anchors it to its own clock the moment it stores the entry.
        return {GetReply::Status::kHit, std::string(resp.data), 0,
                static_cast<Nanos>(resp.ttl_ns)};
      case ResponseType::kMissToken:
        return {GetReply::Status::kMissGrantedI, {}, resp.number};
      case ResponseType::kMissNoLease:
        return {GetReply::Status::kMissNoLease, {}, 0};
      case ResponseType::kMissBackoff:
        return {GetReply::Status::kMissBackoff, {}, 0};
      default:
        // Transport failure (or a refused/garbled command): report the
        // outage rather than kMissBackoff, which would make the session
        // spin its full retry budget against a dead server.
        return {GetReply::Status::kTransportError, {}, 0};
    }
  });
}

StoreResult RemoteBackend::IQset(std::string_view key, std::string_view value,
                                 LeaseToken token) {
  RequestView r = DataRequest(Command::kIQSet, key, value);
  r.token = token;
  return Call(r, ToStoreResult);
}

QaReadReply RemoteBackend::QaRead(std::string_view key, SessionId session) {
  return Call(SessionRequest(Command::kQaRead, session, key), ToQaReadReply);
}

StoreResult RemoteBackend::SaR(std::string_view key,
                               std::optional<std::string_view> v_new,
                               LeaseToken token) {
  return Call(SaRRequest(key, v_new, token), ToStoreResult);
}

QuarantineResult RemoteBackend::QaReg(SessionId tid, std::string_view key) {
  return Call(SessionRequest(Command::kQaReg, tid, key), ToQuarantineResult);
}

void RemoteBackend::DaR(SessionId tid) {
  Call(SessionRequest(Command::kDaR, tid), Ignore);
}

QuarantineResult RemoteBackend::IQDelta(SessionId tid, std::string_view key,
                                        DeltaOp delta) {
  return Call(DeltaRequest(tid, key, delta), ToQuarantineResult);
}

void RemoteBackend::Commit(SessionId tid) {
  Call(SessionRequest(Command::kCommit, tid), Ignore);
}

void RemoteBackend::Abort(SessionId tid) {
  Call(SessionRequest(Command::kAbort, tid), Ignore);
}

void RemoteBackend::ReleaseKey(SessionId tid, std::string_view key) {
  Call(SessionRequest(Command::kRelease, tid, key), Ignore);
}

std::vector<LeaseReply> RemoteBackend::Acquire(
    SessionId tid, const std::vector<LeaseRequest>& requests) {
  std::vector<LeaseReply> replies(requests.size());
  std::lock_guard lock(mu_);
  frame_.clear();
  for (const LeaseRequest& r : requests) {
    switch (r.kind) {
      case LeaseRequest::Kind::kQaRead:
        frame_.push_back(SessionRequest(Command::kQaRead, tid, r.key));
        break;
      case LeaseRequest::Kind::kQaReg:
        frame_.push_back(SessionRequest(Command::kQaReg, tid, r.key));
        break;
      case LeaseRequest::Kind::kDelta:
        frame_.push_back(DeltaRequest(tid, r.key, r.delta));
        break;
    }
  }
  CallBatch([&](std::size_t i, const ResponseView& resp) {
    replies[i] = requests[i].kind == LeaseRequest::Kind::kQaRead
                     ? ToLeaseReply(ToQaReadReply(resp))
                     : ToLeaseReply(ToQuarantineResult(resp));
  });
  return replies;
}

std::vector<StoreResult> RemoteBackend::CommitSwaps(
    SessionId tid, const std::vector<Swap>& swaps) {
  std::vector<StoreResult> results(swaps.size(), StoreResult::kTransportError);
  std::lock_guard lock(mu_);
  frame_.clear();
  for (const Swap& s : swaps) frame_.push_back(SaRRequest(s.key, s.value, s.token));
  frame_.push_back(SessionRequest(Command::kCommit, tid));
  // The commit's own OK is not reported, as for Commit().
  CallBatch([&](std::size_t i, const ResponseView& resp) {
    if (i < results.size()) results[i] = ToStoreResult(resp);
  });
  return results;
}

// ---- plain memcached operations ------------------------------------------------

std::optional<CacheItem> RemoteBackend::Get(std::string_view key) {
  return Call(KeyRequest(Command::kGets, key),
              [](const ResponseView& resp) -> std::optional<CacheItem> {
    if (resp.type != ResponseType::kValue) return std::nullopt;
    return CacheItem{std::string(resp.data), resp.flags, resp.cas_unique};
  });
}

StoreResult RemoteBackend::Set(std::string_view key, std::string_view value) {
  return Call(DataRequest(Command::kSet, key, value), ToStoreResult);
}

StoreResult RemoteBackend::Add(std::string_view key, std::string_view value) {
  return Call(DataRequest(Command::kAdd, key, value), ToStoreResult);
}

StoreResult RemoteBackend::Cas(std::string_view key, std::string_view value,
                               std::uint64_t cas) {
  RequestView r = DataRequest(Command::kCas, key, value);
  r.cas_unique = cas;
  return Call(r, ToStoreResult);
}

StoreResult RemoteBackend::Append(std::string_view key, std::string_view blob) {
  return Call(DataRequest(Command::kAppend, key, blob), ToStoreResult);
}

StoreResult RemoteBackend::Prepend(std::string_view key,
                                   std::string_view blob) {
  return Call(DataRequest(Command::kPrepend, key, blob), ToStoreResult);
}

std::optional<std::uint64_t> RemoteBackend::Incr(std::string_view key,
                                                 std::uint64_t amount) {
  RequestView r = KeyRequest(Command::kIncr, key);
  r.amount = amount;
  return Call(r, ToNumber);
}

std::optional<std::uint64_t> RemoteBackend::Decr(std::string_view key,
                                                 std::uint64_t amount) {
  RequestView r = KeyRequest(Command::kDecr, key);
  r.amount = amount;
  return Call(r, ToNumber);
}

bool RemoteBackend::DeleteVoid(std::string_view key) {
  return Call(KeyRequest(Command::kDelete, key), [](const ResponseView& resp) {
    return resp.type == ResponseType::kDeleted;
  });
}

// ---- wire-only verbs -------------------------------------------------------------

std::vector<std::optional<CacheItem>> RemoteBackend::MultiGet(
    const std::vector<std::string>& keys, bool with_cas) {
  std::vector<std::optional<CacheItem>> out(keys.size());
  if (keys.empty()) return out;
  const std::vector<std::string_view> views(keys.begin(), keys.end());
  RequestView r = KeyRequest(with_cas ? Command::kGets : Command::kGet, keys[0]);
  r.keys = views;
  Call(r, [&](const ResponseView& resp) {
    if (resp.type != ResponseType::kValue) return;
    // The server omits misses, so match returned VALUE blocks back to the
    // requested keys (duplicates each consume one block, in order).
    // Caveat, inherent to memcached get semantics: the server looks keys up
    // one at a time, so with duplicate keys in one request a concurrent
    // write can make the copies disagree (e.g. only the second copy hits),
    // and sequence matching then attributes the hit to the first copy.
    // Positions still only ever receive a value stored under their own
    // key; dedupe keys before calling if per-position exactness across
    // duplicates matters.
    std::string_view blocks = resp.values;
    ValueView v;
    bool more = NextValue(&blocks, &v);
    for (std::size_t i = 0; i < keys.size() && more; ++i) {
      if (v.key != keys[i]) continue;
      out[i] = CacheItem{std::string(v.data), v.flags, v.cas_unique};
      more = NextValue(&blocks, &v);
    }
  });
  return out;
}

void RemoteBackend::FlushAll() { Call(KeyRequest(Command::kFlushAll), Ignore); }

std::string RemoteBackend::Stats() {
  return Call(KeyRequest(Command::kStats), [](const ResponseView& resp) {
    return std::string(resp.message);
  });
}

std::optional<std::uint64_t> RemoteBackend::Sweep() {
  return Call(KeyRequest(Command::kSweep), ToNumber);
}

std::optional<std::string> RemoteBackend::Metrics() {
  return Call(KeyRequest(Command::kMetrics),
              [](const ResponseView& resp) -> std::optional<std::string> {
    if (resp.type != ResponseType::kMetrics) return std::nullopt;
    return std::string(resp.data);
  });
}

std::optional<RemoteBackend::TraceDrain> RemoteBackend::Trace(
    std::uint64_t max_events) {
  RequestView r = KeyRequest(Command::kTrace);
  r.amount = max_events;
  return Call(r, [](const ResponseView& resp) -> std::optional<TraceDrain> {
    TraceDrain drain;
    // An empty trace from a pre-TRACE_INFO server is a bare END.
    if (resp.type == ResponseType::kEnd) return drain;
    if (resp.type != ResponseType::kTrace) return std::nullopt;
    if (!ParseTraceEvents(resp.message, &drain.events, &drain.info,
                          &drain.has_info)) {
      return std::nullopt;
    }
    return drain;
  });
}

}  // namespace iq::net
