// The memcached text protocol, extended with the IQ commands of Section 5.
//
// Standard commands (memcached 1.4 text protocol subset):
//   get <key> [<key> ...]\r\n                        (multi-key: one round trip)
//   gets <key> [<key> ...]\r\n                       (returns cas unique)
//   set|add|replace <key> <flags> <exptime> <bytes>\r\n<data>\r\n
//   cas <key> <flags> <exptime> <bytes> <unique>\r\n<data>\r\n
//   append|prepend <key> <flags> <exptime> <bytes>\r\n<data>\r\n
//   delete <key>\r\n
//   incr|decr <key> <amount>\r\n
//   flush_all\r\n
//   stats\r\n
//   quit\r\n
//
// IQ extensions (one line each; tokens are decimal):
//   iqget <key> <session>\r\n
//     -> VALUE ... | MISS_TOKEN <token> | MISS_BACKOFF | MISS_NOLEASE
//     (a hit's VALUE line may carry a trailing T<ttl_ns> token: a near-cache
//      validity interval. Always a DURATION relative to receipt, never an
//      absolute deadline — client and server clocks are not comparable over
//      TCP. Old parsers skip the non-numeric token harmlessly.)
//   iqset <key> <token> <bytes>\r\n<data>\r\n  -> STORED | NOT_STORED
//   qaread <key> <session>\r\n
//     -> QVALUE <token> ...data block... | QMISS <token> | REJECT
//   sar <key> <token> <bytes>\r\n<data>\r\n    -> STORED | NOT_FOUND
//   sarnull <key> <token>\r\n                  -> STORED | NOT_FOUND
//   genid\r\n                                  -> ID <session>
//   qareg <tid> <key>\r\n                      -> GRANTED
//   dar <tid>\r\n                              -> OK
//   iqappend|iqprepend <tid> <key> <bytes>\r\n<data>\r\n -> GRANTED | REJECT
//   iqincr|iqdecr <tid> <key> <amount>\r\n     -> GRANTED | REJECT
//   commit <tid>\r\n                           -> OK
//   abort <tid>\r\n                            -> OK
//   release <tid> <key>\r\n                    -> OK
//     (drop the session's lease on one key; buffered deltas/quarantines on
//      other keys survive — unlike abort)
//   sweep\r\n                                  -> <number of leases expired>
//     (force one pass over the lease table, expiring overdue leases — the
//      same reclamation a periodic server-side sweep thread performs)
//   metrics\r\n                                -> METRICS <bytes>\r\n<data>\r\n
//     (Prometheus exposition text: one "iq_<name> <value>" sample per
//      numeric `stats` line, all lifetime totals; see net/server.h)
//   trace [<n>]\r\n            -> TRACE_INFO + TRACE lines + END\r\n
//     (a "TRACE_INFO <recorded> <dropped> <capacity>" completeness header —
//      dropped != 0 means the rings wrapped and the history is incomplete —
//      then the newest n (default 128) lease-trace events, one
//      "TRACE <seq> <at> <shard> <kind> <session> <key_hash>" line each;
//      see util/trace_ring.h)
//   batch <n>\r\n<request 1>...<request n>  -> BATCH <m>\r\n<response 1>...<response m>
//     (a write session's lease verbs in one round trip: 1 <= n <=
//      kMaxBatchRequests ordinary qaread | qareg | iqincr | iqdecr |
//      iqappend | iqprepend | sar | sarnull | commit | dar requests,
//      executed in order. Execution stops after the first REJECT, or once
//      the replies' data outgrows the server's reply budget, so m <= n; a
//      client sends the requests after a short reply that does not end in
//      REJECT in its next frame. The frame is one request and its reply
//      one response. A count above the cap, or an inner request that is
//      malformed or of any other verb, fails the whole frame: nothing
//      executes and the frame draws one CLIENT_ERROR. See DESIGN.md §4.11.)
//
// The parser is incremental: feed bytes, take complete requests. Both
// directions are read in place (RequestView, ResponseView) and written
// straight into a caller's reused buffer; the owning Request and Response
// are adapters over those views.
//
// The grammar above is the reader's spec; the code holds it once per
// direction, as the kVerbs and kReplies tables in protocol.cpp, which the
// parsers, the writers, CanCarry, ToString and IsBatchable all read.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace iq::net {

/// Upper bound on the <bytes> field of any data block, request or response.
/// Without a cap a remote peer can claim a length near SIZE_MAX and make the
/// terminator arithmetic (`eol + 2 + bytes + 2`) wrap, landing the computed
/// data block back on top of the command line — the request is then accepted
/// and the bytes meant as its payload are re-executed as commands (protocol
/// desync). Oversized claims draw kError / are never treated as complete.
constexpr std::size_t kMaxPayloadBytes = 8u << 20;

/// Upper bound on one buffered request — a whole `batch` frame included — a
/// server accepts: one command line plus a maximum payload and its CRLF fit
/// under it, with room to spare. A connection whose incomplete request
/// outgrows it is answered CLIENT_ERROR and closed; clients split a `batch`
/// frame that would exceed it into several.
constexpr std::size_t kMaxRequestBytes = kMaxPayloadBytes + (64u << 10);

/// Upper bound on the requests one `batch` frame carries. A frame is parsed
/// whole before it runs, so the cap bounds the requests and replies one
/// frame holds in memory; clients split a longer batch into several frames.
constexpr std::size_t kMaxBatchRequests = 1024;

enum class Command {
  kGet,
  kGets,
  kSet,
  kAdd,
  kReplace,
  kCas,
  kAppend,
  kPrepend,
  kDelete,
  kIncr,
  kDecr,
  kFlushAll,
  kStats,
  kQuit,
  // IQ extensions
  kIQGet,
  kIQSet,
  kQaRead,
  kSaR,
  kSaRNull,
  kGenId,
  kQaReg,
  kDaR,
  kIQAppend,
  kIQPrepend,
  kIQIncr,
  kIQDecr,
  kCommit,
  kAbort,
  kRelease,
  kSweep,
  kMetrics,
  kTrace,
  kBatch,
};

const char* ToString(Command c);

/// True for the verbs a `batch` frame may carry (see the grammar above).
bool IsBatchable(Command c);

/// One request read in place: the key, keys, data and inner requests are
/// views into the bytes it was read from (RequestParser's buffer, or the
/// caller's strings for a request being written).
struct RequestView {
  Command command = Command::kQuit;
  std::string_view key;
  std::span<const std::string_view> keys;  // multi-key get/gets; key == keys[0]
  std::string_view data;       // payload of storage commands
  std::uint32_t flags = 0;
  std::int64_t exptime = 0;    // seconds, memcached-style
  std::uint64_t cas_unique = 0;
  std::uint64_t amount = 0;    // incr/decr; trace count; batch header count
  std::uint64_t token = 0;     // IQ lease token
  std::uint64_t session = 0;   // IQ session / tid
  std::span<const RequestView> batch;  // kBatch: the framed requests, in order
};

/// One parsed request that owns its bytes: an adapter over RequestView for
/// tests and tools that keep requests around.
struct Request {
  Command command;
  std::string key;
  std::vector<std::string> keys;  // multi-key get/gets; key == keys[0] then
  std::string data;            // payload of storage commands
  std::uint32_t flags = 0;
  std::int64_t exptime = 0;    // seconds, memcached-style
  std::uint64_t cas_unique = 0;
  std::uint64_t amount = 0;    // incr/decr
  std::uint64_t token = 0;     // IQ lease token
  std::uint64_t session = 0;   // IQ session / tid
  std::vector<Request> batch;  // kBatch: the framed requests, in order
};

/// A RequestView of `request`. *keys and *batch hold what its key list and
/// frame point at (they may be null for a request that has neither).
RequestView ViewOf(const Request& request, std::vector<std::string_view>* keys,
                   std::vector<RequestView>* batch);

/// Incremental request parser. Tolerates requests split across arbitrary
/// Feed() boundaries (as TCP would deliver them).
///
/// Lifetime rule: the views of a request Next() yields point into this
/// parser's buffer and stay valid until the next Feed() or Next(), which
/// may compact or reallocate it. A `batch` frame still arriving keeps its
/// inner requests as offsets, and becomes views only once it is whole.
class RequestParser {
 public:
  /// Append raw bytes to the internal buffer.
  void Feed(std::string_view bytes) {
    Compact();
    buffer_.append(bytes);
  }

  /// Result of attempting to take one request.
  enum class Status {
    kOk,         // *out filled
    kNeedMore,   // incomplete request buffered
    kError,      // malformed input; message in *error
  };

  Status Next(RequestView* out, std::string* error);
  /// Next() copied into an owning Request.
  Status Next(Request* out, std::string* error);

  /// Bytes buffered but not yet consumed by Next().
  std::size_t buffered() const { return buffer_.size() - pos_; }

 private:
  friend std::size_t CountRequests(std::string_view bytes);

  /// Drop the consumed prefix: a clear once everything is consumed, else
  /// one memmove of the unconsumed tail once the prefix exceeds half the
  /// buffer, so a stream of small pipelined requests costs O(bytes) total.
  /// Never while a frame is open: its offsets are absolute.
  void Compact();

  /// The request at pos_ in `buf` (this parser's buffer, or the bytes
  /// CountRequests scans in place), resuming an open frame; a request it
  /// takes moves pos_ past it. `keep` = false only counts: the views of a
  /// get's keys and a frame's requests are not kept.
  Status Scan(std::string_view buf, RequestView* out, std::string* error,
              bool keep);

  /// A byte range of the buffer: a frame's inner key or data while the
  /// frame is open and the buffer may still move.
  struct Slice {
    std::size_t at = 0;
    std::size_t size = 0;
  };
  struct Pending {
    RequestView request;  // key and data empty until the frame completes
    Slice key;
    Slice data;
  };

  std::string buffer_;
  std::size_t pos_ = 0;  // start of unconsumed bytes within buffer_
  /// The `batch` frame at pos_, while its requests are still arriving. pos_
  /// stays on its header until the frame completes.
  struct Frame {
    bool open = false;
    std::uint64_t count = 0;    // inner requests the header announced
    std::uint64_t scanned = 0;  // inner requests parsed or skipped so far
    std::size_t cursor = 0;     // offset of the next inner request
    std::string error;          // first failure ("" = none yet)
  } frame_;
  std::vector<Pending> pending_;          // the open frame's requests
  std::vector<RequestView> batch_;        // the last frame's requests
  std::vector<std::string_view> keys_;    // the last get's keys
};

/// The responses a server sends for `bytes`: one per complete request,
/// malformed ones and failed frames included, and none for `quit` or for
/// an incomplete trailing request. TcpChannel::RoundTrip waits for this
/// many. Scans `bytes` in place with RequestParser's own engine.
std::size_t CountRequests(std::string_view bytes);

/// True when every key of `request` (and of its frame's requests) can
/// travel in the text protocol: non-empty, with no ' ', '\r' or '\n'.
bool CanCarry(const RequestView& request);

/// Append the wire form of `request` to *out: the one request writer. A
/// request with a key CanCarry refuses appends nothing and returns false.
bool AppendTo(const RequestView& request, std::string* out);

/// The owning forms, over the views: false / "" for a refused key.
bool AppendTo(const Request& request, std::string* out);
std::string Serialize(const Request& request);

// ---- responses ----------------------------------------------------------------

enum class ResponseType {
  kValue,        // (VALUE <key> <flags> <bytes> [<cas>] [T<ttl_ns>]\r\n<data>\r\n)+END\r\n
  kEnd,          // END (get miss)
  kStored,
  kNotStored,
  kExists,
  kNotFound,
  kDeleted,
  kNumber,       // incr/decr result
  kError,        // ERROR / CLIENT_ERROR <msg>
  kOk,
  kStats,        // STAT lines + END
  // IQ extensions
  kMissToken,    // MISS_TOKEN <token>
  kMissBackoff,  // MISS_BACKOFF
  kMissNoLease,  // MISS_NOLEASE
  kQValue,       // QVALUE <token> <bytes>\r\n<data>
  kQMiss,        // QMISS <token>
  kReject,       // REJECT
  kGranted,      // GRANTED
  kId,           // ID <session>
  // Observability
  kMetrics,      // METRICS <bytes>\r\n<data>\r\n (Prometheus text in data)
  kTrace,        // TRACE lines + END (raw lines in message)
  kBatch,        // BATCH <m>\r\n + m responses (in `batch`)
  // Failure signalling
  kTransportError,  // SERVER_ERROR <msg>. Synthesized client-side by
                    // RemoteBackend when the channel itself fails
                    // (dead connection, deadline, desync); distinct from
                    // kError (the server parsed the request and refused it)
                    // so sessions can tell outage from conflict.
};

/// One VALUE block of a (possibly multi-key) get/gets/iqget response, read
/// in place.
struct ValueView {
  std::string_view key;
  std::string_view data;
  std::uint32_t flags = 0;
  std::uint64_t cas_unique = 0;
  bool with_cas = false;       // the block carried a cas unique
  /// Near-cache validity duration in nanoseconds (iqget hits; 0 = none).
  std::uint64_t ttl_ns = 0;
};

/// One response read in place: its strings are views into the bytes it was
/// read from. A default view is the transport-error shape.
struct ResponseView {
  ResponseType type = ResponseType::kTransportError;
  // kValue: the first VALUE block's fields.
  std::string_view key;
  std::string_view data;       // also kQValue / kMetrics payload
  std::uint32_t flags = 0;
  std::uint64_t cas_unique = 0;
  bool with_cas = false;       // gets vs get
  std::uint64_t ttl_ns = 0;
  /// incr/decr result, token, session id, or (kBatch) the inner count.
  std::uint64_t number = 0;
  std::string_view message;    // error text / stats and trace lines
  /// kValue: every VALUE block, END excluded; NextValue walks them.
  std::string_view values;
};

/// Read one whole response at the front of `bytes` into *out. Returns the
/// bytes it spans, or 0 when `bytes` do not yet hold a complete response
/// (or never will: malformed). A kBatch reply's inner responses go to
/// *batch when it is not null; they are read, and so checked, either way.
/// Response frames never nest.
std::size_t ReadResponse(std::string_view bytes, ResponseView* out,
                         std::vector<ResponseView>* batch = nullptr);

/// Read the first VALUE block of *blocks (a kValue ResponseView's
/// `values`) into *out and drop it from *blocks. False once none is left.
bool NextValue(std::string_view* blocks, ValueView* out);

/// One VALUE block of a (possibly multi-key) get/gets response.
struct ValueEntry {
  std::string key;
  std::string data;
  std::uint32_t flags = 0;
  std::uint64_t cas_unique = 0;
  /// Near-cache validity duration in nanoseconds (iqget hits; 0 = none).
  std::uint64_t ttl_ns = 0;
};

/// One response that owns its bytes: an adapter over ResponseView for tests,
/// tools and the pipelined Drain().
struct Response {
  ResponseType type;
  std::string key;
  std::string data;
  std::uint32_t flags = 0;
  std::uint64_t cas_unique = 0;
  bool with_cas = false;       // gets vs get
  /// Near-cache validity duration granted with an iqget hit (nanoseconds,
  /// 0 = none), carried as a trailing T<ttl_ns> token on the VALUE line.
  std::uint64_t ttl_ns = 0;
  std::uint64_t number = 0;    // incr/decr result, token, or session id
  std::string message;         // error text / stats payload
  /// kValue responses with multiple hits (multi-key get) carry one entry
  /// per hit here; when non-empty it takes precedence over the single-value
  /// fields above for serialization, and ParseResponse mirrors entry 0 into
  /// them so single-key callers keep working unchanged.
  std::vector<ValueEntry> values;
  /// kBatch: one response per executed request of the frame, in order.
  std::vector<Response> batch;
};

/// Append one VALUE block (without the closing END) to *out.
void AppendValueBlock(const ValueView& value, std::string* out);

/// Append the wire form of `response` to *out: one VALUE block and END for
/// kValue, and only the `BATCH <number>` header line for kBatch, whose
/// inner responses the caller appends.
void AppendTo(const ResponseView& response, std::string* out);

/// Append the CLIENT_ERROR line a malformed request draws.
void AppendError(std::string_view message, std::string* out);

/// The owning forms, over the views.
void AppendTo(const Response& response, std::string* out);
std::string Serialize(const Response& response);

/// Parse exactly one response from `bytes` into an owning Response: an
/// adapter over ReadResponse. Returns nullopt when the buffer does not yet
/// hold a complete response; on success, *consumed is set to the bytes used.
std::optional<Response> ParseResponse(std::string_view bytes,
                                      std::size_t* consumed);

}  // namespace iq::net
