#include "net/protocol.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>
#include <span>
#include <utility>

namespace iq::net {
namespace {

/// All of `s` as one number, or nullopt.
template <typename T = std::uint64_t>
std::optional<T> ParseNumber(std::string_view s) {
  T v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size()) return std::nullopt;
  return v;
}

template <typename T>
void AppendNumber(std::string* out, T v) {
  char buf[21];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// memcached's flags are 32 bits wide: a larger value is malformed.
constexpr std::uint64_t kMaxFlags = std::numeric_limits<std::uint32_t>::max();

/// The space-separated tokens of one line. Only the first kMax are kept;
/// `count` counts them all, so an arity check sees every token.
struct Tokens {
  static constexpr std::size_t kMax = 6;  // widest fixed line: cas; VALUE
  std::string_view tok[kMax];
  std::size_t count = 0;
};

/// The tokens of `line`; every one of them also goes to *all, if given.
Tokens Tokenize(std::string_view line,
                std::vector<std::string_view>* all = nullptr) {
  Tokens t;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) {
      const std::string_view token = line.substr(start, i - start);
      if (t.count < Tokens::kMax) t.tok[t.count] = token;
      if (all != nullptr) all->push_back(token);
      ++t.count;
    }
  }
  return t;
}

/// Table rows keyed by (non-empty) name, built at compile time: open
/// addressing, probed linearly from a hash of the name's length and end
/// bytes. Every reply read looks its head up here; a std::unordered_map
/// made reading a VALUE reply about 20 ns slower.
template <typename Row>
class NameIndex {
 public:
  constexpr void Add(std::string_view name, const Row* row) {
    std::size_t i = Slot(name);
    while (rows_[i] != nullptr) i = (i + 1) % kSlots;
    names_[i] = name;
    rows_[i] = row;
  }

  constexpr const Row* Find(std::string_view name) const {
    for (std::size_t i = Slot(name); rows_[i] != nullptr;
         i = (i + 1) % kSlots) {
      if (names_[i] == name) return rows_[i];
    }
    return nullptr;
  }

 private:
  static constexpr std::size_t kSlots = 64;  // under half full: short probes
  static constexpr std::size_t Slot(std::string_view name) {
    return (name.size() * 31 + static_cast<unsigned char>(name.front()) * 7 +
            static_cast<unsigned char>(name.back())) %
           kSlots;
  }
  std::array<std::string_view, kSlots> names_{};
  std::array<const Row*, kSlots> rows_{};
};

/// True when rows[i] is the row of enum value i, for every value to `last`.
template <typename Row, std::size_t N, typename Enum>
constexpr bool OneRowPerValue(const Row (&rows)[N], Enum Row::*id, Enum last) {
  for (std::size_t i = 0; i < N; ++i) {
    if (rows[i].*id != static_cast<Enum>(i)) return false;
  }
  return N == static_cast<std::size_t>(last) + 1;
}

// ---- the request grammar ----------------------------------------------------

/// One field of a request line. A verb's row lists its fields in wire order.
enum class Field : std::uint8_t {
  kNone,     // past the row's last field
  kKey,      // <key>
  kKeys,     // <key> [<key> ...]: writes `keys` when set, else `key`
  kFlags,    // <flags>, at most UINT32_MAX
  kExptime,  // <exptime>, signed seconds
  kBytes,    // <bytes>: the data block that follows the line
  kCas,      // <cas unique>
  kAmount,   // <amount>
  kToken,    // <token>
  kSession,  // <session> or <tid>
  kCount,    // [<n>] into `amount`: optional, written only when non-zero
  kFrame,    // <n> > 0 into `amount`, then n requests; writes batch.size()
};
using enum Field;

/// The name a malformed field's CLIENT_ERROR gives it.
constexpr std::string_view kFieldNames[] = {
    "argument count", "key",   "keys",       "flags",   "exptime",
    "bytes",          "cas",   "amount",     "token",   "session id",
    "count",          "request count"};
static_assert(std::size(kFieldNames) == static_cast<std::size_t>(kFrame) + 1);

/// One verb: its name, its line's fields in wire order, and whether a
/// `batch` frame may carry it.
struct Verb {
  Command command;
  std::string_view name;
  std::array<Field, 5> fields;  // the widest line: cas
  bool batchable = false;
};

constexpr bool kBatchable = true;

/// The request grammar: one row per Command, in enum order.
constexpr Verb kVerbs[] = {
    {Command::kGet, "get", {kKeys}},
    {Command::kGets, "gets", {kKeys}},
    {Command::kSet, "set", {kKey, kFlags, kExptime, kBytes}},
    {Command::kAdd, "add", {kKey, kFlags, kExptime, kBytes}},
    {Command::kReplace, "replace", {kKey, kFlags, kExptime, kBytes}},
    {Command::kCas, "cas", {kKey, kFlags, kExptime, kBytes, kCas}},
    {Command::kAppend, "append", {kKey, kFlags, kExptime, kBytes}},
    {Command::kPrepend, "prepend", {kKey, kFlags, kExptime, kBytes}},
    {Command::kDelete, "delete", {kKey}},
    {Command::kIncr, "incr", {kKey, kAmount}},
    {Command::kDecr, "decr", {kKey, kAmount}},
    {Command::kFlushAll, "flush_all", {}},
    {Command::kStats, "stats", {}},
    {Command::kQuit, "quit", {}},
    {Command::kIQGet, "iqget", {kKey, kSession}},
    {Command::kIQSet, "iqset", {kKey, kToken, kBytes}},
    {Command::kQaRead, "qaread", {kKey, kSession}, kBatchable},
    {Command::kSaR, "sar", {kKey, kToken, kBytes}, kBatchable},
    {Command::kSaRNull, "sarnull", {kKey, kToken}, kBatchable},
    {Command::kGenId, "genid", {}},
    {Command::kQaReg, "qareg", {kSession, kKey}, kBatchable},
    {Command::kDaR, "dar", {kSession}, kBatchable},
    {Command::kIQAppend, "iqappend", {kSession, kKey, kBytes}, kBatchable},
    {Command::kIQPrepend, "iqprepend", {kSession, kKey, kBytes}, kBatchable},
    {Command::kIQIncr, "iqincr", {kSession, kKey, kAmount}, kBatchable},
    {Command::kIQDecr, "iqdecr", {kSession, kKey, kAmount}, kBatchable},
    {Command::kCommit, "commit", {kSession}, kBatchable},
    {Command::kAbort, "abort", {kSession}},
    {Command::kRelease, "release", {kSession, kKey}},
    {Command::kSweep, "sweep", {}},
    {Command::kMetrics, "metrics", {}},
    {Command::kTrace, "trace", {kCount}},
    {Command::kBatch, "batch", {kFrame}},
};

static_assert(OneRowPerValue(kVerbs, &Verb::command, Command::kBatch));

const Verb& VerbOf(Command c) { return kVerbs[static_cast<std::size_t>(c)]; }

constexpr NameIndex<Verb> kVerbIndex = [] {
  NameIndex<Verb> index;
  for (const Verb& verb : kVerbs) index.Add(verb.name, &verb);
  return index;
}();

/// Read `verb`'s fields from the tokens after its name into *req. *block
/// gets the size of the data block that follows, for a verb that has one;
/// a get's keys go to *keys unless it is null. False, with *error set, for
/// a malformed line.
bool ReadFields(const Verb& verb, const Tokens& tok, std::string_view line,
                RequestView* req, std::vector<std::string_view>* keys,
                std::optional<std::size_t>* block, std::string* error) {
  auto bad = [&](Field field) {
    *error = "bad " + std::string(kFieldNames[static_cast<int>(field)]);
    return false;
  };
  req->command = verb.command;
  std::size_t next = 1;  // the token the next field reads
  for (Field field : verb.fields) {
    if (field == kNone || (field == kCount && next == tok.count)) break;
    if (next >= tok.count) return bad(kNone);
    const std::string_view text = tok.tok[next++];
    if (field == kKey || field == kKeys) {
      req->key = text;
      if (field == kKeys) next = tok.count;  // memcached's multi-key get
      if (field == kKeys && keys != nullptr) {
        keys->clear();
        Tokenize(line.substr(text.data() - line.data()), keys);
        req->keys = *keys;
      }
      continue;
    }
    if (field == kExptime) {
      auto exptime = ParseNumber<std::int64_t>(text);
      if (!exptime) return bad(field);
      req->exptime = *exptime;
      continue;
    }
    auto n = ParseNumber(text);
    if (!n || (field == kFlags && *n > kMaxFlags) || (field == kFrame && !*n)) {
      return bad(field);
    }
    switch (field) {
      case kFlags: req->flags = static_cast<std::uint32_t>(*n); break;
      case kBytes: *block = *n; break;
      case kCas: req->cas_unique = *n; break;
      case kToken: req->token = *n; break;
      case kSession: req->session = *n; break;
      default: req->amount = *n; break;  // kAmount, kCount, kFrame
    }
  }
  if (next != tok.count) return bad(kNone);
  return true;
}

/// Parse the one request (a frame's header line alone) starting at offset
/// `at` of `buf`, without consuming it. On kOk and kError, *end is where the
/// next request starts (for kError, the resync point past the bad line or
/// block).
RequestParser::Status ParseLine(std::string_view buf, std::size_t at,
                                RequestView* out,
                                std::vector<std::string_view>* keys,
                                std::string* error, std::size_t* end) {
  using Status = RequestParser::Status;
  std::size_t eol = buf.find("\r\n", at);
  if (eol == std::string_view::npos) return Status::kNeedMore;
  std::string_view line = buf.substr(at, eol - at);
  Tokens tokens = Tokenize(line);
  *end = eol + 2;
  if (tokens.count == 0) {
    *error = "empty command line";
    return Status::kError;
  }
  const Verb* verb = kVerbIndex.Find(tokens.tok[0]);
  if (verb == nullptr) {
    *error = "unknown command '" + std::string(tokens.tok[0]) + "'";
    return Status::kError;
  }
  *out = RequestView{};
  std::optional<std::size_t> block;
  if (!ReadFields(*verb, tokens, line, out, keys, &block, error)) {
    return Status::kError;
  }
  if (block) {
    std::size_t need = *block;
    if (need > kMaxPayloadBytes) {
      // Never wait for (or index past) an absurd length claim; see the
      // kMaxPayloadBytes comment. Resync past the command line — the bytes
      // the peer meant as payload will parse as garbage commands and draw
      // further CLIENT_ERRORs, but nothing is silently executed as data.
      *error = "payload exceeds protocol limit";
      return Status::kError;
    }
    // Data block: <need> bytes followed by \r\n. `avail`-style comparisons
    // keep the arithmetic overflow-free even if the cap above ever moves.
    std::size_t avail = buf.size() - (eol + 2);
    if (avail < need || avail - need < 2) return Status::kNeedMore;
    *end = eol + 2 + need + 2;
    if (buf[eol + 2 + need] != '\r' || buf[eol + 2 + need + 1] != '\n') {
      *error = "bad data chunk terminator";
      return Status::kError;
    }
    out->data = buf.substr(eol + 2, need);
  }
  return Status::kOk;
}

bool CarriableKey(std::string_view key) {
  for (char c : key) {
    if (c == ' ' || c == '\r' || c == '\n') return false;
  }
  return !key.empty();
}

/// The keys a `keys` field carries: the key list when set, else the key.
std::span<const std::string_view> KeysOf(const RequestView& r) {
  return r.keys.empty() ? std::span(&r.key, 1) : r.keys;
}

/// The request writer behind AppendTo, once CanCarry has passed.
void AppendRequest(const RequestView& r, std::string* out) {
  const Verb& verb = VerbOf(r.command);
  out->append(verb.name);
  bool block = false;
  for (Field field : verb.fields) {
    if (field == kNone) break;
    if (field == kCount && r.amount == 0) continue;
    out->push_back(' ');
    switch (field) {
      case kKey: out->append(r.key); break;
      case kKeys:
        for (std::string_view k : KeysOf(r)) {
          out->append(k);
          out->push_back(' ');
        }
        out->pop_back();
        break;
      case kFlags: AppendNumber(out, r.flags); break;
      case kExptime: AppendNumber(out, r.exptime); break;
      case kBytes:
        AppendNumber(out, r.data.size());
        block = true;
        break;
      case kCas: AppendNumber(out, r.cas_unique); break;
      case kToken: AppendNumber(out, r.token); break;
      case kSession: AppendNumber(out, r.session); break;
      case kFrame:  // the row's last field: the frame's requests follow
        AppendNumber(out, r.batch.size());
        out->append("\r\n");
        for (const RequestView& inner : r.batch) AppendRequest(inner, out);
        return;
      default: AppendNumber(out, r.amount); break;  // kAmount, kCount
    }
  }
  out->append("\r\n");
  if (block) {
    out->append(r.data);
    out->append("\r\n");
  }
}

/// An owning copy of `v`.
Request ToRequest(const RequestView& v) {
  Request r{.command = v.command, .key = std::string(v.key),
            .keys = {v.keys.begin(), v.keys.end()}, .data = std::string(v.data),
            .flags = v.flags, .exptime = v.exptime, .cas_unique = v.cas_unique,
            .amount = v.amount, .token = v.token, .session = v.session,
            .batch = {}};
  for (const RequestView& inner : v.batch) r.batch.push_back(ToRequest(inner));
  return r;
}

}  // namespace

const char* ToString(Command c) { return VerbOf(c).name.data(); }

bool IsBatchable(Command c) { return VerbOf(c).batchable; }

void RequestParser::Compact() {
  if (frame_.open) return;
  if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ > buffer_.size() / 2) {
    buffer_.erase(0, pos_);  // one memmove of the unconsumed tail
    pos_ = 0;
  }
}

RequestParser::Status RequestParser::Next(RequestView* out,
                                          std::string* error) {
  Compact();
  return Scan(buffer_, out, error, /*keep=*/true);
}

RequestParser::Status RequestParser::Next(Request* out, std::string* error) {
  RequestView view;
  Status status = Next(&view, error);
  if (status == Status::kOk) *out = ToRequest(view);
  return status;
}

RequestParser::Status RequestParser::Scan(std::string_view buf,
                                          RequestView* out,
                                          std::string* error, bool keep) {
  if (!frame_.open) {
    std::size_t end = 0;
    Status status =
        ParseLine(buf, pos_, out, keep ? &keys_ : nullptr, error, &end);
    if (status == Status::kNeedMore) return status;
    if (status == Status::kError || out->command != Command::kBatch) {
      pos_ = end;
      return status;
    }
    frame_.open = true;
    frame_.count = out->amount;
    frame_.cursor = end;
    pending_.clear();
    if (frame_.count > kMaxBatchRequests) {
      frame_.error = "batch: more than " + std::to_string(kMaxBatchRequests) +
                     " requests";
    }
  }
  // The frame's bytes stay buffered (pos_ does not move), so the cursor and
  // the offsets survive later Feed()s. After a failure the rest of the
  // frame is only skipped: a failed frame executes nothing, and a huge
  // claimed count costs only its bytes.
  auto slice = [&](std::string_view v) {
    return v.empty() ? Slice{}
                     : Slice{static_cast<std::size_t>(v.data() - buf.data()),
                             v.size()};
  };
  RequestView inner;
  std::string inner_error;
  while (frame_.scanned < frame_.count) {
    std::size_t end = 0;
    Status status =
        ParseLine(buf, frame_.cursor, &inner, nullptr, &inner_error, &end);
    if (status == Status::kNeedMore) return status;
    if (frame_.error.empty()) {
      if (status == Status::kError) {
        frame_.error = "batch: " + inner_error;
      } else if (!IsBatchable(inner.command)) {
        frame_.error = std::string("batch: '") + ToString(inner.command) +
                       "' cannot be batched";
      } else if (keep) {
        Pending p{inner, slice(inner.key), slice(inner.data)};
        p.request.key = {};
        p.request.data = {};
        pending_.push_back(p);
      }
    }
    frame_.cursor = end;
    ++frame_.scanned;
  }
  Status result = Status::kOk;
  if (frame_.error.empty()) {
    batch_.clear();
    for (const Pending& p : pending_) {
      batch_.push_back(p.request);
      batch_.back().key = buf.substr(p.key.at, p.key.size);
      batch_.back().data = buf.substr(p.data.at, p.data.size);
    }
    *out = RequestView{};
    out->command = Command::kBatch;
    out->amount = frame_.count;
    out->batch = batch_;
  } else {
    *error = std::move(frame_.error);
    result = Status::kError;
  }
  pos_ = frame_.cursor;
  frame_ = Frame{};
  return result;
}

std::size_t CountRequests(std::string_view bytes) {
  RequestParser scanner;  // never fed: scans `bytes` in place
  RequestView request;
  std::string error;
  std::size_t count = 0;
  while (true) {
    auto status = scanner.Scan(bytes, &request, &error, /*keep=*/false);
    if (status == RequestParser::Status::kNeedMore) return count;
    if (status == RequestParser::Status::kOk &&
        request.command == Command::kQuit) {
      continue;  // the server closes without replying
    }
    ++count;  // kError also draws one CLIENT_ERROR response
  }
}

bool CanCarry(const RequestView& r) {
  for (Field field : VerbOf(r.command).fields) {
    if (field == kNone) break;
    if ((field == kKey && !CarriableKey(r.key)) ||
        (field == kKeys && !std::ranges::all_of(KeysOf(r), CarriableKey)) ||
        (field == kFrame && !std::ranges::all_of(r.batch, CanCarry))) {
      return false;
    }
  }
  return true;
}

bool AppendTo(const RequestView& request, std::string* out) {
  if (!CanCarry(request)) return false;
  AppendRequest(request, out);
  return true;
}

RequestView ViewOf(const Request& r, std::vector<std::string_view>* keys,
                   std::vector<RequestView>* batch) {
  RequestView v{.command = r.command, .key = r.key, .keys = {},
                .data = r.data, .flags = r.flags, .exptime = r.exptime,
                .cas_unique = r.cas_unique, .amount = r.amount,
                .token = r.token, .session = r.session, .batch = {}};
  if (keys != nullptr && !r.keys.empty()) {
    keys->assign(r.keys.begin(), r.keys.end());
    v.keys = *keys;
  }
  if (batch != nullptr && !r.batch.empty()) {
    batch->clear();
    for (const Request& inner : r.batch) {
      batch->push_back(ViewOf(inner, nullptr, nullptr));
    }
    v.batch = *batch;
  }
  return v;
}

bool AppendTo(const Request& request, std::string* out) {
  std::vector<std::string_view> keys;
  std::vector<RequestView> batch;
  return AppendTo(ViewOf(request, &keys, &batch), out);
}

std::string Serialize(const Request& request) {
  std::string out;
  AppendTo(request, &out);
  return out;
}

// ---- responses ----------------------------------------------------------------

namespace {

/// How a reply's bytes follow its head.
enum class Shape : std::uint8_t {
  kBare,         // <head>
  kNumber,       // <head> <number>, or <number> for a row without a head
  kBlock,        // <head> <bytes>\r\n<data>\r\n
  kNumberBlock,  // <head> <number> <bytes>\r\n<data>\r\n
  kLines,        // lines up to END\r\n, all kept in `message`
  kMessage,      // <head> [<message>]
  kValues,       // one or more VALUE blocks, then END\r\n
  kFrame,        // <head> <m>, then m replies that are not frames
};

/// One reply type: its head and the shape of what follows it.
struct Reply {
  ResponseType type;
  std::string_view head;        // the line's first token ("" = none)
  Shape shape;
  std::string_view alias = {};  // a second head read as this type
  std::string_view empty = {};  // kMessage: the line an empty message writes
};

/// The reply grammar: one row per ResponseType, in enum order.
constexpr Reply kReplies[] = {
    {ResponseType::kValue, "VALUE", Shape::kValues},
    {ResponseType::kEnd, "END", Shape::kBare},
    {ResponseType::kStored, "STORED", Shape::kBare},
    {ResponseType::kNotStored, "NOT_STORED", Shape::kBare},
    {ResponseType::kExists, "EXISTS", Shape::kBare},
    {ResponseType::kNotFound, "NOT_FOUND", Shape::kBare},
    {ResponseType::kDeleted, "DELETED", Shape::kBare},
    {ResponseType::kNumber, "", Shape::kNumber},
    {ResponseType::kError, "CLIENT_ERROR", Shape::kMessage, "ERROR", "ERROR"},
    {ResponseType::kOk, "OK", Shape::kBare},
    {ResponseType::kStats, "STAT", Shape::kLines},
    {ResponseType::kMissToken, "MISS_TOKEN", Shape::kNumber},
    {ResponseType::kMissBackoff, "MISS_BACKOFF", Shape::kBare},
    {ResponseType::kMissNoLease, "MISS_NOLEASE", Shape::kBare},
    {ResponseType::kQValue, "QVALUE", Shape::kNumberBlock},
    {ResponseType::kQMiss, "QMISS", Shape::kNumber},
    {ResponseType::kReject, "REJECT", Shape::kBare},
    {ResponseType::kGranted, "GRANTED", Shape::kBare},
    {ResponseType::kId, "ID", Shape::kNumber},
    {ResponseType::kMetrics, "METRICS", Shape::kBlock},
    {ResponseType::kTrace, "TRACE_INFO", Shape::kLines, "TRACE"},
    {ResponseType::kBatch, "BATCH", Shape::kFrame},
    {ResponseType::kTransportError, "SERVER_ERROR", Shape::kMessage, {},
     "SERVER_ERROR transport failure"},
};

static_assert(OneRowPerValue(kReplies, &Reply::type,
                             ResponseType::kTransportError));

const Reply& ReplyOf(ResponseType t) {
  return kReplies[static_cast<std::size_t>(t)];
}

constexpr NameIndex<Reply> kReplyIndex = [] {
  NameIndex<Reply> index;
  for (const Reply& reply : kReplies) {
    for (std::string_view head : {reply.head, reply.alias}) {
      if (!head.empty()) index.Add(head, &reply);
    }
  }
  return index;
}();

ResponseView ViewOf(const Response& r) {
  return {.type = r.type, .key = r.key, .data = r.data, .flags = r.flags,
          .cas_unique = r.cas_unique, .with_cas = r.with_cas,
          .ttl_ns = r.ttl_ns,
          .number = r.type == ResponseType::kBatch ? r.batch.size() : r.number,
          .message = r.message, .values = {}};
}

Response ToResponse(const ResponseView& v) {
  Response r{.type = v.type, .key = std::string(v.key),
             .data = std::string(v.data), .flags = v.flags,
             .cas_unique = v.cas_unique, .with_cas = v.with_cas,
             .ttl_ns = v.ttl_ns, .number = v.number,
             .message = std::string(v.message), .values = {}, .batch = {}};
  std::string_view blocks = v.values;
  ValueView e;
  while (NextValue(&blocks, &e)) {
    r.values.push_back({std::string(e.key), std::string(e.data), e.flags,
                        e.cas_unique, e.ttl_ns});
  }
  return r;
}

/// The sized data block at offset `at` of `bytes`, its size read from the
/// token `size`, into *data. Returns the offset past the block and its CRLF,
/// or 0 when the size is malformed, the block not yet whole, or the two
/// bytes after it not CRLF (the request parser's "bad data chunk
/// terminator").
std::size_t ReadBlock(std::string_view bytes, std::size_t at,
                      std::string_view size, std::string_view* data) {
  auto n = ParseNumber(size);
  if (!n || *n > kMaxPayloadBytes) return 0;
  std::size_t avail = bytes.size() - at;
  if (avail < *n || avail - *n < 2) return 0;
  if (bytes.substr(at + *n, 2) != "\r\n") return 0;
  *data = bytes.substr(at, *n);
  return at + *n + 2;
}

/// The VALUE block at the front of `bytes`, whose line ends at `eol` and
/// tokenizes as `t`. Returns the offset past its data block, or 0 when the
/// block is malformed or not yet whole.
std::size_t ReadValueBlock(std::string_view bytes, std::size_t eol,
                           const Tokens& t, ValueView* out) {
  if (t.count < 4 || t.tok[0] != "VALUE") return 0;
  auto flags = ParseNumber(t.tok[2]);
  if (!flags || *flags > kMaxFlags) return 0;
  *out = ValueView{};
  std::size_t end = ReadBlock(bytes, eol + 2, t.tok[3], &out->data);
  if (end == 0) return 0;
  out->key = t.tok[1];
  out->flags = static_cast<std::uint32_t>(*flags);
  for (std::size_t i = 4; i < std::min(t.count, Tokens::kMax); ++i) {
    if (t.tok[i][0] == 'T') {
      // Trailing near-cache validity duration (see protocol.h).
      if (auto ttl = ParseNumber(t.tok[i].substr(1))) out->ttl_ns = *ttl;
    } else if (auto cas = ParseNumber(t.tok[i])) {
      out->cas_unique = *cas;
      out->with_cas = true;
    }
  }
  return end;
}

/// ReadResponse, inside a frame when `in_frame`: frames never nest, which
/// also keeps the read one level deep.
std::size_t ReadReply(std::string_view bytes, ResponseView* out,
                      std::vector<ResponseView>* batch, bool in_frame) {
  std::size_t eol = bytes.find("\r\n");
  if (eol == std::string_view::npos) return 0;
  std::string_view line = bytes.substr(0, eol);
  Tokens tokens = Tokenize(line);
  if (tokens.count == 0) return 0;
  // A head no row names is a bare number's row, the one without a head.
  const Reply* found = kReplyIndex.Find(tokens.tok[0]);
  const Reply& reply = found ? *found : ReplyOf(ResponseType::kNumber);
  *out = ResponseView{};
  out->type = reply.type;
  const std::size_t line_end = eol + 2;
  // The number in token i, or false.
  auto number = [&](std::size_t i) {
    auto n = ParseNumber(tokens.tok[i]);
    if (n) out->number = *n;
    return n.has_value();
  };
  switch (reply.shape) {
    case Shape::kBare:
      return line_end;
    case Shape::kNumber: {
      const std::size_t at = reply.head.empty() ? 0 : 1;
      return tokens.count == at + 1 && number(at) ? line_end : 0;
    }
    case Shape::kBlock:
      return tokens.count == 2
                 ? ReadBlock(bytes, line_end, tokens.tok[1], &out->data)
                 : 0;
    case Shape::kNumberBlock:
      return tokens.count == 3 && number(1)
                 ? ReadBlock(bytes, line_end, tokens.tok[2], &out->data)
                 : 0;
    case Shape::kLines: {
      std::size_t end = bytes.find("END\r\n");
      if (end == std::string_view::npos) return 0;
      out->message = bytes.substr(0, end);
      return end + 5;
    }
    case Shape::kMessage: {
      // The rest of the line, past the head and one space.
      std::size_t at = tokens.tok[0].data() + tokens.tok[0].size() -
                       line.data() + 1;
      if (at < line.size()) out->message = line.substr(at);
      return line_end;
    }
    case Shape::kValues: {
      // One or more VALUE blocks (a multi-key get), then END. The first
      // block's fields are mirrored into the single-value fields.
      ValueView v;
      std::size_t at = ReadValueBlock(bytes, eol, tokens, &v);
      if (at == 0) return 0;
      out->key = v.key;
      out->data = v.data;
      out->flags = v.flags;
      out->cas_unique = v.cas_unique;
      out->with_cas = v.with_cas;
      out->ttl_ns = v.ttl_ns;
      std::string_view rest = bytes.substr(at);
      while (!rest.starts_with("END\r\n")) {
        if (!NextValue(&rest, &v)) return 0;
        out->with_cas = out->with_cas || v.with_cas;
      }
      out->values = bytes.substr(0, bytes.size() - rest.size());
      return out->values.size() + 5;
    }
    case Shape::kFrame: {
      if (in_frame || tokens.count != 2 || !number(1)) return 0;
      // No reserve(number): the count is the peer's claim, the bytes are not.
      if (batch != nullptr) batch->clear();
      std::size_t off = line_end;
      for (std::uint64_t i = 0; i < out->number; ++i) {
        ResponseView inner;
        std::size_t used = ReadReply(bytes.substr(off), &inner, nullptr,
                                     /*in_frame=*/true);
        if (used == 0) return 0;
        if (batch != nullptr) batch->push_back(inner);
        off += used;
      }
      return off;
    }
  }
  return 0;
}

}  // namespace

void AppendValueBlock(const ValueView& v, std::string* out) {
  out->append("VALUE ");
  out->append(v.key);
  out->push_back(' ');
  AppendNumber(out, v.flags);
  out->push_back(' ');
  AppendNumber(out, v.data.size());
  if (v.with_cas) {
    out->push_back(' ');
    AppendNumber(out, v.cas_unique);
  }
  if (v.ttl_ns != 0) {
    // Near-cache validity duration. The 'T' prefix keeps the token
    // non-numeric, so pre-TTL parsers skip it instead of mistaking it for
    // a cas unique.
    out->append(" T");
    AppendNumber(out, v.ttl_ns);
  }
  out->append("\r\n");
  out->append(v.data);
  out->append("\r\n");
}

void AppendTo(const ResponseView& r, std::string* out) {
  const Reply& reply = ReplyOf(r.type);
  switch (reply.shape) {
    case Shape::kBare:
      out->append(reply.head);
      break;
    case Shape::kNumber:
    case Shape::kFrame:  // the caller appends the inner replies
      out->append(reply.head);
      if (!reply.head.empty()) out->push_back(' ');
      AppendNumber(out, r.number);
      break;
    case Shape::kBlock:
    case Shape::kNumberBlock:
      // Sized, so a payload's lines ('#' comments, protocol heads) are
      // never re-scanned as replies.
      out->append(reply.head);
      if (reply.shape == Shape::kNumberBlock) {
        out->push_back(' ');
        AppendNumber(out, r.number);
      }
      out->push_back(' ');
      AppendNumber(out, r.data.size());
      out->append("\r\n");
      out->append(r.data);
      break;
    case Shape::kLines:
      // An empty kTrace is a bare END, and reads back as kEnd.
      out->append(r.message);
      out->append("END");
      break;
    case Shape::kMessage:  // an empty message writes the row's `empty` line
      if (!r.message.empty()) {
        out->append(reply.head);
        out->push_back(' ');
      }
      out->append(r.message.empty() ? reply.empty : r.message);
      break;
    case Shape::kValues:
      AppendValueBlock(
          {r.key, r.data, r.flags, r.cas_unique, r.with_cas, r.ttl_ns}, out);
      out->append("END");
      break;
  }
  out->append("\r\n");
}

void AppendError(std::string_view message, std::string* out) {
  ResponseView error;
  error.type = ResponseType::kError;
  error.message = message;
  AppendTo(error, out);
}

void AppendTo(const Response& r, std::string* out) {
  if (r.type == ResponseType::kValue && !r.values.empty()) {
    for (const ValueEntry& e : r.values) {
      AppendValueBlock(
          {e.key, e.data, e.flags, e.cas_unique, r.with_cas, e.ttl_ns}, out);
    }
    out->append("END\r\n");
    return;
  }
  AppendTo(ViewOf(r), out);
  for (const Response& inner : r.batch) AppendTo(inner, out);
}

std::string Serialize(const Response& r) {
  std::string out;
  AppendTo(r, &out);
  return out;
}

bool NextValue(std::string_view* blocks, ValueView* out) {
  std::size_t eol = blocks->find("\r\n");
  if (eol == std::string_view::npos) return false;
  std::size_t end =
      ReadValueBlock(*blocks, eol, Tokenize(blocks->substr(0, eol)), out);
  if (end == 0) return false;
  blocks->remove_prefix(end);
  return true;
}

std::size_t ReadResponse(std::string_view bytes, ResponseView* out,
                         std::vector<ResponseView>* batch) {
  return ReadReply(bytes, out, batch, /*in_frame=*/false);
}

std::optional<Response> ParseResponse(std::string_view bytes,
                                      std::size_t* consumed) {
  ResponseView view;
  std::vector<ResponseView> batch;
  std::size_t used = ReadResponse(bytes, &view, &batch);
  if (used == 0) return std::nullopt;
  *consumed = used;
  Response resp = ToResponse(view);
  for (const ResponseView& inner : batch) resp.batch.push_back(ToResponse(inner));
  return resp;
}

}  // namespace iq::net
