#include "net/protocol.h"

#include <charconv>
#include <unordered_map>

namespace iq::net {
namespace {

std::optional<std::uint64_t> ParseU64(std::string_view s) {
  std::uint64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::int64_t> ParseI64(std::string_view s) {
  std::int64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size()) return std::nullopt;
  return v;
}

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[20];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, p - buf);
}

void AppendI64(std::string* out, std::int64_t v) {
  char buf[21];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, p - buf);
}

std::vector<std::string_view> SplitTokens(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

struct CommandInfo {
  Command command;
  bool has_payload;  // followed by a data block
};

const std::unordered_map<std::string_view, CommandInfo>& CommandTable() {
  static const auto* table = new std::unordered_map<std::string_view, CommandInfo>{
      {"get", {Command::kGet, false}},
      {"gets", {Command::kGets, false}},
      {"set", {Command::kSet, true}},
      {"add", {Command::kAdd, true}},
      {"replace", {Command::kReplace, true}},
      {"cas", {Command::kCas, true}},
      {"append", {Command::kAppend, true}},
      {"prepend", {Command::kPrepend, true}},
      {"delete", {Command::kDelete, false}},
      {"incr", {Command::kIncr, false}},
      {"decr", {Command::kDecr, false}},
      {"flush_all", {Command::kFlushAll, false}},
      {"stats", {Command::kStats, false}},
      {"quit", {Command::kQuit, false}},
      {"iqget", {Command::kIQGet, false}},
      {"iqset", {Command::kIQSet, true}},
      {"qaread", {Command::kQaRead, false}},
      {"sar", {Command::kSaR, true}},
      {"sarnull", {Command::kSaRNull, false}},
      {"genid", {Command::kGenId, false}},
      {"qareg", {Command::kQaReg, false}},
      {"dar", {Command::kDaR, false}},
      {"iqappend", {Command::kIQAppend, true}},
      {"iqprepend", {Command::kIQPrepend, true}},
      {"iqincr", {Command::kIQIncr, false}},
      {"iqdecr", {Command::kIQDecr, false}},
      {"commit", {Command::kCommit, false}},
      {"abort", {Command::kAbort, false}},
      {"release", {Command::kRelease, false}},
      {"sweep", {Command::kSweep, false}},
      {"metrics", {Command::kMetrics, false}},
      {"trace", {Command::kTrace, false}},
      {"batch", {Command::kBatch, false}},
  };
  return *table;
}

/// Expected payload size for a storage-style command line, or nullopt for
/// malformed lines. Fills the non-payload fields of *req.
std::optional<std::size_t> ParseCommandLine(
    const std::vector<std::string_view>& tok, const CommandInfo& info,
    Request* req, std::string* error) {
  auto fail = [&](const char* msg) -> std::optional<std::size_t> {
    *error = msg;
    return std::nullopt;
  };
  req->command = info.command;
  switch (info.command) {
    case Command::kGet:
    case Command::kGets:
      // Multi-key retrieval per the real memcached protocol: one request
      // line, N keys, one END-terminated response.
      if (tok.size() < 2) return fail("bad argument count");
      req->key = std::string(tok[1]);
      req->keys.reserve(tok.size() - 1);
      for (std::size_t i = 1; i < tok.size(); ++i) {
        req->keys.emplace_back(tok[i]);
      }
      return 0;
    case Command::kDelete:
      if (tok.size() != 2) return fail("bad argument count");
      req->key = std::string(tok[1]);
      return 0;
    case Command::kSet:
    case Command::kAdd:
    case Command::kReplace:
    case Command::kAppend:
    case Command::kPrepend: {
      if (tok.size() != 5) return fail("bad argument count");
      req->key = std::string(tok[1]);
      auto flags = ParseU64(tok[2]);
      auto exptime = ParseI64(tok[3]);
      auto bytes = ParseU64(tok[4]);
      if (!flags || !exptime || !bytes) return fail("bad numeric field");
      req->flags = static_cast<std::uint32_t>(*flags);
      req->exptime = *exptime;
      return *bytes;
    }
    case Command::kCas: {
      if (tok.size() != 6) return fail("bad argument count");
      req->key = std::string(tok[1]);
      auto flags = ParseU64(tok[2]);
      auto exptime = ParseI64(tok[3]);
      auto bytes = ParseU64(tok[4]);
      auto unique = ParseU64(tok[5]);
      if (!flags || !exptime || !bytes || !unique) return fail("bad numeric field");
      req->flags = static_cast<std::uint32_t>(*flags);
      req->exptime = *exptime;
      req->cas_unique = *unique;
      return *bytes;
    }
    case Command::kIncr:
    case Command::kDecr: {
      if (tok.size() != 3) return fail("bad argument count");
      req->key = std::string(tok[1]);
      auto amount = ParseU64(tok[2]);
      if (!amount) return fail("bad amount");
      req->amount = *amount;
      return 0;
    }
    case Command::kFlushAll:
    case Command::kStats:
    case Command::kQuit:
    case Command::kGenId:
    case Command::kSweep:
    case Command::kMetrics:
      if (tok.size() != 1) return fail("bad argument count");
      return 0;
    case Command::kTrace: {
      // Optional event count: `trace` or `trace <n>`. 0 (or omitted) means
      // the server default.
      if (tok.size() > 2) return fail("bad argument count");
      if (tok.size() == 2) {
        auto n = ParseU64(tok[1]);
        if (!n) return fail("bad event count");
        req->amount = *n;
      }
      return 0;
    }
    case Command::kIQGet:
    case Command::kQaRead: {
      if (tok.size() != 3) return fail("bad argument count");
      req->key = std::string(tok[1]);
      auto session = ParseU64(tok[2]);
      if (!session) return fail("bad session id");
      req->session = *session;
      return 0;
    }
    case Command::kIQSet:
    case Command::kSaR: {
      if (tok.size() != 4) return fail("bad argument count");
      req->key = std::string(tok[1]);
      auto token = ParseU64(tok[2]);
      auto bytes = ParseU64(tok[3]);
      if (!token || !bytes) return fail("bad numeric field");
      req->token = *token;
      return *bytes;
    }
    case Command::kSaRNull: {
      if (tok.size() != 3) return fail("bad argument count");
      req->key = std::string(tok[1]);
      auto token = ParseU64(tok[2]);
      if (!token) return fail("bad token");
      req->token = *token;
      return 0;
    }
    case Command::kQaReg:
    case Command::kRelease: {
      if (tok.size() != 3) return fail("bad argument count");
      auto tid = ParseU64(tok[1]);
      if (!tid) return fail("bad tid");
      req->session = *tid;
      req->key = std::string(tok[2]);
      return 0;
    }
    case Command::kDaR:
    case Command::kCommit:
    case Command::kAbort: {
      if (tok.size() != 2) return fail("bad argument count");
      auto tid = ParseU64(tok[1]);
      if (!tid) return fail("bad tid");
      req->session = *tid;
      return 0;
    }
    case Command::kIQAppend:
    case Command::kIQPrepend: {
      if (tok.size() != 4) return fail("bad argument count");
      auto tid = ParseU64(tok[1]);
      auto bytes = ParseU64(tok[3]);
      if (!tid || !bytes) return fail("bad numeric field");
      req->session = *tid;
      req->key = std::string(tok[2]);
      return *bytes;
    }
    case Command::kIQIncr:
    case Command::kIQDecr: {
      if (tok.size() != 4) return fail("bad argument count");
      auto tid = ParseU64(tok[1]);
      auto amount = ParseU64(tok[3]);
      if (!tid || !amount) return fail("bad numeric field");
      req->session = *tid;
      req->key = std::string(tok[2]);
      req->amount = *amount;
      return 0;
    }
    case Command::kBatch: {
      // The header only; RequestParser::Next collects the framed requests.
      if (tok.size() != 2) return fail("bad argument count");
      auto n = ParseU64(tok[1]);
      if (!n || *n == 0) return fail("bad request count");
      req->amount = *n;
      return 0;
    }
  }
  return fail("unhandled command");
}

}  // namespace

const char* ToString(Command c) {
  switch (c) {
    case Command::kGet: return "get";
    case Command::kGets: return "gets";
    case Command::kSet: return "set";
    case Command::kAdd: return "add";
    case Command::kReplace: return "replace";
    case Command::kCas: return "cas";
    case Command::kAppend: return "append";
    case Command::kPrepend: return "prepend";
    case Command::kDelete: return "delete";
    case Command::kIncr: return "incr";
    case Command::kDecr: return "decr";
    case Command::kFlushAll: return "flush_all";
    case Command::kStats: return "stats";
    case Command::kQuit: return "quit";
    case Command::kIQGet: return "iqget";
    case Command::kIQSet: return "iqset";
    case Command::kQaRead: return "qaread";
    case Command::kSaR: return "sar";
    case Command::kSaRNull: return "sarnull";
    case Command::kGenId: return "genid";
    case Command::kQaReg: return "qareg";
    case Command::kDaR: return "dar";
    case Command::kIQAppend: return "iqappend";
    case Command::kIQPrepend: return "iqprepend";
    case Command::kIQIncr: return "iqincr";
    case Command::kIQDecr: return "iqdecr";
    case Command::kCommit: return "commit";
    case Command::kAbort: return "abort";
    case Command::kRelease: return "release";
    case Command::kSweep: return "sweep";
    case Command::kMetrics: return "metrics";
    case Command::kTrace: return "trace";
    case Command::kBatch: return "batch";
  }
  return "?";
}

bool IsBatchable(Command c) {
  switch (c) {
    case Command::kQaRead:
    case Command::kQaReg:
    case Command::kIQIncr:
    case Command::kIQDecr:
    case Command::kIQAppend:
    case Command::kIQPrepend:
    case Command::kSaR:
    case Command::kSaRNull:
    case Command::kCommit:
    case Command::kDaR:
      return true;
    default:
      return false;
  }
}

void RequestParser::ConsumeTo(std::size_t end) {
  pos_ = end;
  if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ > buffer_.size() / 2) {
    buffer_.erase(0, pos_);  // one memmove of the unconsumed tail
    pos_ = 0;
  }
}

RequestParser::Status RequestParser::ParseAt(std::size_t at, Request* out,
                                             std::string* error,
                                             std::size_t* end) const {
  std::size_t eol = buffer_.find("\r\n", at);
  if (eol == std::string::npos) return Status::kNeedMore;
  std::string_view line(buffer_.data() + at, eol - at);
  auto tokens = SplitTokens(line);
  *end = eol + 2;
  if (tokens.empty()) {
    *error = "empty command line";
    return Status::kError;
  }
  auto it = CommandTable().find(tokens[0]);
  if (it == CommandTable().end()) {
    *error = "unknown command '" + std::string(tokens[0]) + "'";
    return Status::kError;
  }
  Request req;
  auto payload = ParseCommandLine(tokens, it->second, &req, error);
  if (!payload) return Status::kError;
  if (it->second.has_payload) {
    std::size_t need = *payload;
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
    std::size_t avail = buffer_.size() - (eol + 2);
    if (avail < need || avail - need < 2) return Status::kNeedMore;
    *end = eol + 2 + need + 2;
    if (buffer_[eol + 2 + need] != '\r' || buffer_[eol + 2 + need + 1] != '\n') {
      *error = "bad data chunk terminator";
      return Status::kError;
    }
    req.data = buffer_.substr(eol + 2, need);
  }
  *out = std::move(req);
  return Status::kOk;
}

RequestParser::Status RequestParser::Next(Request* out, std::string* error) {
  if (frame_.open) return NextInFrame(out, error);
  Request req;
  std::size_t end = 0;
  Status status = ParseAt(pos_, &req, error, &end);
  if (status == Status::kNeedMore) return status;
  if (status == Status::kOk && req.command == Command::kBatch) {
    frame_.open = true;
    frame_.count = req.amount;
    frame_.cursor = end;
    frame_.request.command = Command::kBatch;
    if (frame_.count > kMaxBatchRequests) {
      frame_.error = "batch: more than " + std::to_string(kMaxBatchRequests) +
                     " requests";
    }
    return NextInFrame(out, error);
  }
  ConsumeTo(end);
  if (status == Status::kOk) *out = std::move(req);
  return status;
}

RequestParser::Status RequestParser::NextInFrame(Request* out,
                                                 std::string* error) {
  // The frame's bytes stay buffered (pos_ does not move), so the cursor
  // survives later Feed()s. After a failure the rest of the frame is only
  // skipped: a failed frame executes nothing.
  Request inner;
  std::string inner_error;
  while (frame_.scanned < frame_.count) {
    std::size_t end = 0;
    Status status = ParseAt(frame_.cursor, &inner, &inner_error, &end);
    if (status == Status::kNeedMore) return status;
    if (frame_.error.empty()) {
      if (status == Status::kError) {
        frame_.error = "batch: " + inner_error;
      } else if (!IsBatchable(inner.command)) {
        frame_.error = std::string("batch: '") + ToString(inner.command) +
                       "' cannot be batched";
      } else {
        frame_.request.batch.push_back(std::move(inner));
      }
    }
    frame_.cursor = end;
    ++frame_.scanned;
  }
  Status result = Status::kOk;
  if (frame_.error.empty()) {
    *out = std::move(frame_.request);
  } else {
    *error = std::move(frame_.error);
    result = Status::kError;
  }
  std::size_t end = frame_.cursor;
  frame_ = Frame{};
  ConsumeTo(end);
  return result;
}

void AppendTo(const Request& r, std::string* out) {
  auto data_block = [&] {
    out->push_back(' ');
    AppendU64(out, r.data.size());
    out->append("\r\n");
    out->append(r.data);
    out->append("\r\n");
  };
  auto keyed_line = [&](const char* verb) {
    out->append(verb);
    out->push_back(' ');
    out->append(r.key);
    out->append("\r\n");
  };
  switch (r.command) {
    case Command::kGet:
    case Command::kGets:
      out->append(ToString(r.command));
      if (r.keys.empty()) {
        out->push_back(' ');
        out->append(r.key);
      } else {
        for (const std::string& k : r.keys) {
          out->push_back(' ');
          out->append(k);
        }
      }
      out->append("\r\n");
      return;
    case Command::kSet:
    case Command::kAdd:
    case Command::kReplace:
    case Command::kAppend:
    case Command::kPrepend:
      out->append(ToString(r.command));
      out->push_back(' ');
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.flags);
      out->push_back(' ');
      AppendI64(out, r.exptime);
      data_block();
      return;
    case Command::kCas:
      out->append("cas ");
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.flags);
      out->push_back(' ');
      AppendI64(out, r.exptime);
      out->push_back(' ');
      AppendU64(out, r.data.size());
      out->push_back(' ');
      AppendU64(out, r.cas_unique);
      out->append("\r\n");
      out->append(r.data);
      out->append("\r\n");
      return;
    case Command::kDelete:
      keyed_line("delete");
      return;
    case Command::kIncr:
    case Command::kDecr:
      out->append(ToString(r.command));
      out->push_back(' ');
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.amount);
      out->append("\r\n");
      return;
    case Command::kFlushAll: out->append("flush_all\r\n"); return;
    case Command::kStats: out->append("stats\r\n"); return;
    case Command::kQuit: out->append("quit\r\n"); return;
    case Command::kIQGet:
    case Command::kQaRead:
      out->append(ToString(r.command));
      out->push_back(' ');
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.session);
      out->append("\r\n");
      return;
    case Command::kIQSet:
    case Command::kSaR:
      out->append(ToString(r.command));
      out->push_back(' ');
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.token);
      data_block();
      return;
    case Command::kSaRNull:
      out->append("sarnull ");
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.token);
      out->append("\r\n");
      return;
    case Command::kGenId: out->append("genid\r\n"); return;
    case Command::kSweep: out->append("sweep\r\n"); return;
    case Command::kMetrics: out->append("metrics\r\n"); return;
    case Command::kTrace:
      out->append("trace");
      if (r.amount != 0) {
        out->push_back(' ');
        AppendU64(out, r.amount);
      }
      out->append("\r\n");
      return;
    case Command::kQaReg:
    case Command::kRelease:
      out->append(ToString(r.command));
      out->push_back(' ');
      AppendU64(out, r.session);
      out->push_back(' ');
      out->append(r.key);
      out->append("\r\n");
      return;
    case Command::kDaR:
    case Command::kCommit:
    case Command::kAbort:
      out->append(ToString(r.command));
      out->push_back(' ');
      AppendU64(out, r.session);
      out->append("\r\n");
      return;
    case Command::kIQAppend:
    case Command::kIQPrepend:
      out->append(ToString(r.command));
      out->push_back(' ');
      AppendU64(out, r.session);
      out->push_back(' ');
      out->append(r.key);
      data_block();
      return;
    case Command::kIQIncr:
    case Command::kIQDecr:
      out->append(ToString(r.command));
      out->push_back(' ');
      AppendU64(out, r.session);
      out->push_back(' ');
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.amount);
      out->append("\r\n");
      return;
    case Command::kBatch:
      out->append("batch ");
      AppendU64(out, r.batch.size());
      out->append("\r\n");
      for (const Request& inner : r.batch) AppendTo(inner, out);
      return;
  }
}

std::string Serialize(const Request& r) {
  std::string out;
  AppendTo(r, &out);
  return out;
}

namespace {

void AppendValueBlock(std::string* out, const std::string& key,
                      const std::string& data, std::uint32_t flags,
                      bool with_cas, std::uint64_t cas_unique,
                      std::uint64_t ttl_ns) {
  out->append("VALUE ");
  out->append(key);
  out->push_back(' ');
  AppendU64(out, flags);
  out->push_back(' ');
  AppendU64(out, data.size());
  if (with_cas) {
    out->push_back(' ');
    AppendU64(out, cas_unique);
  }
  if (ttl_ns != 0) {
    // Near-cache validity duration. The 'T' prefix keeps the token
    // non-numeric, so pre-TTL parsers skip it instead of mistaking it for
    // a cas unique.
    out->append(" T");
    AppendU64(out, ttl_ns);
  }
  out->append("\r\n");
  out->append(data);
  out->append("\r\n");
}

}  // namespace

void AppendTo(const Response& r, std::string* out) {
  switch (r.type) {
    case ResponseType::kValue:
      if (!r.values.empty()) {
        for (const ValueEntry& v : r.values) {
          AppendValueBlock(out, v.key, v.data, v.flags, r.with_cas,
                           v.cas_unique, v.ttl_ns);
        }
      } else {
        AppendValueBlock(out, r.key, r.data, r.flags, r.with_cas,
                         r.cas_unique, r.ttl_ns);
      }
      out->append("END\r\n");
      return;
    case ResponseType::kEnd: out->append("END\r\n"); return;
    case ResponseType::kStored: out->append("STORED\r\n"); return;
    case ResponseType::kNotStored: out->append("NOT_STORED\r\n"); return;
    case ResponseType::kExists: out->append("EXISTS\r\n"); return;
    case ResponseType::kNotFound: out->append("NOT_FOUND\r\n"); return;
    case ResponseType::kDeleted: out->append("DELETED\r\n"); return;
    case ResponseType::kNumber:
      AppendU64(out, r.number);
      out->append("\r\n");
      return;
    case ResponseType::kError:
      if (r.message.empty()) {
        out->append("ERROR\r\n");
      } else {
        out->append("CLIENT_ERROR ");
        out->append(r.message);
        out->append("\r\n");
      }
      return;
    case ResponseType::kOk: out->append("OK\r\n"); return;
    case ResponseType::kStats:
      out->append(r.message);
      out->append("END\r\n");
      return;
    case ResponseType::kMissToken:
      out->append("MISS_TOKEN ");
      AppendU64(out, r.number);
      out->append("\r\n");
      return;
    case ResponseType::kMissBackoff: out->append("MISS_BACKOFF\r\n"); return;
    case ResponseType::kMissNoLease: out->append("MISS_NOLEASE\r\n"); return;
    case ResponseType::kQValue:
      out->append("QVALUE ");
      AppendU64(out, r.number);
      out->push_back(' ');
      AppendU64(out, r.data.size());
      out->append("\r\n");
      out->append(r.data);
      out->append("\r\n");
      return;
    case ResponseType::kQMiss:
      out->append("QMISS ");
      AppendU64(out, r.number);
      out->append("\r\n");
      return;
    case ResponseType::kReject: out->append("REJECT\r\n"); return;
    case ResponseType::kGranted: out->append("GRANTED\r\n"); return;
    case ResponseType::kId:
      out->append("ID ");
      AppendU64(out, r.number);
      out->append("\r\n");
      return;
    case ResponseType::kMetrics:
      // Sized block like QVALUE: the Prometheus text contains arbitrary
      // lines ('#' comments, label braces) that must not be re-scanned as
      // protocol heads.
      out->append("METRICS ");
      AppendU64(out, r.data.size());
      out->append("\r\n");
      out->append(r.data);
      out->append("\r\n");
      return;
    case ResponseType::kTrace:
      // A TRACE_INFO completeness header plus zero or more self-describing
      // TRACE lines, END-terminated (the STAT pattern; a headerless empty
      // trace is a bare END and parses as kEnd).
      out->append(r.message);
      out->append("END\r\n");
      return;
    case ResponseType::kTransportError:
      out->append("SERVER_ERROR ");
      out->append(r.message.empty() ? "transport failure" : r.message);
      out->append("\r\n");
      return;
    case ResponseType::kBatch:
      out->append("BATCH ");
      AppendU64(out, r.batch.size());
      out->append("\r\n");
      for (const Response& inner : r.batch) AppendTo(inner, out);
      return;
  }
}

std::string Serialize(const Response& r) {
  std::string out;
  AppendTo(r, &out);
  return out;
}

std::optional<Response> ParseResponse(std::string_view bytes,
                                      std::size_t* consumed) {
  std::size_t eol = bytes.find("\r\n");
  if (eol == std::string_view::npos) return std::nullopt;
  std::string_view line = bytes.substr(0, eol);
  auto tokens = SplitTokens(line);
  if (tokens.empty()) return std::nullopt;
  Response resp;
  auto simple = [&](ResponseType t) {
    resp.type = t;
    *consumed = eol + 2;
    return resp;
  };
  std::string_view head = tokens[0];
  if (head == "END") return simple(ResponseType::kEnd);
  if (head == "STORED") return simple(ResponseType::kStored);
  if (head == "NOT_STORED") return simple(ResponseType::kNotStored);
  if (head == "EXISTS") return simple(ResponseType::kExists);
  if (head == "NOT_FOUND") return simple(ResponseType::kNotFound);
  if (head == "DELETED") return simple(ResponseType::kDeleted);
  if (head == "OK") return simple(ResponseType::kOk);
  if (head == "MISS_BACKOFF") return simple(ResponseType::kMissBackoff);
  if (head == "MISS_NOLEASE") return simple(ResponseType::kMissNoLease);
  if (head == "REJECT") return simple(ResponseType::kReject);
  if (head == "GRANTED") return simple(ResponseType::kGranted);
  if (head == "ERROR") return simple(ResponseType::kError);
  if (head == "CLIENT_ERROR") {
    resp.type = ResponseType::kError;
    resp.message = line.size() > 13 ? std::string(line.substr(13)) : "";
    *consumed = eol + 2;
    return resp;
  }
  if (head == "SERVER_ERROR") {
    resp.type = ResponseType::kTransportError;
    resp.message = line.size() > 13 ? std::string(line.substr(13)) : "";
    *consumed = eol + 2;
    return resp;
  }
  if (head == "MISS_TOKEN" || head == "QMISS" || head == "ID") {
    if (tokens.size() != 2) return std::nullopt;
    auto n = ParseU64(tokens[1]);
    if (!n) return std::nullopt;
    resp.type = head == "MISS_TOKEN" ? ResponseType::kMissToken
                : head == "QMISS"    ? ResponseType::kQMiss
                                     : ResponseType::kId;
    resp.number = *n;
    *consumed = eol + 2;
    return resp;
  }
  if (head == "VALUE") {
    // One or more VALUE blocks (multi-key get), terminated by END.
    resp.type = ResponseType::kValue;
    std::size_t off = 0;
    while (true) {
      if (bytes.size() - off >= 5 && bytes.compare(off, 5, "END\r\n") == 0) {
        *consumed = off + 5;
        break;
      }
      std::size_t block_eol = bytes.find("\r\n", off);
      if (block_eol == std::string_view::npos) return std::nullopt;
      auto btok = SplitTokens(bytes.substr(off, block_eol - off));
      if (btok.size() < 4 || btok[0] != "VALUE") return std::nullopt;
      auto flags = ParseU64(btok[2]);
      auto size = ParseU64(btok[3]);
      if (!flags || !size || *size > kMaxPayloadBytes) return std::nullopt;
      std::size_t avail = bytes.size() - (block_eol + 2);
      if (avail < *size || avail - *size < 2) return std::nullopt;
      std::size_t data_end = block_eol + 2 + *size + 2;
      ValueEntry entry;
      entry.key = std::string(btok[1]);
      entry.flags = static_cast<std::uint32_t>(*flags);
      entry.data = std::string(bytes.substr(block_eol + 2, *size));
      for (std::size_t i = 4; i < btok.size(); ++i) {
        if (!btok[i].empty() && btok[i][0] == 'T') {
          // Trailing near-cache validity duration (see protocol.h).
          if (auto ttl = ParseU64(btok[i].substr(1))) entry.ttl_ns = *ttl;
        } else if (auto cas = ParseU64(btok[i])) {
          entry.cas_unique = *cas;
          resp.with_cas = true;
        }
      }
      resp.values.push_back(std::move(entry));
      off = data_end;
    }
    // Mirror the first hit into the single-value fields so single-key
    // callers (get/gets/iqget) keep reading resp.data as before.
    resp.key = resp.values.front().key;
    resp.flags = resp.values.front().flags;
    resp.cas_unique = resp.values.front().cas_unique;
    resp.ttl_ns = resp.values.front().ttl_ns;
    resp.data = resp.values.front().data;
    return resp;
  }
  if (head == "QVALUE") {
    if (tokens.size() != 3) return std::nullopt;
    auto token = ParseU64(tokens[1]);
    auto size = ParseU64(tokens[2]);
    if (!token || !size || *size > kMaxPayloadBytes) return std::nullopt;
    std::size_t avail = bytes.size() - (eol + 2);
    if (avail < *size || avail - *size < 2) return std::nullopt;
    std::size_t total = eol + 2 + *size + 2;
    resp.type = ResponseType::kQValue;
    resp.number = *token;
    resp.data = std::string(bytes.substr(eol + 2, *size));
    *consumed = total;
    return resp;
  }
  if (head == "STAT") {
    // Collect STAT lines up to END.
    std::size_t end = bytes.find("END\r\n");
    if (end == std::string_view::npos) return std::nullopt;
    resp.type = ResponseType::kStats;
    resp.message = std::string(bytes.substr(0, end));
    *consumed = end + 5;
    return resp;
  }
  if (head == "METRICS") {
    if (tokens.size() != 2) return std::nullopt;
    auto size = ParseU64(tokens[1]);
    if (!size || *size > kMaxPayloadBytes) return std::nullopt;
    std::size_t avail = bytes.size() - (eol + 2);
    if (avail < *size || avail - *size < 2) return std::nullopt;
    resp.type = ResponseType::kMetrics;
    resp.data = std::string(bytes.substr(eol + 2, *size));
    *consumed = eol + 2 + *size + 2;
    return resp;
  }
  if (head == "BATCH") {
    if (tokens.size() != 2) return std::nullopt;
    auto n = ParseU64(tokens[1]);
    if (!n) return std::nullopt;
    // No reserve(*n): the count is the peer's claim, the bytes are not.
    resp.type = ResponseType::kBatch;
    std::size_t off = eol + 2;
    for (std::uint64_t i = 0; i < *n; ++i) {
      std::string_view rest = bytes.substr(off);
      // Frames never nest; refusing one keeps the parse non-recursive.
      if (rest.starts_with("BATCH")) return std::nullopt;
      std::size_t used = 0;
      auto inner = ParseResponse(rest, &used);
      if (!inner) return std::nullopt;
      resp.batch.push_back(std::move(*inner));
      off += used;
    }
    *consumed = off;
    return resp;
  }
  if (head == "TRACE" || head == "TRACE_INFO") {
    // Collect TRACE_INFO/TRACE lines up to END (same shape as STAT).
    std::size_t end = bytes.find("END\r\n");
    if (end == std::string_view::npos) return std::nullopt;
    resp.type = ResponseType::kTrace;
    resp.message = std::string(bytes.substr(0, end));
    *consumed = end + 5;
    return resp;
  }
  // A bare number (incr/decr result).
  if (auto n = ParseU64(head); n && tokens.size() == 1) {
    resp.type = ResponseType::kNumber;
    resp.number = *n;
    *consumed = eol + 2;
    return resp;
  }
  return std::nullopt;
}

}  // namespace iq::net
