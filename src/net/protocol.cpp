#include "net/protocol.h"

#include <algorithm>
#include <charconv>
#include <unordered_map>
#include <utility>

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

/// The space-separated tokens of one line. Only the first kMax are kept;
/// `count` counts them all, so an arity check sees every token.
struct Tokens {
  static constexpr std::size_t kMax = 6;  // widest fixed line: cas; VALUE
  std::string_view tok[kMax];
  std::size_t count = 0;
};

Tokens Tokenize(std::string_view line) {
  Tokens t;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) {
      if (t.count < Tokens::kMax) t.tok[t.count] = line.substr(start, i - start);
      ++t.count;
    }
  }
  return t;
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
/// malformed lines. Fills the non-payload fields of *req; a get's keys go to
/// *keys unless it is null.
std::optional<std::size_t> ParseCommandLine(
    const Tokens& tok, std::string_view line, const CommandInfo& info,
    RequestView* req, std::vector<std::string_view>* keys,
    std::string* error) {
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
      if (tok.count < 2) return fail("bad argument count");
      req->key = tok.tok[1];
      if (keys != nullptr) {
        keys->clear();
        std::size_t i = static_cast<std::size_t>(tok.tok[1].data() - line.data());
        while (i < line.size()) {
          std::size_t start = i;
          while (i < line.size() && line[i] != ' ') ++i;
          if (i > start) keys->push_back(line.substr(start, i - start));
          while (i < line.size() && line[i] == ' ') ++i;
        }
        req->keys = *keys;
      }
      return 0;
    case Command::kDelete:
      if (tok.count != 2) return fail("bad argument count");
      req->key = tok.tok[1];
      return 0;
    case Command::kSet:
    case Command::kAdd:
    case Command::kReplace:
    case Command::kAppend:
    case Command::kPrepend: {
      if (tok.count != 5) return fail("bad argument count");
      req->key = tok.tok[1];
      auto flags = ParseU64(tok.tok[2]);
      auto exptime = ParseI64(tok.tok[3]);
      auto bytes = ParseU64(tok.tok[4]);
      if (!flags || !exptime || !bytes) return fail("bad numeric field");
      req->flags = static_cast<std::uint32_t>(*flags);
      req->exptime = *exptime;
      return *bytes;
    }
    case Command::kCas: {
      if (tok.count != 6) return fail("bad argument count");
      req->key = tok.tok[1];
      auto flags = ParseU64(tok.tok[2]);
      auto exptime = ParseI64(tok.tok[3]);
      auto bytes = ParseU64(tok.tok[4]);
      auto unique = ParseU64(tok.tok[5]);
      if (!flags || !exptime || !bytes || !unique) return fail("bad numeric field");
      req->flags = static_cast<std::uint32_t>(*flags);
      req->exptime = *exptime;
      req->cas_unique = *unique;
      return *bytes;
    }
    case Command::kIncr:
    case Command::kDecr: {
      if (tok.count != 3) return fail("bad argument count");
      req->key = tok.tok[1];
      auto amount = ParseU64(tok.tok[2]);
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
      if (tok.count != 1) return fail("bad argument count");
      return 0;
    case Command::kTrace: {
      // Optional event count: `trace` or `trace <n>`. 0 (or omitted) means
      // the server default.
      if (tok.count > 2) return fail("bad argument count");
      if (tok.count == 2) {
        auto n = ParseU64(tok.tok[1]);
        if (!n) return fail("bad event count");
        req->amount = *n;
      }
      return 0;
    }
    case Command::kIQGet:
    case Command::kQaRead: {
      if (tok.count != 3) return fail("bad argument count");
      req->key = tok.tok[1];
      auto session = ParseU64(tok.tok[2]);
      if (!session) return fail("bad session id");
      req->session = *session;
      return 0;
    }
    case Command::kIQSet:
    case Command::kSaR: {
      if (tok.count != 4) return fail("bad argument count");
      req->key = tok.tok[1];
      auto token = ParseU64(tok.tok[2]);
      auto bytes = ParseU64(tok.tok[3]);
      if (!token || !bytes) return fail("bad numeric field");
      req->token = *token;
      return *bytes;
    }
    case Command::kSaRNull: {
      if (tok.count != 3) return fail("bad argument count");
      req->key = tok.tok[1];
      auto token = ParseU64(tok.tok[2]);
      if (!token) return fail("bad token");
      req->token = *token;
      return 0;
    }
    case Command::kQaReg:
    case Command::kRelease: {
      if (tok.count != 3) return fail("bad argument count");
      auto tid = ParseU64(tok.tok[1]);
      if (!tid) return fail("bad tid");
      req->session = *tid;
      req->key = tok.tok[2];
      return 0;
    }
    case Command::kDaR:
    case Command::kCommit:
    case Command::kAbort: {
      if (tok.count != 2) return fail("bad argument count");
      auto tid = ParseU64(tok.tok[1]);
      if (!tid) return fail("bad tid");
      req->session = *tid;
      return 0;
    }
    case Command::kIQAppend:
    case Command::kIQPrepend: {
      if (tok.count != 4) return fail("bad argument count");
      auto tid = ParseU64(tok.tok[1]);
      auto bytes = ParseU64(tok.tok[3]);
      if (!tid || !bytes) return fail("bad numeric field");
      req->session = *tid;
      req->key = tok.tok[2];
      return *bytes;
    }
    case Command::kIQIncr:
    case Command::kIQDecr: {
      if (tok.count != 4) return fail("bad argument count");
      auto tid = ParseU64(tok.tok[1]);
      auto amount = ParseU64(tok.tok[3]);
      if (!tid || !amount) return fail("bad numeric field");
      req->session = *tid;
      req->key = tok.tok[2];
      req->amount = *amount;
      return 0;
    }
    case Command::kBatch: {
      // The header only; RequestParser::Next collects the framed requests.
      if (tok.count != 2) return fail("bad argument count");
      auto n = ParseU64(tok.tok[1]);
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

namespace {

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
  auto it = CommandTable().find(tokens.tok[0]);
  if (it == CommandTable().end()) {
    *error = "unknown command '" + std::string(tokens.tok[0]) + "'";
    return Status::kError;
  }
  *out = RequestView{};
  auto payload = ParseCommandLine(tokens, line, it->second, out, keys, error);
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

/// The request writer behind AppendTo, once CanCarry has passed.
void AppendRequest(const RequestView& r, std::string* out) {
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
        for (std::string_view k : r.keys) {
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
      for (const RequestView& inner : r.batch) AppendRequest(inner, out);
      return;
  }
}

/// An owning copy of `v`.
Request ToRequest(const RequestView& v) {
  Request r;
  r.command = v.command;
  r.key = v.key;
  for (std::string_view k : v.keys) r.keys.emplace_back(k);
  r.data = v.data;
  r.flags = v.flags;
  r.exptime = v.exptime;
  r.cas_unique = v.cas_unique;
  r.amount = v.amount;
  r.token = v.token;
  r.session = v.session;
  for (const RequestView& inner : v.batch) r.batch.push_back(ToRequest(inner));
  return r;
}

}  // namespace

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
  switch (r.command) {
    case Command::kGet:
    case Command::kGets:
      if (r.keys.empty()) return CarriableKey(r.key);
      for (std::string_view k : r.keys) {
        if (!CarriableKey(k)) return false;
      }
      return true;
    case Command::kBatch:
      for (const RequestView& inner : r.batch) {
        if (!CanCarry(inner)) return false;
      }
      return true;
    case Command::kFlushAll:
    case Command::kStats:
    case Command::kQuit:
    case Command::kGenId:
    case Command::kDaR:
    case Command::kCommit:
    case Command::kAbort:
    case Command::kSweep:
    case Command::kMetrics:
    case Command::kTrace:
      return true;
    default:
      return CarriableKey(r.key);
  }
}

bool AppendTo(const RequestView& request, std::string* out) {
  if (!CanCarry(request)) return false;
  AppendRequest(request, out);
  return true;
}

RequestView ViewOf(const Request& r, std::vector<std::string_view>* keys,
                   std::vector<RequestView>* batch) {
  RequestView v;
  v.command = r.command;
  v.key = r.key;
  v.data = r.data;
  v.flags = r.flags;
  v.exptime = r.exptime;
  v.cas_unique = r.cas_unique;
  v.amount = r.amount;
  v.token = r.token;
  v.session = r.session;
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

void AppendValueBlock(const ValueView& v, std::string* out) {
  out->append("VALUE ");
  out->append(v.key);
  out->push_back(' ');
  AppendU64(out, v.flags);
  out->push_back(' ');
  AppendU64(out, v.data.size());
  if (v.with_cas) {
    out->push_back(' ');
    AppendU64(out, v.cas_unique);
  }
  if (v.ttl_ns != 0) {
    // Near-cache validity duration. The 'T' prefix keeps the token
    // non-numeric, so pre-TTL parsers skip it instead of mistaking it for
    // a cas unique.
    out->append(" T");
    AppendU64(out, v.ttl_ns);
  }
  out->append("\r\n");
  out->append(v.data);
  out->append("\r\n");
}

void AppendTo(const ResponseView& r, std::string* out) {
  switch (r.type) {
    case ResponseType::kValue: {
      ValueView v;
      v.key = r.key;
      v.data = r.data;
      v.flags = r.flags;
      v.cas_unique = r.cas_unique;
      v.with_cas = r.with_cas;
      v.ttl_ns = r.ttl_ns;
      AppendValueBlock(v, out);
      out->append("END\r\n");
      return;
    }
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
      AppendU64(out, r.number);
      out->append("\r\n");
      return;
  }
}

void AppendError(std::string_view message, std::string* out) {
  ResponseView error;
  error.type = ResponseType::kError;
  error.message = message;
  AppendTo(error, out);
}

namespace {

ResponseView ViewOf(const Response& r) {
  ResponseView v;
  v.type = r.type;
  v.key = r.key;
  v.data = r.data;
  v.flags = r.flags;
  v.cas_unique = r.cas_unique;
  v.with_cas = r.with_cas;
  v.ttl_ns = r.ttl_ns;
  v.number = r.type == ResponseType::kBatch ? r.batch.size() : r.number;
  v.message = r.message;
  return v;
}

Response ToResponse(const ResponseView& v) {
  Response r;
  r.type = v.type;
  r.key = v.key;
  r.data = v.data;
  r.flags = v.flags;
  r.cas_unique = v.cas_unique;
  r.with_cas = v.with_cas;
  r.ttl_ns = v.ttl_ns;
  r.number = v.number;
  r.message = v.message;
  std::string_view blocks = v.values;
  ValueView e;
  while (NextValue(&blocks, &e)) {
    r.values.push_back({std::string(e.key), std::string(e.data), e.flags,
                        e.cas_unique, e.ttl_ns});
  }
  return r;
}

/// The VALUE block at the front of `bytes`, whose line ends at `eol` and
/// tokenizes as `t`. Returns the offset past its data block, or 0 when the
/// block is malformed or not yet whole.
std::size_t ReadValueBlock(std::string_view bytes, std::size_t eol,
                           const Tokens& t, ValueView* out) {
  if (t.count < 4 || t.tok[0] != "VALUE") return 0;
  auto flags = ParseU64(t.tok[2]);
  auto size = ParseU64(t.tok[3]);
  if (!flags || !size || *size > kMaxPayloadBytes) return 0;
  std::size_t avail = bytes.size() - (eol + 2);
  if (avail < *size || avail - *size < 2) return 0;
  *out = ValueView{};
  out->key = t.tok[1];
  out->flags = static_cast<std::uint32_t>(*flags);
  out->data = bytes.substr(eol + 2, *size);
  for (std::size_t i = 4; i < std::min(t.count, Tokens::kMax); ++i) {
    if (t.tok[i][0] == 'T') {
      // Trailing near-cache validity duration (see protocol.h).
      if (auto ttl = ParseU64(t.tok[i].substr(1))) out->ttl_ns = *ttl;
    } else if (auto cas = ParseU64(t.tok[i])) {
      out->cas_unique = *cas;
      out->with_cas = true;
    }
  }
  return eol + 2 + *size + 2;
}

/// The response heads that are the whole response.
constexpr std::pair<std::string_view, ResponseType> kBareHeads[] = {
    {"END", ResponseType::kEnd},
    {"STORED", ResponseType::kStored},
    {"NOT_STORED", ResponseType::kNotStored},
    {"EXISTS", ResponseType::kExists},
    {"NOT_FOUND", ResponseType::kNotFound},
    {"DELETED", ResponseType::kDeleted},
    {"OK", ResponseType::kOk},
    {"MISS_BACKOFF", ResponseType::kMissBackoff},
    {"MISS_NOLEASE", ResponseType::kMissNoLease},
    {"REJECT", ResponseType::kReject},
    {"GRANTED", ResponseType::kGranted},
    {"ERROR", ResponseType::kError},
};

}  // namespace

void AppendTo(const Response& r, std::string* out) {
  if (r.type == ResponseType::kValue && !r.values.empty()) {
    for (const ValueEntry& e : r.values) {
      ValueView v;
      v.key = e.key;
      v.data = e.data;
      v.flags = e.flags;
      v.cas_unique = e.cas_unique;
      v.with_cas = r.with_cas;
      v.ttl_ns = e.ttl_ns;
      AppendValueBlock(v, out);
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
  std::size_t eol = bytes.find("\r\n");
  if (eol == std::string_view::npos) return 0;
  std::string_view line = bytes.substr(0, eol);
  Tokens tokens = Tokenize(line);
  if (tokens.count == 0) return 0;
  *out = ResponseView{};
  const std::size_t line_end = eol + 2;
  const std::string_view head = tokens.tok[0];
  // The sized data block after the head line: its end, or 0.
  auto block_end = [&](std::optional<std::uint64_t> size) -> std::size_t {
    if (!size || *size > kMaxPayloadBytes) return 0;
    std::size_t avail = bytes.size() - line_end;
    if (avail < *size || avail - *size < 2) return 0;
    out->data = bytes.substr(line_end, *size);
    return line_end + *size + 2;
  };
  // STAT and TRACE lines run to END, one response.
  auto lines_to_end = [&](ResponseType type) -> std::size_t {
    std::size_t end = bytes.find("END\r\n");
    if (end == std::string_view::npos) return 0;
    out->type = type;
    out->message = bytes.substr(0, end);
    return end + 5;
  };
  if (head == "VALUE") {
    // One or more VALUE blocks (multi-key get), terminated by END. The
    // first block's fields are mirrored into the single-value fields.
    out->type = ResponseType::kValue;
    std::size_t at = 0;
    std::size_t block_eol = eol;
    while (true) {
      ValueView v;
      std::size_t end = ReadValueBlock(bytes.substr(at), block_eol - at,
                                       tokens, &v);
      if (end == 0) return 0;
      if (at == 0) {
        out->key = v.key;
        out->data = v.data;
        out->flags = v.flags;
        out->cas_unique = v.cas_unique;
        out->ttl_ns = v.ttl_ns;
      }
      out->with_cas = out->with_cas || v.with_cas;
      at += end;
      if (bytes.substr(at).starts_with("END\r\n")) {
        out->values = bytes.substr(0, at);
        return at + 5;
      }
      block_eol = bytes.find("\r\n", at);
      if (block_eol == std::string_view::npos) return 0;
      tokens = Tokenize(bytes.substr(at, block_eol - at));
    }
  }
  for (const auto& [text, type] : kBareHeads) {
    if (head == text) {
      out->type = type;
      return line_end;
    }
  }
  if (head == "QVALUE") {
    if (tokens.count != 3) return 0;
    auto token = ParseU64(tokens.tok[1]);
    if (!token) return 0;
    out->type = ResponseType::kQValue;
    out->number = *token;
    return block_end(ParseU64(tokens.tok[2]));
  }
  if (head == "MISS_TOKEN" || head == "QMISS" || head == "ID") {
    if (tokens.count != 2) return 0;
    auto n = ParseU64(tokens.tok[1]);
    if (!n) return 0;
    out->type = head == "MISS_TOKEN" ? ResponseType::kMissToken
                : head == "QMISS"    ? ResponseType::kQMiss
                                     : ResponseType::kId;
    out->number = *n;
    return line_end;
  }
  if (head == "CLIENT_ERROR" || head == "SERVER_ERROR") {
    out->type = head == "CLIENT_ERROR" ? ResponseType::kError
                                       : ResponseType::kTransportError;
    if (line.size() > 13) out->message = line.substr(13);
    return line_end;
  }
  if (head == "BATCH") {
    if (tokens.count != 2) return 0;
    auto n = ParseU64(tokens.tok[1]);
    if (!n) return 0;
    // No reserve(*n): the count is the peer's claim, the bytes are not.
    if (batch != nullptr) batch->clear();
    std::size_t off = line_end;
    for (std::uint64_t i = 0; i < *n; ++i) {
      std::string_view rest = bytes.substr(off);
      // Frames never nest; refusing one keeps the parse non-recursive.
      if (rest.starts_with("BATCH")) return 0;
      ResponseView inner;
      std::size_t used = ReadResponse(rest, &inner, nullptr);
      if (used == 0) return 0;
      if (batch != nullptr) batch->push_back(inner);
      off += used;
    }
    out->type = ResponseType::kBatch;
    out->number = *n;
    return off;
  }
  if (head == "STAT") return lines_to_end(ResponseType::kStats);
  if (head == "TRACE" || head == "TRACE_INFO") {
    return lines_to_end(ResponseType::kTrace);
  }
  if (head == "METRICS") {
    if (tokens.count != 2) return 0;
    out->type = ResponseType::kMetrics;
    return block_end(ParseU64(tokens.tok[1]));
  }
  // A bare number (incr/decr result).
  if (auto n = ParseU64(head); n && tokens.count == 1) {
    out->type = ResponseType::kNumber;
    out->number = *n;
    return line_end;
  }
  return 0;
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
