// Robustness fuzzing: random and mutated byte streams against the protocol
// parser, the full dispatcher, the stats/metrics text parsers, and the two
// history parsers iqcheck reads (lease traces and op logs). The server must
// never crash, hang, or corrupt state on arbitrary input - it may only
// answer with errors.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/oplog.h"
#include "net/channel.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "util/rng.h"
#include "util/trace_ring.h"

namespace iq::net {
namespace {

std::string RandomBytes(Rng& rng, std::size_t max_len) {
  std::size_t len = rng.NextUint64(max_len);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out += static_cast<char>(rng.NextUint64(256));
  }
  return out;
}

/// Mutate a valid request: flip bytes, truncate, duplicate.
std::string Mutate(Rng& rng, std::string bytes) {
  switch (rng.NextUint64(4)) {
    case 0: {  // flip a byte
      if (!bytes.empty()) {
        bytes[rng.NextUint64(bytes.size())] =
            static_cast<char>(rng.NextUint64(256));
      }
      return bytes;
    }
    case 1:  // truncate
      return bytes.substr(0, rng.NextUint64(bytes.size() + 1));
    case 2:  // duplicate a prefix
      return bytes.substr(0, rng.NextUint64(bytes.size() + 1)) + bytes;
    default:  // splice random garbage into the middle
      if (bytes.empty()) return bytes;
      return bytes.substr(0, bytes.size() / 2) + RandomBytes(rng, 8) +
             bytes.substr(bytes.size() / 2);
  }
}

/// A valid request of every verb, `batch` frames included: the corpus the
/// request mutations are drawn from, so every row of the grammar is fuzzed.
const std::vector<std::string>& ValidRequests() {
  static const auto* requests = new std::vector<std::string>{
      "get key\r\n",
      "gets key other third\r\n",
      "set key 7 11 5\r\nhello\r\n",
      "add key 0 60 1\r\nx\r\n",
      "replace key 3 0 2\r\nxy\r\n",
      "cas key 1 0 3 42\r\nabc\r\n",
      "append key 0 0 1\r\nz\r\n",
      "prepend key 0 0 1\r\na\r\n",
      "delete key\r\n",
      "incr n 5\r\n",
      "decr n 2\r\n",
      "flush_all\r\n",
      "stats\r\n",
      "quit\r\n",
      "iqget key 7\r\n",
      "iqset key 9 4\r\ndata\r\n",
      "qaread key 7\r\n",
      "sar key 9 4\r\ndata\r\n",
      "sarnull key 9\r\n",
      "genid\r\n",
      "qareg 7 k2\r\n",
      "dar 7\r\n",
      "iqappend 3 key 2\r\nxy\r\n",
      "iqprepend 3 key 1\r\nw\r\n",
      "iqincr 3 n 2\r\n",
      "iqdecr 3 n 1\r\n",
      "commit 3\r\n",
      "abort 3\r\n",
      "release 3 key\r\n",
      "sweep\r\n",
      "metrics\r\n",
      "trace\r\n",
      "trace 5\r\n",
      "batch 2\r\nqaread key 7\r\nqareg 7 k2\r\n",
      "batch 3\r\nsar key 9 4\r\ndata\r\nsarnull k2 4\r\ncommit 7\r\n",
      "batch 3\r\nqaread a 7\r\niqincr 7 b 2\r\nqareg 7 c\r\n",
      "batch 2\r\niqappend 7 a 2\r\nxy\r\ndar 7\r\n",
      "batch 2\r\niqprepend 7 a 1\r\nz\r\niqdecr 7 b 3\r\n",
  };
  return *requests;
}

/// The `batch` frames of ValidRequests().
std::vector<std::string> ValidFrames() {
  std::vector<std::string> frames;
  for (const std::string& r : ValidRequests()) {
    if (r.starts_with("batch ")) frames.push_back(r);
  }
  return frames;
}

/// A valid reply of every head.
const std::vector<std::string>& ValidReplies() {
  static const auto* replies = new std::vector<std::string>{
      "VALUE k 7 3 13 T29\r\nabc\r\nVALUE j 0 1\r\nx\r\nEND\r\n",
      "END\r\n",
      "STORED\r\n",
      "NOT_STORED\r\n",
      "EXISTS\r\n",
      "NOT_FOUND\r\n",
      "DELETED\r\n",
      "17\r\n",
      "ERROR\r\n",
      "CLIENT_ERROR bad data chunk\r\n",
      "OK\r\n",
      "STAT pid 1\r\nSTAT commits 2\r\nEND\r\n",
      "MISS_TOKEN 19\r\n",
      "MISS_BACKOFF\r\n",
      "MISS_NOLEASE\r\n",
      "QVALUE 19 3\r\nabc\r\n",
      "QMISS 19\r\n",
      "REJECT\r\n",
      "GRANTED\r\n",
      "ID 23\r\n",
      "METRICS 13\r\niq_commits 2\n\r\n",
      "TRACE_INFO 1 0 16\r\nTRACE 1 100 0 q_ref_grant 23 7\r\nEND\r\n",
      "BATCH 3\r\nQVALUE 19 3\r\nabc\r\nGRANTED\r\nREJECT\r\n",
      "SERVER_ERROR transport failure\r\n",
  };
  return *replies;
}

std::string Pick(Rng& rng, const std::vector<std::string>& from) {
  return from[rng.NextUint64(from.size())];
}

bool SameRequest(const Request& a, const Request& b) {
  if (a.command != b.command || a.key != b.key || a.keys != b.keys ||
      a.data != b.data || a.flags != b.flags || a.exptime != b.exptime ||
      a.cas_unique != b.cas_unique || a.amount != b.amount ||
      a.token != b.token || a.session != b.session ||
      a.batch.size() != b.batch.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.batch.size(); ++i) {
    if (!SameRequest(a.batch[i], b.batch[i])) return false;
  }
  return true;
}

/// True when a key of `r`, or of its frame's requests, holds a CR or LF:
/// lines split only at CRLF, so such a key reads, but no writer sends it.
bool KeyHoldsLineBreak(const Request& r) {
  auto breaks = [](const std::string& key) {
    return key.find_first_of("\r\n") != std::string::npos;
  };
  bool found = breaks(r.key);
  for (const std::string& k : r.keys) found = found || breaks(k);
  for (const Request& inner : r.batch) found = found || KeyHoldsLineBreak(inner);
  return found;
}

/// A request that parsed writes back to bytes that parse to the same value.
void ExpectWritesBack(const Request& request) {
  const std::string bytes = Serialize(request);
  if (bytes.empty()) {
    EXPECT_TRUE(KeyHoldsLineBreak(request)) << ToString(request.command);
    return;
  }
  RequestParser parser;
  parser.Feed(bytes);
  Request again;
  std::string error;
  ASSERT_EQ(parser.Next(&again, &error), RequestParser::Status::kOk)
      << bytes << error;
  EXPECT_EQ(parser.buffered(), 0u) << bytes;
  EXPECT_TRUE(SameRequest(again, request)) << bytes;
}

bool SameResponse(const Response& a, const Response& b) {
  if (a.type != b.type || a.key != b.key || a.data != b.data ||
      a.flags != b.flags || a.cas_unique != b.cas_unique ||
      a.with_cas != b.with_cas || a.ttl_ns != b.ttl_ns ||
      a.number != b.number || a.message != b.message ||
      a.values.size() != b.values.size() || a.batch.size() != b.batch.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    const ValueEntry& x = a.values[i];
    const ValueEntry& y = b.values[i];
    if (x.key != y.key || x.data != y.data || x.flags != y.flags ||
        x.cas_unique != y.cas_unique || x.ttl_ns != y.ttl_ns) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.batch.size(); ++i) {
    if (!SameResponse(a.batch[i], b.batch[i])) return false;
  }
  return true;
}

/// The value a reply writes back as: a SERVER_ERROR without a message is
/// written with the default text.
Response Written(Response r) {
  if (r.type == ResponseType::kTransportError && r.message.empty()) {
    r.message = "transport failure";
  }
  for (Response& inner : r.batch) inner = Written(std::move(inner));
  return r;
}

class FuzzSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeedTest, ParserSurvivesRandomBytes) {
  Rng rng(GetParam());
  RequestParser parser;
  for (int round = 0; round < 2000; ++round) {
    parser.Feed(RandomBytes(rng, 64));
    Request req;
    std::string error;
    // Drain until the parser wants more input; every outcome is fine as
    // long as nothing crashes and errors carry a message.
    for (int i = 0; i < 100; ++i) {
      auto status = parser.Next(&req, &error);
      if (status == RequestParser::Status::kNeedMore) break;
      if (status == RequestParser::Status::kError) {
        EXPECT_FALSE(error.empty());
      }
    }
    // The buffer must not grow without bound on garbage (only an
    // incomplete trailing request may remain).
    if (parser.buffered() > 1 << 20) {
      FAIL() << "parser buffer ballooned";
    }
  }
}

TEST_P(FuzzSeedTest, ParserSurvivesMutatedValidRequests) {
  Rng rng(GetParam() + 1000);
  RequestParser parser;
  for (int round = 0; round < 2000; ++round) {
    std::string bytes = Mutate(rng, Pick(rng, ValidRequests()));
    parser.Feed(bytes);
    Request req;
    std::string error;
    for (int i = 0; i < 100; ++i) {
      auto status = parser.Next(&req, &error);
      if (status == RequestParser::Status::kNeedMore) break;
      if (status == RequestParser::Status::kOk) ExpectWritesBack(req);
    }
    // Periodically hard-reset by feeding a terminator so truncated data
    // blocks cannot starve the stream forever.
    if (round % 50 == 49) {
      parser.Feed("\r\nget reset\r\n");
      for (int i = 0; i < 200; ++i) {
        if (parser.Next(&req, &error) == RequestParser::Status::kNeedMore) {
          break;
        }
      }
    }
  }
  SUCCEED();
}

TEST_P(FuzzSeedTest, DispatcherSurvivesGarbageRoundTrips) {
  Rng rng(GetParam() + 2000);
  IQServer server;
  LoopbackChannel channel(server);
  for (int round = 0; round < 500; ++round) {
    std::string reply;
    EXPECT_TRUE(channel.RoundTrip(RandomBytes(rng, 48) + "\r\n", &reply));
  }
  // The server still works after the abuse.
  RemoteBackend client(channel);
  EXPECT_EQ(client.Set("sane", "value"), StoreResult::kStored);
  EXPECT_EQ(client.Get("sane")->value, "value");
}

TEST_P(FuzzSeedTest, BatchFramesParseWholeOrNotAtAll) {
  // Mutated frames may parse as anything — but a frame that parses is
  // whole (every request it announced, each one batchable, no more than
  // kMaxBatchRequests), and a server fed them keeps serving.
  Rng rng(GetParam() + 5000);
  const std::vector<std::string> frames = ValidFrames();
  IQServer server;
  LoopbackChannel channel(server);
  for (int round = 0; round < 1000; ++round) {
    std::string bytes = Mutate(rng, Pick(rng, frames));
    RequestParser parser;
    parser.Feed(bytes);
    Request req;
    std::string error;
    for (int i = 0; i < 100; ++i) {
      auto status = parser.Next(&req, &error);
      if (status == RequestParser::Status::kNeedMore) break;
      if (status != RequestParser::Status::kOk) continue;
      if (req.command != Command::kBatch) continue;
      EXPECT_FALSE(req.batch.empty());
      EXPECT_LE(req.batch.size(), kMaxBatchRequests);
      for (const Request& inner : req.batch) {
        EXPECT_TRUE(IsBatchable(inner.command)) << ToString(inner.command);
      }
    }
    std::string reply;
    EXPECT_TRUE(channel.RoundTrip(bytes + "\r\n", &reply));
    server.Abort(7);
  }
  RemoteBackend client(channel);
  EXPECT_EQ(client.Set("sane", "value"), StoreResult::kStored);
  EXPECT_EQ(client.Get("sane")->value, "value");
}

TEST_P(FuzzSeedTest, RoundTripAwaitsEveryResponseTheServerSends) {
  // CountRequests is how many responses TcpChannel::RoundTrip waits for.
  // For random bytes and mutated request streams it must equal the
  // responses a LoopbackChannel, fresh each time, answers the same bytes
  // with: one fewer and a reply is left in the socket to desync the next
  // call; one more and the call waits out its deadline.
  Rng rng(GetParam() + 7000);
  IQServer server;
  for (int round = 0; round < 1000; ++round) {
    std::string bytes;
    if (round % 2 == 0) {
      bytes = RandomBytes(rng, 64);
      if (rng.NextUint64(2) == 0) bytes += "\r\n";
    } else {
      for (std::uint64_t n = 1 + rng.NextUint64(4); n > 0; --n) {
        bytes += Pick(rng, ValidRequests());
      }
      bytes = Mutate(rng, bytes);
    }
    LoopbackChannel channel(server);
    std::string reply;
    ASSERT_TRUE(channel.RoundTrip(bytes, &reply));
    std::size_t responses = 0;
    std::string_view rest = reply;
    ResponseView response;
    while (!rest.empty()) {
      std::size_t used = ReadResponse(rest, &response);
      ASSERT_GT(used, 0u) << reply;
      rest.remove_prefix(used);
      ++responses;
    }
    EXPECT_EQ(CountRequests(bytes), responses) << bytes;
  }
}

TEST_P(FuzzSeedTest, ResponseParserSurvivesRandomBytes) {
  Rng rng(GetParam() + 3000);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes = RandomBytes(rng, 64);
    std::size_t consumed = 0;
    auto resp = ParseResponse(bytes, &consumed);
    if (resp) {
      EXPECT_LE(consumed, bytes.size());
    }
  }
}

TEST_P(FuzzSeedTest, ResponseParserSurvivesMutatedValidReplies) {
  // Untrusted server bytes: mutated runs of valid replies may parse as
  // anything, but a reply that parses claims no more bytes than it was
  // given and writes back to bytes that parse to the same value.
  Rng rng(GetParam() + 8000);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes;
    for (std::uint64_t n = 1 + rng.NextUint64(3); n > 0; --n) {
      bytes += Pick(rng, ValidReplies());
    }
    bytes = Mutate(rng, bytes);
    std::size_t consumed = 0;
    std::optional<Response> resp = ParseResponse(bytes, &consumed);
    if (!resp) continue;
    EXPECT_LE(consumed, bytes.size()) << bytes;
    const std::string again = Serialize(*resp);
    std::size_t used = 0;
    std::optional<Response> reparsed = ParseResponse(again, &used);
    ASSERT_TRUE(reparsed) << bytes << " -> " << again;
    EXPECT_EQ(used, again.size()) << again;
    EXPECT_TRUE(SameResponse(*reparsed, Written(*resp))) << bytes << " -> "
                                                         << again;
  }
}

TEST(ResponseParserTest, EveryHeadParsesBare) {
  // Each response head with nothing after it, alone and as a frame's only
  // reply: the parse may wait for more bytes or succeed, but never throws
  // and never claims more bytes than it was given.
  for (std::string_view head :
       {"END", "STORED", "NOT_STORED", "EXISTS", "NOT_FOUND", "DELETED", "OK",
        "MISS_BACKOFF", "MISS_NOLEASE", "REJECT", "GRANTED", "ERROR",
        "CLIENT_ERROR", "SERVER_ERROR", "MISS_TOKEN", "QMISS", "ID", "VALUE",
        "QVALUE", "STAT", "METRICS", "BATCH", "TRACE", "TRACE_INFO", "7"}) {
    const std::string line = std::string(head) + "\r\n";
    for (const std::string& bytes : {line, "BATCH 1\r\n" + line}) {
      std::size_t consumed = 0;
      std::optional<Response> resp;
      EXPECT_NO_THROW(resp = ParseResponse(bytes, &consumed)) << bytes;
      if (resp) {
        EXPECT_LE(consumed, bytes.size()) << bytes;
      }
    }
  }
}

TEST_P(FuzzSeedTest, StatsAndMetricsParsersSurviveMutatedText) {
  Rng rng(GetParam() + 4000);
  IQServer server;
  server.QaRead("k", 1);
  server.command_latencies().Record(0, 900);
  const std::string stats = FormatStats(server);
  const std::string metrics = FormatMetrics(stats);
  for (int round = 0; round < 2000; ++round) {
    std::string text;
    switch (rng.NextUint64(3)) {
      case 0: text = RandomBytes(rng, 64); break;
      case 1: text = Mutate(rng, stats); break;
      default: text = Mutate(rng, metrics); break;
    }
    ParseIQStats(text);
    std::map<std::string, double> series;
    ParseMetrics(text, &series);
    // Whatever the STAT text, its metrics rendering parses back.
    series.clear();
    EXPECT_TRUE(ParseMetrics(FormatMetrics(text), &series)) << text;
  }
}

TEST_P(FuzzSeedTest, TraceAndOpLogParsersSurviveMutatedText) {
  // A parse either fails and leaves its outputs untouched, or yields
  // records whose formatting parses back to the same text.
  Rng rng(GetParam() + 6000);
  const std::vector<TraceEvent> events = {
      {LeaseTraceKind::kIGrant, 0, 7, 11, 100, 1},
      {LeaseTraceKind::kQRefGrant, 3, 8, 12, -5, 2},
      {LeaseTraceKind::kRelease, 15, 8, 12, 300, 3}};
  const std::string trace = FormatTraceInfo({3, 0, 1024}) +
                            FormatTraceEvents(events) + "END\r\n";
  check::OpLog log;
  log.Record(0, check::OpKind::kSeed, 11, 21);
  log.Record(1, check::OpKind::kReadHit, 11, 21);
  log.Record(2, check::OpKind::kWrite, 12, 22);
  log.Record(2, check::OpKind::kInval, 12);
  const std::string oplog = log.Dump();
  for (int round = 0; round < 2000; ++round) {
    std::string text;
    switch (rng.NextUint64(3)) {
      case 0: text = RandomBytes(rng, 64); break;
      case 1: text = Mutate(rng, trace); break;
      default: text = Mutate(rng, oplog); break;
    }
    std::vector<TraceEvent> parsed;
    TraceInfo info{1, 2, 3};
    bool has_info = false;
    if (ParseTraceEvents(text, &parsed, &info, &has_info)) {
      const std::string again = FormatTraceEvents(parsed);
      std::vector<TraceEvent> reparsed;
      ASSERT_TRUE(ParseTraceEvents(again, &reparsed)) << again;
      EXPECT_EQ(FormatTraceEvents(reparsed), again);
    } else {
      EXPECT_TRUE(parsed.empty());
      EXPECT_EQ(FormatTraceInfo(info), FormatTraceInfo({1, 2, 3}));
      EXPECT_FALSE(has_info);
    }
    std::vector<check::OpRecord> records;
    if (check::ParseOpLog(text, &records)) {
      const std::string again = check::FormatOpRecords(records);
      std::vector<check::OpRecord> reparsed;
      ASSERT_TRUE(check::ParseOpLog(again, &reparsed)) << again;
      EXPECT_EQ(check::FormatOpRecords(reparsed), again);
    } else {
      EXPECT_TRUE(records.empty());
    }
  }
  // The unmutated texts parse whole.
  std::vector<TraceEvent> parsed;
  ASSERT_TRUE(ParseTraceEvents(trace, &parsed));
  EXPECT_EQ(FormatTraceEvents(parsed), FormatTraceEvents(events));
  std::vector<check::OpRecord> records;
  ASSERT_TRUE(check::ParseOpLog(oplog, &records));
  EXPECT_EQ(check::FormatOpRecords(records),
            check::FormatOpRecords(log.Snapshot()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace iq::net
