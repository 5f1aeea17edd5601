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
  const std::string templates[] = {
      "set key 0 0 5\r\nhello\r\n",
      "get key\r\n",
      "cas key 1 0 3 42\r\nabc\r\n",
      "iqget key 7\r\n",
      "qaread key 7\r\n",
      "sar key 9 4\r\ndata\r\n",
      "iqappend 3 key 2\r\nxy\r\n",
      "commit 3\r\n",
      "batch 2\r\nqaread key 7\r\nqareg 7 k2\r\n",
      "batch 3\r\nsar key 9 4\r\ndata\r\nsarnull k2 4\r\ncommit 7\r\n",
  };
  for (int round = 0; round < 2000; ++round) {
    std::string bytes =
        Mutate(rng, templates[rng.NextUint64(std::size(templates))]);
    parser.Feed(bytes);
    Request req;
    std::string error;
    for (int i = 0; i < 100; ++i) {
      auto status = parser.Next(&req, &error);
      if (status == RequestParser::Status::kNeedMore) break;
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
  const std::string frames[] = {
      "batch 3\r\nqaread a 7\r\niqincr 7 b 2\r\nqareg 7 c\r\n",
      "batch 2\r\nsar a 9 4\r\ndata\r\ncommit 7\r\n",
      "batch 2\r\niqappend 7 a 2\r\nxy\r\ndar 7\r\n",
  };
  IQServer server;
  LoopbackChannel channel(server);
  for (int round = 0; round < 1000; ++round) {
    std::string bytes = Mutate(rng, frames[rng.NextUint64(std::size(frames))]);
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
  const std::string templates[] = {
      "set key 0 0 5\r\nhello\r\n",
      "get key other\r\n",
      "iqget key 7\r\n",
      "qaread key 7\r\n",
      "sar key 9 4\r\ndata\r\n",
      "commit 3\r\n",
      "quit\r\n",
      "batch 2\r\nqaread key 7\r\nqareg 7 k2\r\n",
      "batch 3\r\nsar key 9 4\r\ndata\r\nsarnull k2 4\r\ncommit 7\r\n",
  };
  IQServer server;
  for (int round = 0; round < 1000; ++round) {
    std::string bytes;
    if (round % 2 == 0) {
      bytes = RandomBytes(rng, 64);
      if (rng.NextUint64(2) == 0) bytes += "\r\n";
    } else {
      for (std::uint64_t n = 1 + rng.NextUint64(4); n > 0; --n) {
        bytes += templates[rng.NextUint64(std::size(templates))];
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
