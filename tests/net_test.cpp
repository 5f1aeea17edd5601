#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "casql/casql.h"
#include "core/sharded_backend.h"
#include "net/channel.h"
#include "net/reconnecting_channel.h"
#include "net/remote_backend.h"
#include "net/tcp_server.h"
#include "rdbms/database.h"
#include "stat_lines.h"
#include "util/backoff.h"
#include "util/clock.h"
#include "net/protocol.h"
#include "net/server.h"

namespace iq::net {
namespace {

// ---- request parser ---------------------------------------------------------

TEST(RequestParser, ParsesGet) {
  RequestParser p;
  p.Feed("get somekey\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kGet);
  EXPECT_EQ(r.key, "somekey");
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(RequestParser, ParsesSetWithPayload) {
  RequestParser p;
  p.Feed("set k 7 60 5\r\nhello\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kSet);
  EXPECT_EQ(r.key, "k");
  EXPECT_EQ(r.flags, 7u);
  EXPECT_EQ(r.exptime, 60);
  EXPECT_EQ(r.data, "hello");
}

TEST(RequestParser, PayloadMayContainNewlines) {
  RequestParser p;
  p.Feed("set k 0 0 5\r\na\r\nb!\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.data, "a\r\nb!");
}

TEST(RequestParser, HandlesSplitFeeds) {
  RequestParser p;
  Request r;
  std::string err;
  p.Feed("se");
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kNeedMore);
  p.Feed("t k 0 0 4\r\nda");
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kNeedMore);
  p.Feed("ta\r\n");
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.data, "data");
}

TEST(RequestParser, ParsesPipelinedRequests) {
  RequestParser p;
  p.Feed("get a\r\nget b\r\ndelete c\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.key, "a");
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.key, "b");
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kDelete);
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kNeedMore);
}

TEST(RequestParser, ParsesCas) {
  RequestParser p;
  p.Feed("cas k 1 0 3 999\r\nabc\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kCas);
  EXPECT_EQ(r.cas_unique, 999u);
}

TEST(RequestParser, ParsesIncrDecr) {
  RequestParser p;
  p.Feed("incr n 5\r\ndecr n 2\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kIncr);
  EXPECT_EQ(r.amount, 5u);
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kDecr);
}

TEST(RequestParser, ParsesIQCommands) {
  RequestParser p;
  p.Feed(
      "iqget profile 42\r\n"
      "iqset profile 7 3\r\nabc\r\n"
      "qaread friends 42\r\n"
      "sar friends 9 2\r\nxy\r\n"
      "sarnull friends 9\r\n"
      "genid\r\n"
      "qareg 11 pending\r\n"
      "dar 11\r\n"
      "iqappend 12 list 2\r\n,z\r\n"
      "iqincr 12 count 3\r\n"
      "commit 12\r\n"
      "abort 13\r\n"
      "release 13 friends\r\n");
  Request r;
  std::string err;
  Command expect[] = {Command::kIQGet,   Command::kIQSet,    Command::kQaRead,
                      Command::kSaR,     Command::kSaRNull,  Command::kGenId,
                      Command::kQaReg,   Command::kDaR,      Command::kIQAppend,
                      Command::kIQIncr,  Command::kCommit,   Command::kAbort,
                      Command::kRelease};
  for (Command c : expect) {
    ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk) << ToString(c);
    EXPECT_EQ(r.command, c);
  }
}

TEST(RequestParser, ReportsUnknownCommand) {
  RequestParser p;
  p.Feed("frobnicate k\r\nget ok\r\n");
  Request r;
  std::string err;
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kError);
  EXPECT_NE(err.find("frobnicate"), std::string::npos);
  // Recovers and parses the next request.
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.key, "ok");
}

TEST(RequestParser, ReportsBadArity) {
  RequestParser p;
  p.Feed("get\r\n");
  Request r;
  std::string err;
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kError);
}

TEST(RequestParser, ReportsBadChunkTerminator) {
  RequestParser p;
  p.Feed("set k 0 0 3\r\nabcXX");
  Request r;
  std::string err;
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kError);
}

// Round-trip property: Serialize(request) parses back to an identical
// request, for every command kind.
class RoundTripTest : public ::testing::TestWithParam<Command> {};

TEST_P(RoundTripTest, SerializeThenParseIsIdentity) {
  Request original;
  original.command = GetParam();
  original.key = "some_key";
  original.data = "payload bytes";
  original.flags = 3;
  original.exptime = 120;
  original.cas_unique = 77;
  original.amount = 5;
  original.token = 91;
  original.session = 1234;

  RequestParser p;
  p.Feed(Serialize(original));
  Request parsed;
  std::string err;
  ASSERT_EQ(p.Next(&parsed, &err), RequestParser::Status::kOk) << err;
  EXPECT_EQ(parsed.command, original.command);
  // Only compare the fields the command actually carries.
  switch (original.command) {
    case Command::kSet:
    case Command::kAdd:
    case Command::kReplace:
    case Command::kAppend:
    case Command::kPrepend:
      EXPECT_EQ(parsed.data, original.data);
      EXPECT_EQ(parsed.flags, original.flags);
      EXPECT_EQ(parsed.exptime, original.exptime);
      break;
    case Command::kCas:
      EXPECT_EQ(parsed.cas_unique, original.cas_unique);
      EXPECT_EQ(parsed.data, original.data);
      break;
    case Command::kIncr:
    case Command::kDecr:
    case Command::kIQIncr:
    case Command::kIQDecr:
    case Command::kTrace:
      EXPECT_EQ(parsed.amount, original.amount);
      break;
    case Command::kIQSet:
    case Command::kSaR:
      EXPECT_EQ(parsed.token, original.token);
      EXPECT_EQ(parsed.data, original.data);
      break;
    default:
      break;
  }
}

// The exact bytes each verb writes when every field is set, each to its own
// non-zero value: a field written, or read back, in the wrong order or into
// the wrong member shows here, where the round trip above would miss it.
const std::map<Command, std::string>& PinnedRequests() {
  static const auto* pinned = new std::map<Command, std::string>{
      {Command::kGet, "get some_key\r\n"},
      {Command::kGets, "gets some_key\r\n"},
      {Command::kSet, "set some_key 7 11 3\r\nabc\r\n"},
      {Command::kAdd, "add some_key 7 11 3\r\nabc\r\n"},
      {Command::kReplace, "replace some_key 7 11 3\r\nabc\r\n"},
      {Command::kCas, "cas some_key 7 11 3 13\r\nabc\r\n"},
      {Command::kAppend, "append some_key 7 11 3\r\nabc\r\n"},
      {Command::kPrepend, "prepend some_key 7 11 3\r\nabc\r\n"},
      {Command::kDelete, "delete some_key\r\n"},
      {Command::kIncr, "incr some_key 17\r\n"},
      {Command::kDecr, "decr some_key 17\r\n"},
      {Command::kFlushAll, "flush_all\r\n"},
      {Command::kStats, "stats\r\n"},
      {Command::kQuit, "quit\r\n"},
      {Command::kIQGet, "iqget some_key 23\r\n"},
      {Command::kIQSet, "iqset some_key 19 3\r\nabc\r\n"},
      {Command::kQaRead, "qaread some_key 23\r\n"},
      {Command::kSaR, "sar some_key 19 3\r\nabc\r\n"},
      {Command::kSaRNull, "sarnull some_key 19\r\n"},
      {Command::kGenId, "genid\r\n"},
      {Command::kQaReg, "qareg 23 some_key\r\n"},
      {Command::kDaR, "dar 23\r\n"},
      {Command::kIQAppend, "iqappend 23 some_key 3\r\nabc\r\n"},
      {Command::kIQPrepend, "iqprepend 23 some_key 3\r\nabc\r\n"},
      {Command::kIQIncr, "iqincr 23 some_key 17\r\n"},
      {Command::kIQDecr, "iqdecr 23 some_key 17\r\n"},
      {Command::kCommit, "commit 23\r\n"},
      {Command::kAbort, "abort 23\r\n"},
      {Command::kRelease, "release 23 some_key\r\n"},
      {Command::kSweep, "sweep\r\n"},
      {Command::kMetrics, "metrics\r\n"},
      {Command::kTrace, "trace 17\r\n"},
  };
  return *pinned;
}

TEST_P(RoundTripTest, WritesItsPinnedBytesAndReadsThemBack) {
  Request original;
  original.command = GetParam();
  original.key = "some_key";
  original.data = "abc";
  original.flags = 7;
  original.exptime = 11;
  original.cas_unique = 13;
  original.amount = 17;
  original.token = 19;
  original.session = 23;
  const std::string& pinned = PinnedRequests().at(GetParam());
  EXPECT_EQ(Serialize(original), pinned);

  RequestParser p;
  p.Feed(pinned);
  Request parsed;
  std::string err;
  ASSERT_EQ(p.Next(&parsed, &err), RequestParser::Status::kOk) << err;
  EXPECT_EQ(p.buffered(), 0u);
  EXPECT_EQ(parsed.command, original.command);
  // Every value read lands in its own member: it writes back the same
  // bytes, and a member the verb does not carry stays empty.
  EXPECT_EQ(Serialize(parsed), pinned);
  EXPECT_TRUE(parsed.key.empty() || parsed.key == original.key);
  EXPECT_TRUE(parsed.data.empty() || parsed.data == original.data);
  EXPECT_TRUE(parsed.flags == 0 || parsed.flags == original.flags);
  EXPECT_TRUE(parsed.exptime == 0 || parsed.exptime == original.exptime);
  EXPECT_TRUE(parsed.cas_unique == 0 ||
              parsed.cas_unique == original.cas_unique);
  EXPECT_TRUE(parsed.amount == 0 || parsed.amount == original.amount);
  EXPECT_TRUE(parsed.token == 0 || parsed.token == original.token);
  EXPECT_TRUE(parsed.session == 0 || parsed.session == original.session);
}

TEST(RequestCodec, MultiKeyGetsBareTraceAndFrameWriteTheirPinnedBytes) {
  Request gets;
  gets.command = Command::kGets;
  gets.key = "a";
  gets.keys = {"a", "bb", "c"};
  Request trace;
  trace.command = Command::kTrace;
  Request frame;
  frame.command = Command::kBatch;
  Request qaread;
  qaread.command = Command::kQaRead;
  qaread.key = "a";
  qaread.session = 23;
  Request sar;
  sar.command = Command::kSaR;
  sar.key = "b";
  sar.token = 19;
  sar.data = "abc";
  Request commit;
  commit.command = Command::kCommit;
  commit.session = 23;
  frame.batch = {qaread, sar, commit};
  const std::pair<Request, std::string> cases[] = {
      {gets, "gets a bb c\r\n"},
      {trace, "trace\r\n"},
      {frame,
       "batch 3\r\nqaread a 23\r\nsar b 19 3\r\nabc\r\ncommit 23\r\n"},
  };
  for (const auto& [request, pinned] : cases) {
    EXPECT_EQ(Serialize(request), pinned);
    RequestParser p;
    p.Feed(pinned);
    Request parsed;
    std::string err;
    ASSERT_EQ(p.Next(&parsed, &err), RequestParser::Status::kOk) << err;
    EXPECT_EQ(p.buffered(), 0u);
    EXPECT_EQ(parsed.command, request.command);
    EXPECT_EQ(parsed.keys, request.keys);
    EXPECT_EQ(parsed.amount, request.command == Command::kBatch ? 3u : 0u);
    ASSERT_EQ(parsed.batch.size(), request.batch.size());
    for (std::size_t i = 0; i < parsed.batch.size(); ++i) {
      EXPECT_EQ(parsed.batch[i].command, request.batch[i].command);
      EXPECT_EQ(parsed.batch[i].key, request.batch[i].key);
      EXPECT_EQ(parsed.batch[i].data, request.batch[i].data);
      EXPECT_EQ(parsed.batch[i].token, request.batch[i].token);
      EXPECT_EQ(parsed.batch[i].session, request.batch[i].session);
    }
    EXPECT_EQ(Serialize(parsed), pinned);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCommands, RoundTripTest,
    ::testing::Values(Command::kGet, Command::kGets, Command::kSet,
                      Command::kAdd, Command::kReplace, Command::kCas,
                      Command::kAppend, Command::kPrepend, Command::kDelete,
                      Command::kIncr, Command::kDecr, Command::kFlushAll,
                      Command::kStats, Command::kQuit, Command::kIQGet,
                      Command::kIQSet, Command::kQaRead, Command::kSaR,
                      Command::kSaRNull, Command::kGenId, Command::kQaReg,
                      Command::kDaR, Command::kIQAppend, Command::kIQPrepend,
                      Command::kIQIncr, Command::kIQDecr, Command::kCommit,
                      Command::kAbort, Command::kRelease, Command::kSweep,
                      Command::kMetrics, Command::kTrace),
    [](const ::testing::TestParamInfo<Command>& info) {
      std::string name = ToString(info.param);
      for (char& c : name) {
        if (c == '_') c = 'X';
      }
      return name;
    });

// ---- response serialization --------------------------------------------------

TEST(ResponseCodec, ValueRoundTrip) {
  Response r;
  r.type = ResponseType::kValue;
  r.key = "k";
  r.data = "some data";
  r.flags = 5;
  r.with_cas = true;
  r.cas_unique = 42;
  std::size_t consumed = 0;
  auto parsed = ParseResponse(Serialize(r), &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, ResponseType::kValue);
  EXPECT_EQ(parsed->data, "some data");
  EXPECT_EQ(parsed->cas_unique, 42u);
}

TEST(ResponseCodec, SimpleResponsesRoundTrip) {
  for (ResponseType t :
       {ResponseType::kEnd, ResponseType::kStored, ResponseType::kNotStored,
        ResponseType::kExists, ResponseType::kNotFound, ResponseType::kDeleted,
        ResponseType::kOk, ResponseType::kMissBackoff,
        ResponseType::kMissNoLease, ResponseType::kReject,
        ResponseType::kGranted}) {
    Response r;
    r.type = t;
    std::size_t consumed = 0;
    auto parsed = ParseResponse(Serialize(r), &consumed);
    ASSERT_TRUE(parsed) << static_cast<int>(t);
    EXPECT_EQ(parsed->type, t);
  }
}

TEST(ResponseCodec, NumberedResponsesCarryPayload) {
  for (ResponseType t : {ResponseType::kMissToken, ResponseType::kQMiss,
                         ResponseType::kId, ResponseType::kNumber}) {
    Response r;
    r.type = t;
    r.number = 987654;
    std::size_t consumed = 0;
    auto parsed = ParseResponse(Serialize(r), &consumed);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->type, t);
    EXPECT_EQ(parsed->number, 987654u);
  }
}

TEST(ResponseCodec, QValueCarriesTokenAndData) {
  Response r;
  r.type = ResponseType::kQValue;
  r.number = 55;
  r.data = "old value";
  std::size_t consumed = 0;
  auto parsed = ParseResponse(Serialize(r), &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, ResponseType::kQValue);
  EXPECT_EQ(parsed->number, 55u);
  EXPECT_EQ(parsed->data, "old value");
}

TEST(ResponseCodec, ValueCarriesValidityTtl) {
  Response r;
  r.type = ResponseType::kValue;
  r.key = "k";
  r.data = "v";
  r.ttl_ns = 12345;
  std::size_t consumed = 0;
  std::string bytes = Serialize(r);
  // The duration rides as a trailing T-prefixed token: non-numeric, so a
  // parser unaware of validity grants skips it as it would any extension.
  EXPECT_NE(bytes.find(" T12345"), std::string::npos);
  auto parsed = ParseResponse(bytes, &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, ResponseType::kValue);
  EXPECT_EQ(parsed->ttl_ns, 12345u);
  EXPECT_FALSE(parsed->with_cas);
  EXPECT_EQ(consumed, bytes.size());
}

TEST(ResponseCodec, ValueCarriesCasAndTtlTogether) {
  Response r;
  r.type = ResponseType::kValue;
  r.key = "k";
  r.data = "v";
  r.with_cas = true;
  r.cas_unique = 42;
  r.ttl_ns = 77;
  std::size_t consumed = 0;
  auto parsed = ParseResponse(Serialize(r), &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->with_cas);
  EXPECT_EQ(parsed->cas_unique, 42u);
  EXPECT_EQ(parsed->ttl_ns, 77u);
}

TEST(ResponseCodec, ValueWithoutTtlParsesAsZero) {
  std::size_t consumed = 0;
  auto parsed = ParseResponse("VALUE k 0 1\r\nv\r\nEND\r\n", &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->ttl_ns, 0u);
}

TEST(RemoteValidity, IQgetHitCarriesGrantedIntervalAsDuration) {
  IQServer::Config cfg;
  cfg.near_validity = 5 * kNanosPerMilli;
  IQServer server(CacheStore::Config{}, cfg);
  LoopbackChannel channel(server);
  RemoteBackend backend(channel);
  server.store().Set("k", "v");
  SessionId sid = backend.GenID();
  GetReply hit = backend.IQget("k", sid);
  ASSERT_EQ(hit.status, GetReply::Status::kHit);
  EXPECT_EQ(hit.value, "v");
  // The interval crosses the wire as a duration, never a deadline — the
  // two hosts' clocks are not comparable (DESIGN.md §4.10).
  EXPECT_EQ(hit.validity, 5 * kNanosPerMilli);
}

TEST(RemoteValidity, NoGrantWhenServerValidityDisabled) {
  IQServer server;
  LoopbackChannel channel(server);
  RemoteBackend backend(channel);
  server.store().Set("k", "v");
  GetReply hit = backend.IQget("k", backend.GenID());
  ASSERT_EQ(hit.status, GetReply::Status::kHit);
  EXPECT_EQ(hit.validity, 0);
}

TEST(ResponseCodec, IncompleteBytesReturnNullopt) {
  std::size_t consumed = 0;
  EXPECT_FALSE(ParseResponse("VALUE k 0 100\r\nshort", &consumed));
  EXPECT_FALSE(ParseResponse("STO", &consumed));
}

// A sized block must end in CRLF. Read past two other bytes, the reply
// would be taken whole and the next one read from the wrong byte.
TEST(ResponseCodec, ValueBlockWithoutItsCrlfIsRefused) {
  std::size_t consumed = 0;
  EXPECT_TRUE(ParseResponse("VALUE k 0 3\r\nabc\r\nEND\r\n", &consumed));
  EXPECT_FALSE(ParseResponse("VALUE k 0 3\r\nabcXYEND\r\n", &consumed));
}

TEST(ResponseCodec, QvalueBlockWithoutItsCrlfIsRefused) {
  std::size_t consumed = 0;
  EXPECT_TRUE(ParseResponse("QVALUE 7 3\r\nabc\r\nSTORED\r\n", &consumed));
  EXPECT_FALSE(ParseResponse("QVALUE 7 3\r\nabcXYSTORED\r\n", &consumed));
  EXPECT_FALSE(ParseResponse("BATCH 1\r\nQVALUE 7 3\r\nabcXYSTORED\r\n",
                             &consumed));
}

TEST(ResponseCodec, MetricsBlockWithoutItsCrlfIsRefused) {
  std::size_t consumed = 0;
  EXPECT_TRUE(ParseResponse("METRICS 3\r\nabc\r\nSTORED\r\n", &consumed));
  EXPECT_FALSE(ParseResponse("METRICS 3\r\nabcXYSTORED\r\n", &consumed));
}

TEST(ResponseCodec, BareErrorLinesParse) {
  // An error head with no message, alone or inside a frame, parses to an
  // empty message: a peer's bare line must not throw in the client.
  const std::pair<std::string, ResponseType> cases[] = {
      {"CLIENT_ERROR\r\n", ResponseType::kError},
      {"SERVER_ERROR\r\n", ResponseType::kTransportError},
  };
  for (const auto& [line, type] : cases) {
    std::size_t consumed = 0;
    auto parsed = ParseResponse(line, &consumed);
    ASSERT_TRUE(parsed) << line;
    EXPECT_EQ(parsed->type, type);
    EXPECT_TRUE(parsed->message.empty());
    EXPECT_EQ(consumed, line.size());
    const std::string frame = "BATCH 1\r\n" + line;
    parsed = ParseResponse(frame, &consumed);
    ASSERT_TRUE(parsed) << frame;
    ASSERT_EQ(parsed->batch.size(), 1u);
    EXPECT_EQ(parsed->batch[0].type, type);
    EXPECT_EQ(consumed, frame.size());
  }
}

TEST(ResponseCodec, MetricsIsASizedBlock) {
  Response r;
  r.type = ResponseType::kMetrics;
  // The payload contains '#' comment heads, bare newlines, and even a
  // protocol keyword — the sized framing must carry all of it opaquely.
  r.data = "# TYPE iq_commits_total counter\niq_commits_total 7\nEND\nSTORED\n";
  std::size_t consumed = 0;
  std::string bytes = Serialize(r);
  auto parsed = ParseResponse(bytes, &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, ResponseType::kMetrics);
  EXPECT_EQ(parsed->data, r.data);
  EXPECT_EQ(consumed, bytes.size());
  // Truncated payload: not yet a complete response.
  EXPECT_FALSE(ParseResponse(std::string_view(bytes).substr(0, bytes.size() - 5),
                             &consumed));
}

TEST(ResponseCodec, TraceLinesRoundTripLikeStats) {
  Response r;
  r.type = ResponseType::kTrace;
  r.message =
      "TRACE 1 100 0 q_ref_grant 42 7\r\n"
      "TRACE 2 200 0 release 42 7\r\n";
  std::size_t consumed = 0;
  std::string bytes = Serialize(r);
  auto parsed = ParseResponse(bytes, &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, ResponseType::kTrace);
  EXPECT_EQ(parsed->message, r.message);
  EXPECT_EQ(consumed, bytes.size());
}

TEST(ResponseCodec, EmptyTraceSerializesAsBareEnd) {
  Response r;
  r.type = ResponseType::kTrace;
  std::size_t consumed = 0;
  std::string bytes = Serialize(r);
  EXPECT_EQ(bytes, "END\r\n");
  // Indistinguishable from a get miss on the wire — clients treat kEnd as
  // "no trace events", which is exactly what it means.
  auto parsed = ParseResponse(bytes, &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, ResponseType::kEnd);
}

TEST(ResponseCodec, EveryReplyTypeWritesItsPinnedBytes) {
  // One reply of every type, byte for byte, read back to the same type and
  // written again to the same bytes.
  auto reply = [](ResponseType type) {
    Response r;
    r.type = type;
    return r;
  };
  Response value = reply(ResponseType::kValue);
  value.key = "some_key";
  value.data = "abc";
  value.flags = 7;
  value.with_cas = true;
  value.cas_unique = 13;
  value.ttl_ns = 29;
  Response multi = reply(ResponseType::kValue);
  multi.values = {{"a", "one", 1, 0, 0}, {"c", "three", 3, 0, 31}};
  Response number = reply(ResponseType::kNumber);
  number.number = 17;
  Response client_error = reply(ResponseType::kError);
  client_error.message = "bad command line format";
  Response stats = reply(ResponseType::kStats);
  stats.message = "STAT pid 1\r\nSTAT commits 2\r\n";
  Response miss_token = reply(ResponseType::kMissToken);
  miss_token.number = 19;
  Response qvalue = reply(ResponseType::kQValue);
  qvalue.number = 19;
  qvalue.data = "abc";
  Response qmiss = reply(ResponseType::kQMiss);
  qmiss.number = 19;
  Response id = reply(ResponseType::kId);
  id.number = 23;
  Response metrics = reply(ResponseType::kMetrics);
  metrics.data = "iq_commits 2\n";
  Response trace = reply(ResponseType::kTrace);
  trace.message =
      "TRACE_INFO 1 0 16\r\nTRACE 1 100 0 q_ref_grant 23 7\r\n";
  Response batch = reply(ResponseType::kBatch);
  batch.batch = {qvalue, reply(ResponseType::kReject)};
  Response server_error = reply(ResponseType::kTransportError);
  server_error.message = "deadline";
  const std::pair<Response, std::string> cases[] = {
      {value, "VALUE some_key 7 3 13 T29\r\nabc\r\nEND\r\n"},
      {multi, "VALUE a 1 3\r\none\r\nVALUE c 3 5 T31\r\nthree\r\nEND\r\n"},
      {reply(ResponseType::kEnd), "END\r\n"},
      {reply(ResponseType::kStored), "STORED\r\n"},
      {reply(ResponseType::kNotStored), "NOT_STORED\r\n"},
      {reply(ResponseType::kExists), "EXISTS\r\n"},
      {reply(ResponseType::kNotFound), "NOT_FOUND\r\n"},
      {reply(ResponseType::kDeleted), "DELETED\r\n"},
      {number, "17\r\n"},
      {reply(ResponseType::kError), "ERROR\r\n"},
      {client_error, "CLIENT_ERROR bad command line format\r\n"},
      {reply(ResponseType::kOk), "OK\r\n"},
      {stats, "STAT pid 1\r\nSTAT commits 2\r\nEND\r\n"},
      {miss_token, "MISS_TOKEN 19\r\n"},
      {reply(ResponseType::kMissBackoff), "MISS_BACKOFF\r\n"},
      {reply(ResponseType::kMissNoLease), "MISS_NOLEASE\r\n"},
      {qvalue, "QVALUE 19 3\r\nabc\r\n"},
      {qmiss, "QMISS 19\r\n"},
      {reply(ResponseType::kReject), "REJECT\r\n"},
      {reply(ResponseType::kGranted), "GRANTED\r\n"},
      {id, "ID 23\r\n"},
      {metrics, "METRICS 13\r\niq_commits 2\n\r\n"},
      {trace,
       "TRACE_INFO 1 0 16\r\nTRACE 1 100 0 q_ref_grant 23 7\r\nEND\r\n"},
      {batch, "BATCH 2\r\nQVALUE 19 3\r\nabc\r\nREJECT\r\n"},
      {reply(ResponseType::kTransportError),
       "SERVER_ERROR transport failure\r\n"},
      {server_error, "SERVER_ERROR deadline\r\n"},
  };
  for (const auto& [response, pinned] : cases) {
    EXPECT_EQ(Serialize(response), pinned);
    std::size_t consumed = 0;
    auto parsed = ParseResponse(pinned + "STORED\r\n", &consumed);
    ASSERT_TRUE(parsed) << pinned;
    EXPECT_EQ(consumed, pinned.size()) << pinned;
    EXPECT_EQ(parsed->type, response.type) << pinned;
    EXPECT_EQ(Serialize(*parsed), pinned);
  }
  // The error heads read apart: a bare ERROR carries no message, and
  // CLIENT_ERROR and SERVER_ERROR carry the rest of their line.
  std::size_t consumed = 0;
  auto error = ParseResponse("ERROR\r\n", &consumed);
  ASSERT_TRUE(error);
  EXPECT_EQ(error->type, ResponseType::kError);
  EXPECT_EQ(error->message, "");
  error = ParseResponse("CLIENT_ERROR bad command line format\r\n", &consumed);
  ASSERT_TRUE(error);
  EXPECT_EQ(error->type, ResponseType::kError);
  EXPECT_EQ(error->message, "bad command line format");
  error = ParseResponse("SERVER_ERROR transport failure\r\n", &consumed);
  ASSERT_TRUE(error);
  EXPECT_EQ(error->type, ResponseType::kTransportError);
  EXPECT_EQ(error->message, "transport failure");
  // A VALUE block's cas unique and T token read into their own fields.
  auto hit = ParseResponse("VALUE some_key 7 3 13 T29\r\nabc\r\nEND\r\n",
                           &consumed);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->key, "some_key");
  EXPECT_EQ(hit->flags, 7u);
  EXPECT_EQ(hit->data, "abc");
  EXPECT_TRUE(hit->with_cas);
  EXPECT_EQ(hit->cas_unique, 13u);
  EXPECT_EQ(hit->ttl_ns, 29u);
}

// ---- dispatcher over a loopback channel ----------------------------------------

class RemoteTest : public ::testing::Test {
 protected:
  RemoteTest() : channel_(server_), client_(channel_) {}
  IQServer server_;
  LoopbackChannel channel_;
  RemoteBackend client_;
};

TEST_F(RemoteTest, SetGetDeleteOverTheWire) {
  EXPECT_EQ(client_.Set("k", "v"), StoreResult::kStored);
  auto item = client_.Get("k");
  ASSERT_TRUE(item);
  EXPECT_EQ(item->value, "v");
  EXPECT_TRUE(client_.DeleteVoid("k"));
  EXPECT_FALSE(client_.Get("k"));
}

TEST_F(RemoteTest, GetsReturnsCasAndCasWorks) {
  client_.Set("k", "v1");
  auto item = client_.Get("k");
  ASSERT_TRUE(item);
  EXPECT_EQ(client_.Cas("k", "v2", item->cas), StoreResult::kStored);
  EXPECT_EQ(client_.Cas("k", "v3", item->cas), StoreResult::kExists);
}

TEST_F(RemoteTest, IncrDecrOverTheWire) {
  client_.Set("n", "10");
  EXPECT_EQ(client_.Incr("n", 5), 15u);
  EXPECT_EQ(client_.Decr("n", 1), 14u);
  EXPECT_FALSE(client_.Incr("absent", 1));
}

TEST_F(RemoteTest, FullIQReadProtocol) {
  SessionId session = client_.GenID();
  EXPECT_NE(session, 0u);
  GetReply miss = client_.IQget("k", session);
  ASSERT_EQ(miss.status, GetReply::Status::kMissGrantedI);
  EXPECT_EQ(client_.IQset("k", "computed", miss.token), StoreResult::kStored);
  GetReply hit = client_.IQget("k", session);
  EXPECT_EQ(hit.status, GetReply::Status::kHit);
  EXPECT_EQ(hit.value, "computed");
}

TEST_F(RemoteTest, FullRefreshProtocol) {
  client_.Set("k", "old");
  SessionId session = client_.GenID();
  QaReadReply q = client_.QaRead("k", session);
  ASSERT_EQ(q.status, QaReadReply::Status::kGranted);
  EXPECT_EQ(q.value, "old");
  // Second writer rejected over the wire.
  SessionId other = client_.GenID();
  EXPECT_EQ(client_.QaRead("k", other).status, QaReadReply::Status::kReject);
  EXPECT_EQ(client_.SaR("k", "new", q.token),
            StoreResult::kStored);
  EXPECT_EQ(client_.Get("k")->value, "new");
}

TEST_F(RemoteTest, FullInvalidateProtocol) {
  client_.Set("k", "v");
  SessionId tid = client_.GenID();
  client_.QaReg(tid, "k");
  EXPECT_TRUE(client_.Get("k"));  // deferred delete
  client_.DaR(tid);
  EXPECT_FALSE(client_.Get("k"));
}

TEST_F(RemoteTest, FullDeltaProtocol) {
  client_.Set("list", "a");
  client_.Set("count", "10");
  SessionId tid = client_.GenID();
  EXPECT_EQ(client_.IQDelta(tid, "list", DeltaOp{DeltaOp::Kind::kAppend, ",b", 0}),
            QuarantineResult::kGranted);
  EXPECT_EQ(client_.IQDelta(tid, "count", DeltaOp{DeltaOp::Kind::kIncr, {}, 2}),
            QuarantineResult::kGranted);
  client_.Commit(tid);
  EXPECT_EQ(client_.Get("list")->value, "a,b");
  EXPECT_EQ(client_.Get("count")->value, "12");
}

TEST_F(RemoteTest, AbortOverTheWire) {
  client_.Set("k", "keep");
  SessionId tid = client_.GenID();
  client_.IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kAppend, "X", 0});
  client_.Abort(tid);
  EXPECT_EQ(client_.Get("k")->value, "keep");
}

TEST_F(RemoteTest, StatsExposeLeaseCounters) {
  SessionId session = client_.GenID();
  client_.IQget("missing", session);
  std::string stats = client_.Stats();
  EXPECT_NE(stats.find("STAT i_leases_granted 1"), std::string::npos);
  EXPECT_NE(stats.find("STAT get_misses"), std::string::npos);
}

TEST_F(RemoteTest, StatsExposeCommandLatencies) {
  SessionId session = client_.GenID();
  client_.IQget("missing", session);
  client_.Set("k", "v");
  std::string stats = client_.Stats();
  // The dispatcher records one observation per request, keyed by command
  // class, and FormatStats renders count/mean/p95/p99/max per class.
  EXPECT_NE(stats.find("STAT cmd_iqget_count 1"), std::string::npos);
  EXPECT_NE(stats.find("STAT cmd_store_count 1"), std::string::npos);
  EXPECT_NE(stats.find("STAT cmd_iqget_p95_ns"), std::string::npos);
  EXPECT_NE(stats.find("STAT cmd_store_max_ns"), std::string::npos);
  // No delete was issued, so its class is omitted entirely.
  EXPECT_EQ(stats.find("STAT cmd_delete_"), std::string::npos);
}

TEST_F(RemoteTest, OneIQgetRecordsNonzeroMeanNanos) {
  // A miss is served in well under a microsecond, so whole-microsecond
  // latency lines would read 0 here.
  client_.IQget("missing", client_.GenID());
  std::string stats = client_.Stats();
  const std::string line = "STAT cmd_iqget_mean_ns ";
  std::size_t at = stats.find(line);
  ASSERT_NE(at, std::string::npos) << stats;
  EXPECT_GT(std::stoull(stats.substr(at + line.size())), 0u);
}

TEST_F(RemoteTest, MalformedRequestYieldsError) {
  std::string reply;
  ASSERT_TRUE(channel_.RoundTrip("bogus nonsense\r\n", &reply));
  EXPECT_NE(reply.find("CLIENT_ERROR"), std::string::npos);
}

TEST(LoopbackLatency, InjectedLatencySlowsRoundTrip) {
  IQServer server;
  LoopbackChannel channel(server, /*one_way_latency=*/kNanosPerMilli);
  RemoteBackend client(channel);
  Nanos t0 = SteadyClock::Instance().Now();
  client.Set("k", "v");
  EXPECT_GE(SteadyClock::Instance().Now() - t0, 2 * kNanosPerMilli);
}

TEST(RemoteConcurrency, RefreshProtocolSerializesOverTheWire) {
  // Several remote clients run the full QaRead/SaR protocol on one counter
  // concurrently; rejections force retries. The counter must equal the
  // number of successful sessions (no lost updates over the wire).
  IQServer server;
  LoopbackChannel channel(server);
  {
    RemoteBackend setup(channel);
    setup.Set("n", "0");
  }
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &channel, &committed] {
      RemoteBackend client(channel);
      for (int i = 0; i < kIncrements; ++i) {
        SessionId session = client.GenID();
        QaReadReply q = client.QaRead("n", session);
        if (q.status != QaReadReply::Status::kGranted) {
          client.Abort(session);
          --i;  // retry
          SleepFor(server.clock(), 20 * kNanosPerMicro);
          continue;
        }
        std::string next = std::to_string(std::stoll(*q.value) + 1);
        client.SaR("n", next, q.token);
        committed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  RemoteBackend check(channel);
  EXPECT_EQ(check.Get("n")->value, std::to_string(committed.load()));
  EXPECT_EQ(committed.load(), kThreads * kIncrements);
}

TEST(LoopbackPipelining, MultipleRequestsInOneRoundTrip) {
  IQServer server;
  LoopbackChannel channel(server);
  std::string reply;
  ASSERT_TRUE(channel.RoundTrip(
      "set a 0 0 1\r\nx\r\nset b 0 0 1\r\ny\r\nget a\r\n", &reply));
  EXPECT_NE(reply.find("STORED\r\nSTORED\r\nVALUE a"), std::string::npos);
  EXPECT_EQ(channel.requests(), 3u);
}

// ---- multi-key get ----------------------------------------------------------

TEST(RequestParser, ParsesMultiKeyGet) {
  RequestParser p;
  p.Feed("get a b c\r\ngets x y\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kGet);
  EXPECT_EQ(r.key, "a");
  ASSERT_EQ(r.keys.size(), 3u);
  EXPECT_EQ(r.keys[1], "b");
  EXPECT_EQ(r.keys[2], "c");
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kGets);
  ASSERT_EQ(r.keys.size(), 2u);
  EXPECT_EQ(r.keys[0], "x");
  EXPECT_EQ(r.keys[1], "y");
}

TEST(ResponseCodec, MultiValueRoundTrip) {
  Response r;
  r.type = ResponseType::kValue;
  r.values.push_back({"a", "one", 1, 0});
  r.values.push_back({"c", "three", 3, 0});
  std::string bytes = Serialize(r);
  std::size_t consumed = 0;
  auto parsed = ParseResponse(bytes, &consumed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(consumed, bytes.size());
  ASSERT_EQ(parsed->values.size(), 2u);
  EXPECT_EQ(parsed->values[0].key, "a");
  EXPECT_EQ(parsed->values[0].data, "one");
  EXPECT_EQ(parsed->values[1].key, "c");
  EXPECT_EQ(parsed->values[1].data, "three");
  // The first entry mirrors into the legacy single-value fields.
  EXPECT_EQ(parsed->key, "a");
  EXPECT_EQ(parsed->data, "one");
}

TEST(LoopbackMultiGet, MissesAreOmittedAndOrderIsPreserved) {
  IQServer server;
  LoopbackChannel channel(server);
  RemoteBackend client(channel);
  client.Set("a", "one");
  client.Set("c", "three");
  auto hits = client.MultiGet({"a", "missing", "c"});
  ASSERT_EQ(hits.size(), 3u);
  ASSERT_TRUE(hits[0].has_value());
  EXPECT_EQ(hits[0]->value, "one");
  EXPECT_FALSE(hits[1].has_value());
  ASSERT_TRUE(hits[2].has_value());
  EXPECT_EQ(hits[2]->value, "three");
  EXPECT_EQ(channel.requests(), 3u);  // 2 sets + 1 multi-get round trip
}

TEST(LoopbackMultiGet, GetsCarriesCasPerValue) {
  IQServer server;
  LoopbackChannel channel(server);
  RemoteBackend client(channel);
  client.Set("a", "one");
  client.Set("b", "two");
  auto hits = client.MultiGet({"a", "b"}, /*with_cas=*/true);
  ASSERT_EQ(hits.size(), 2u);
  ASSERT_TRUE(hits[0].has_value());
  ASSERT_TRUE(hits[1].has_value());
  EXPECT_NE(hits[0]->cas, 0u);
  EXPECT_NE(hits[1]->cas, 0u);
  EXPECT_NE(hits[0]->cas, hits[1]->cas);
}

// ---- parser cursor & compaction ---------------------------------------------

TEST(RequestParser, BufferedTracksCursorAcrossSplitFeeds) {
  RequestParser p;
  Request r;
  std::string err;
  EXPECT_EQ(p.buffered(), 0u);
  p.Feed("get a\r\nget b");  // one complete request + a partial one
  EXPECT_EQ(p.buffered(), 12u);
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.key, "a");
  EXPECT_EQ(p.buffered(), 5u);  // "get b" survives the consumed prefix
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kNeedMore);
  p.Feed("\r\n");
  EXPECT_EQ(p.buffered(), 7u);
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.key, "b");
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(RequestParser, CompactionKeepsPipelinedTailIntact) {
  // A long run of pipelined requests consumed one at a time exercises both
  // compaction branches (consumed > half the buffer, and full clear) while
  // feeds keep splitting requests at awkward offsets.
  RequestParser p;
  std::string stream;
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) {
    char payload[4] = {'v', static_cast<char>('0' + i % 10),
                       static_cast<char>('0' + (i / 10) % 10), '\0'};
    stream += "set key" + std::to_string(i) + " 0 0 3\r\n" + payload + "\r\n";
  }
  // Feed in 7-byte slivers, draining after each feed.
  Request r;
  std::string err;
  int seen = 0;
  for (std::size_t off = 0; off < stream.size(); off += 7) {
    p.Feed(stream.substr(off, 7));
    while (p.Next(&r, &err) == RequestParser::Status::kOk) {
      EXPECT_EQ(r.key, "key" + std::to_string(seen));
      ++seen;
    }
  }
  EXPECT_EQ(seen, kN);
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(RequestParser, ViewsSurviveReallocationAndCompaction) {
  // A view never outlives a compaction: a `batch` frame and a large `set`
  // arrive in pieces that each outgrow the parser's buffer, so it moves
  // while the frame is open (the frame keeps offsets, not views) and is
  // compacted between requests. Every request's key and data, read the
  // moment Next() yields it, equals what was sent.
  const std::string x(200u << 10, 'x');
  const std::string y(150u << 10, 'y');
  const std::string z(300u << 10, 'z');
  const std::string stream =
      "get a\r\n"
      "batch 3\r\nsar k1 7 " + std::to_string(x.size()) + "\r\n" + x +
      "\r\nqaread k2 9\r\nsar k3 8 " + std::to_string(y.size()) + "\r\n" +
      y + "\r\nset big 0 0 " + std::to_string(z.size()) + "\r\n" + z + "\r\n";
  using Seen = std::vector<std::pair<std::string, std::string>>;
  Seen seen;
  RequestParser p;
  RequestView r;
  std::string err;
  std::size_t off = 0;
  for (std::size_t piece = 4u << 10; off < stream.size(); piece *= 2) {
    p.Feed(std::string_view(stream).substr(off, piece));
    off += piece;
    while (true) {
      auto status = p.Next(&r, &err);
      ASSERT_NE(status, RequestParser::Status::kError) << err;
      if (status == RequestParser::Status::kNeedMore) break;
      if (r.command != Command::kBatch) {
        seen.emplace_back(std::string(r.key), std::string(r.data));
        continue;
      }
      for (const RequestView& inner : r.batch) {
        seen.emplace_back(std::string(inner.key), std::string(inner.data));
      }
    }
  }
  EXPECT_EQ(seen, (Seen{{"a", ""}, {"k1", x}, {"k2", ""}, {"k3", y},
                        {"big", z}}));
  EXPECT_EQ(p.buffered(), 0u);
}

// ---- length-claim hardening -------------------------------------------------

TEST(RequestParser, RejectsPayloadLengthClaimAboveProtocolLimit) {
  // A <bytes> field near SIZE_MAX must not wrap the terminator arithmetic
  // back onto the command line (which would accept the request and leave the
  // following bytes to be re-executed as commands — request smuggling).
  RequestParser p;
  Request r;
  std::string err;
  p.Feed("set k 0 0 18446744073709551614\r\nget probe\r\n");
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kError);
  EXPECT_NE(err.find("payload exceeds"), std::string::npos) << err;
  // The parser resynced exactly past the bad line; the next request parses.
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kGet);
  EXPECT_EQ(r.key, "probe");
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(RequestParser, RejectsPayloadJustAboveCapAndAcceptsAtCap) {
  RequestParser p;
  Request r;
  std::string err;
  p.Feed("sar k 1 " + std::to_string(kMaxPayloadBytes + 1) + "\r\n");
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kError);

  // At the cap the claim is legal and the parser simply waits for the data.
  RequestParser q;
  q.Feed("set k 0 0 " + std::to_string(kMaxPayloadBytes) + "\r\n");
  EXPECT_EQ(q.Next(&r, &err), RequestParser::Status::kNeedMore);
}

TEST(ResponseCodec, HugeLengthClaimsNeverCompleteNorWrap) {
  // Client side of the same hardening: VALUE/QVALUE sizes near SIZE_MAX must
  // not wrap `block_eol + 2 + size + 2` into an accepted parse.
  std::size_t consumed = 0;
  EXPECT_FALSE(ParseResponse("VALUE k 0 18446744073709551614\r\nEND\r\n",
                             &consumed)
                   .has_value());
  EXPECT_FALSE(
      ParseResponse("QVALUE 7 18446744073709551614\r\nx\r\n", &consumed)
          .has_value());
}

// ---- numeric field ranges -------------------------------------------------------

TEST(RemoteWire, ExptimePastTheNanosRangeNeverExpires) {
  // An exptime whose deadline lies past the range of Nanos saturates to
  // "never expires", as memcached reads such exptimes as times far off;
  // it neither wraps into the past nor stores an already expired item.
  ManualClock clock(1000 * kNanosPerSec);
  IQServer::Config cfg;
  cfg.clock = &clock;
  IQServer server(CacheStore::Config{}, cfg);
  LoopbackChannel channel(server);
  for (const char* exptime : {"9223372036", "9300000000"}) {
    std::string reply;
    ASSERT_TRUE(channel.RoundTrip(
        "set k 0 " + std::string(exptime) + " 1\r\nv\r\nget k\r\n", &reply));
    EXPECT_EQ(reply, "STORED\r\nVALUE k 0 1\r\nv\r\nEND\r\n") << exptime;
    clock.Advance(1000 * kNanosPerSec);
    ASSERT_TRUE(channel.RoundTrip("get k\r\n", &reply));
    EXPECT_EQ(reply, "VALUE k 0 1\r\nv\r\nEND\r\n") << exptime;
  }
}

TEST(RemoteWire, FlagsPastUint32AreRefusedNotTruncated) {
  IQServer server;
  LoopbackChannel channel(server);
  std::string reply;
  ASSERT_TRUE(channel.RoundTrip("set f 4294967297 0 1\r\n", &reply));
  EXPECT_EQ(reply.rfind("CLIENT_ERROR ", 0), 0u) << reply;
  EXPECT_FALSE(server.store().Get("f").has_value());
  ASSERT_TRUE(channel.RoundTrip("set f 4294967295 0 1\r\nv\r\ngets f\r\n",
                                &reply));
  EXPECT_EQ(reply.rfind("STORED\r\nVALUE f 4294967295 1 ", 0), 0u) << reply;
  // A reply's flags past the range make it malformed, which RemoteBackend
  // answers as a transport error.
  std::size_t consumed = 0;
  EXPECT_FALSE(
      ParseResponse("VALUE f 4294967297 1\r\nv\r\nEND\r\n", &consumed));
  EXPECT_TRUE(ParseResponse("VALUE f 4294967295 1\r\nv\r\nEND\r\n", &consumed));
}

TEST(ResponseCodec, ABatchFrameNeverNestsEvenBehindLeadingSpaces) {
  // The reader reads a frame's inner replies one level deep: an inner head
  // that tokenizes as BATCH, spaces or not, fails the frame.
  std::size_t consumed = 0;
  EXPECT_FALSE(ParseResponse("BATCH 1\r\n BATCH 1\r\nOK\r\n", &consumed));
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += " BATCH 1\r\n";
  EXPECT_FALSE(ParseResponse("BATCH 1\r\n" + deep + "OK\r\n", &consumed));
}

// ---- release command ----------------------------------------------------------

TEST_F(RemoteTest, ReleaseDropsOneLeaseAndKeepsBufferedWork) {
  // The whole point of `release` over `abort`: the session's buffered work
  // on other keys must survive (a plain abort would discard the delta).
  client_.Set("count", "10");
  client_.Set("held", "x");
  SessionId tid = client_.GenID();
  ASSERT_EQ(client_.IQDelta(tid, "count", DeltaOp{DeltaOp::Kind::kIncr, {}, 5}),
            QuarantineResult::kGranted);
  QaReadReply q = client_.QaRead("held", tid);
  ASSERT_EQ(q.status, QaReadReply::Status::kGranted);
  client_.ReleaseKey(tid, "held");
  // The Q lease on "held" is gone: another session acquires it immediately.
  SessionId other = client_.GenID();
  EXPECT_EQ(client_.QaRead("held", other).status,
            QaReadReply::Status::kGranted);
  client_.Abort(other);
  client_.Commit(tid);
  EXPECT_EQ(client_.Get("count")->value, "15");  // delta survived the release
}

TEST_F(RemoteTest, RemoteBackendReleaseKeyMatchesInProcessSemantics) {
  RemoteBackend backend(channel_);
  backend.Set("count", "1");
  backend.Set("aux", "v");
  SessionId tid = backend.GenID();
  ASSERT_EQ(backend.IQDelta(tid, "count", DeltaOp{DeltaOp::Kind::kIncr, {}, 2}),
            QuarantineResult::kGranted);
  ASSERT_EQ(backend.QaRead("aux", tid).status, QaReadReply::Status::kGranted);
  // Before the `release` wire command this mapped to Abort(tid) and silently
  // discarded the buffered delta on "count".
  backend.ReleaseKey(tid, "aux");
  backend.Commit(tid);
  EXPECT_EQ(backend.Get("count")->value, "3");
  EXPECT_EQ(server_.LeaseCount(), 0u);
}

// ---- stats parsing ------------------------------------------------------------

TEST_F(RemoteTest, ParseIQStatsInvertsFormatStats) {
  SessionId session = client_.GenID();
  client_.IQget("missing", session);  // grants one I lease
  client_.Set("k", "v");
  SessionId tid = client_.GenID();
  ASSERT_EQ(client_.QaRead("k", tid).status, QaReadReply::Status::kGranted);
  client_.Commit(tid);
  client_.Abort(session);
  IQServerStats parsed = ParseIQStats(client_.Stats());
  IQServerStats direct = server_.Stats();
  EXPECT_EQ(parsed.i_granted, direct.i_granted);
  EXPECT_EQ(parsed.q_ref_granted, direct.q_ref_granted);
  EXPECT_EQ(parsed.commits, direct.commits);
  EXPECT_EQ(parsed.aborts, direct.aborts);
  EXPECT_EQ(parsed.q_rejected, direct.q_rejected);
}

TEST(ParseIQStats, IgnoresForeignLinesAndGarbage) {
  IQServerStats s = ParseIQStats(
      "STAT bytes_used 4096\r\n"
      "STAT commits 7\r\n"
      "STAT cmd_iqget_p95_ns 12\r\n"
      "STAT aborts notanumber\r\n"
      "garbage line\r\n"
      "STAT q_rejected 3\r\n");
  EXPECT_EQ(s.commits, 7u);
  EXPECT_EQ(s.q_rejected, 3u);
  EXPECT_EQ(s.aborts, 0u);  // unparsable value left at zero
}

// ---- counter export ------------------------------------------------------------

TEST(StatsExport, FormatStatsRendersEveryCounterOnceWithItsValue) {
  ManualClock clock;
  IQServer::Config cfg;
  cfg.clock = &clock;
  IQServer server(CacheStore::Config{.clock = &clock}, cfg);
  CacheStore& store = server.store();
  store.Set("a", "1");
  store.Get("a");
  store.Get("missing");
  store.Delete("a");
  store.Delete("a");
  store.Set("n", "5");
  store.Incr("n", 2);
  store.Append("n", "0");
  store.Prepend("n", "1");
  const std::optional<CacheItem> n = store.Get("n");
  ASSERT_TRUE(n);
  store.Cas("n", "9", n->cas);
  store.Cas("n", "8", n->cas);  // a cas mismatch
  GetReply miss = server.IQget("k", 1);
  ASSERT_EQ(miss.status, GetReply::Status::kMissGrantedI);
  server.IQset("k", "v", miss.token);
  server.IQget("k", 2);
  QaReadReply q = server.QaRead("k", 3);
  server.SaR("k", "w", q.token);
  server.Commit(3);
  server.command_latencies().Record(
      static_cast<std::size_t>(CommandClass::kIQget), 750);

  const std::string text = FormatStats(server);
  const CacheStats kvs = store.Stats();
  const IQServerStats iq = server.Stats();
  const TraceInfo trace = server.TraceInfoTotal();
  // Written by field name, independently of the tables.
  const std::vector<std::pair<std::string, std::uint64_t>> want = {
      {"gets", kvs.gets},
      {"get_hits", kvs.get_hits},
      {"get_misses", kvs.get_misses},
      {"sets", kvs.sets},
      {"deletes", kvs.deletes},
      {"delete_hits", kvs.delete_hits},
      {"cas_ops", kvs.cas_ops},
      {"cas_mismatches", kvs.cas_mismatches},
      {"appends", kvs.appends},
      {"prepends", kvs.prepends},
      {"incr_decrs", kvs.incr_decrs},
      {"evictions", kvs.evictions},
      {"expirations", kvs.expirations},
      {"flushes", kvs.flushes},
      {"opt_hits", kvs.opt_hits},
      {"opt_fallbacks", kvs.opt_fallbacks},
      {"bytes_used", kvs.bytes_used},
      {"item_count", kvs.item_count},
      {"i_leases_granted", iq.i_granted},
      {"i_leases_voided", iq.i_voided},
      {"q_ref_voided", iq.q_ref_voided},
      {"backoffs", iq.backoffs},
      {"stale_sets_dropped", iq.stale_sets_dropped},
      {"q_inv_granted", iq.q_inv_granted},
      {"q_ref_granted", iq.q_ref_granted},
      {"q_rejected", iq.q_rejected},
      {"leases_expired", iq.leases_expired},
      {"expiry_deletes", iq.expiry_deletes},
      {"commits", iq.commits},
      {"aborts", iq.aborts},
      {"near_grants", iq.near_grants},
      {"leases_live", server.LeaseCount()},
      {"trace_recorded", trace.recorded},
      {"trace_dropped", trace.dropped},
      {"trace_capacity", trace.capacity},
  };
  EXPECT_EQ(kvs.delete_hits, 1u);
  EXPECT_EQ(kvs.cas_mismatches, 1u);
  EXPECT_EQ(kvs.appends, 1u);

  const auto lines = StatLines(text);
  std::set<std::string> names;
  for (const auto& [name, values] : lines) names.insert(name);
  std::set<std::string> expected;
  for (const auto& [name, value] : want) {
    expected.insert(name);
    auto it = lines.find(name);
    if (it == lines.end()) {
      ADD_FAILURE() << name << " is not rendered";
      continue;
    }
    EXPECT_EQ(it->second, std::vector<std::string>{std::to_string(value)})
        << name;
  }
  for (const char* suffix : {"count", "mean_ns", "p95_ns", "p99_ns", "max_ns"}) {
    expected.insert(std::string("cmd_iqget_") + suffix);
  }
  // Every name rendered is one of these, and every one is rendered.
  EXPECT_EQ(names, expected);
}

/// `s` holds a distinct non-zero value in every field. Its table renders
/// exactly the lines of `want` (written by field name, so a row bound to
/// the wrong member shows up as a wrong value), and parses back to `s`.
template <typename Set, std::size_t N>
void ExpectRoundTrip(const Set& s, const CounterField<Set> (&rows)[N],
                     const std::map<std::string, std::uint64_t>& want) {
  std::uint64_t words[N];
  static_assert(sizeof words == sizeof s);
  std::memcpy(words, &s, sizeof s);
  const std::set<std::uint64_t> distinct(words, words + N);
  EXPECT_EQ(distinct.size(), N);
  EXPECT_EQ(distinct.count(0), 0u);

  std::string text;
  AppendStats(text, s, rows);
  const auto lines = StatLines(text);
  EXPECT_EQ(lines.size(), want.size());
  for (const auto& [name, value] : want) {
    auto it = lines.find(name);
    ASSERT_NE(it, lines.end()) << name;
    ASSERT_EQ(it->second.size(), 1u) << name;
    EXPECT_EQ(it->second[0], std::to_string(value)) << name;
  }
  const Set back = ParseStats(text, rows);
  EXPECT_EQ(std::memcmp(&back, &s, sizeof s), 0);
}

TEST(CounterTables, EveryRowIsBoundToItsOwnField) {
  ExpectRoundTrip(
      IQServerStats{.i_granted = 1, .i_voided = 2, .q_ref_voided = 3,
                    .backoffs = 4, .stale_sets_dropped = 5, .q_inv_granted = 6,
                    .q_ref_granted = 7, .q_rejected = 8, .leases_expired = 9,
                    .expiry_deletes = 10, .commits = 11, .aborts = 12,
                    .near_grants = 13},
      kIQStatsFields,
      {{"i_leases_granted", 1}, {"i_leases_voided", 2}, {"q_ref_voided", 3},
       {"backoffs", 4}, {"stale_sets_dropped", 5}, {"q_inv_granted", 6},
       {"q_ref_granted", 7}, {"q_rejected", 8}, {"leases_expired", 9},
       {"expiry_deletes", 10}, {"commits", 11}, {"aborts", 12},
       {"near_grants", 13}});
  ExpectRoundTrip(
      CacheStats{.gets = 1, .get_hits = 2, .get_misses = 3, .sets = 4,
                 .deletes = 5, .delete_hits = 6, .cas_ops = 7,
                 .cas_mismatches = 8, .appends = 9, .prepends = 10,
                 .incr_decrs = 11, .evictions = 12, .expirations = 13,
                 .flushes = 14, .opt_hits = 15, .opt_fallbacks = 16,
                 .bytes_used = 17, .item_count = 18},
      kCacheStatsFields,
      {{"gets", 1}, {"get_hits", 2}, {"get_misses", 3}, {"sets", 4},
       {"deletes", 5}, {"delete_hits", 6}, {"cas_ops", 7},
       {"cas_mismatches", 8}, {"appends", 9}, {"prepends", 10},
       {"incr_decrs", 11}, {"evictions", 12}, {"expirations", 13},
       {"flushes", 14}, {"opt_hits", 15}, {"opt_fallbacks", 16},
       {"bytes_used", 17}, {"item_count", 18}});
  ExpectRoundTrip(
      TcpServerStats{.conn_accepted = 1, .conn_active = 2, .bytes_read = 3,
                     .bytes_written = 4, .requests = 5},
      kTcpServerStatsFields,
      {{"conn_accepted", 1}, {"conn_active", 2}, {"bytes_read", 3},
       {"bytes_written", 4}, {"net_requests", 5}});
  ExpectRoundTrip(
      ShardedBackendStats{.sessions = 1, .shard_sessions = 2,
                          .fanout_commits = 3, .fanout_aborts = 4,
                          .cross_shard_sessions = 5, .reject_releases = 6,
                          .transport_errors = 7, .shard_trips = 8,
                          .shard_recoveries = 9},
      kRouterStatsFields,
      {{"router_sessions", 1}, {"router_shard_sessions", 2},
       {"router_fanout_commits", 3}, {"router_fanout_aborts", 4},
       {"router_cross_shard_sessions", 5}, {"router_reject_releases", 6},
       {"transport_errors", 7}, {"shard_trips", 8},
       {"shard_recoveries", 9}});
  ExpectRoundTrip(
      sql::Database::Stats{.txns_started = 1, .txns_committed = 2,
                           .txns_aborted = 3, .conflicts = 4, .reads = 5,
                           .writes = 6},
      sql::kDatabaseStatsFields,
      {{"txns_started", 1}, {"txns_committed", 2}, {"txns_aborted", 3},
       {"conflicts", 4}, {"reads", 5}, {"writes", 6}});
  ExpectRoundTrip(
      casql::AuditStats{.samples = 1, .stale_reads_detected = 2,
                        .skipped = 3, .bounded = 4},
      casql::kAuditStatsFields,
      {{"audit_samples", 1}, {"stale_reads_detected", 2},
       {"audit_skipped", 3}, {"audit_bounded", 4}});
  ExpectRoundTrip(TraceInfo{.recorded = 1, .dropped = 2, .capacity = 3},
                  kTraceInfoFields,
                  {{"trace_recorded", 1}, {"trace_dropped", 2},
                   {"trace_capacity", 3}});
}

// ---- endpoint parsing ----------------------------------------------------------

TEST(ParseEndpoints, SingleAndMultiWithDefaults) {
  std::string error;
  auto one = ParseEndpoints("127.0.0.1:4242", &error);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].host, "127.0.0.1");
  EXPECT_EQ(one[0].port, 4242);

  auto defaulted = ParseEndpoints("cache-host", &error);
  ASSERT_EQ(defaulted.size(), 1u);
  EXPECT_EQ(defaulted[0].port, 11211);  // memcached default

  auto many = ParseEndpoints("a:1,b:2,c", &error);
  ASSERT_EQ(many.size(), 3u);
  EXPECT_EQ(many[0], (Endpoint{"a", 1}));
  EXPECT_EQ(many[1], (Endpoint{"b", 2}));
  EXPECT_EQ(many[2], (Endpoint{"c", 11211}));
  EXPECT_EQ(Name(many[1]), "b:2");
}

TEST(ParseEndpoints, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_TRUE(ParseEndpoints("", &error).empty());
  EXPECT_TRUE(ParseEndpoints("a:1,,b:2", &error).empty());
  EXPECT_NE(error.find("empty endpoint"), std::string::npos);
  EXPECT_TRUE(ParseEndpoints("host:notaport", &error).empty());
  EXPECT_TRUE(ParseEndpoints("host:0", &error).empty());
  EXPECT_TRUE(ParseEndpoints(":1234", &error).empty());
  EXPECT_TRUE(ParseEndpoints("host:99999", &error).empty());
}

// ---- batch frames -------------------------------------------------------------

TEST(RequestParser, BatchFrameIsOneRequestAcrossSplitFeeds) {
  const std::string frame =
      "batch 3\r\nqaread a 7\r\nsar b 9 4\r\ndata\r\ncommit 7\r\n";
  RequestParser p;
  Request r;
  std::string err;
  for (std::size_t off = 0; off + 1 < frame.size(); off += 5) {
    p.Feed(frame.substr(off, std::min<std::size_t>(5, frame.size() - 1 - off)));
    ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kNeedMore) << off;
  }
  p.Feed(frame.substr(frame.size() - 1));
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk) << err;
  EXPECT_EQ(r.command, Command::kBatch);
  ASSERT_EQ(r.batch.size(), 3u);
  EXPECT_EQ(r.batch[0].command, Command::kQaRead);
  EXPECT_EQ(r.batch[0].key, "a");
  EXPECT_EQ(r.batch[1].command, Command::kSaR);
  EXPECT_EQ(r.batch[1].data, "data");
  EXPECT_EQ(r.batch[2].command, Command::kCommit);
  EXPECT_EQ(p.buffered(), 0u);
  // Serialize writes the frame back byte for byte.
  EXPECT_EQ(Serialize(r), frame);
}

TEST(RequestParser, BadInnerRequestFailsTheWholeFrame) {
  for (const char* bad : {"qaread b notanumber\r\n",  // malformed
                          "frobnicate\r\n",            // unknown
                          "quit\r\n", "stats\r\n",    // not batchable
                          "batch 1\r\n"}) {            // nested frame
    RequestParser p;
    Request r;
    std::string err;
    p.Feed(std::string("batch 2\r\nqaread a 7\r\n") + bad + "get next\r\n");
    ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kError) << bad;
    EXPECT_EQ(err.rfind("batch: ", 0), 0u) << err;
    // The frame's bytes are gone and the next plain request parses.
    ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk) << bad;
    EXPECT_EQ(r.command, Command::kGet);
    EXPECT_EQ(r.key, "next");
    EXPECT_EQ(p.buffered(), 0u);
  }
  RequestParser p;
  Request r;
  std::string err;
  p.Feed("batch 0\r\nbatch x\r\n");
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kError);
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kError);
}

TEST(RequestParser, BatchCountAboveTheCapFailsTheWholeFrame) {
  RequestParser p;
  Request r;
  std::string err;
  std::string frame = "batch " + std::to_string(kMaxBatchRequests) + "\r\n";
  for (std::size_t i = 0; i < kMaxBatchRequests; ++i) frame += "dar 7\r\n";
  p.Feed(frame);
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk) << err;
  EXPECT_EQ(r.batch.size(), kMaxBatchRequests);
  // One more request than the cap: the frame is skipped whole, its
  // requests never surface, and the next plain request parses.
  frame = "batch " + std::to_string(kMaxBatchRequests + 1) + "\r\n";
  for (std::size_t i = 0; i <= kMaxBatchRequests; ++i) frame += "dar 7\r\n";
  p.Feed(frame + "get next\r\n");
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kError);
  EXPECT_EQ(err.rfind("batch: more than", 0), 0u) << err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kGet);
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(RequestParser, HugeBatchCountWaitsOnItsBytesAlone) {
  // The count is the peer's claim: a count above kMaxBatchRequests fails
  // the frame at its header, and the parser only skips what follows, so
  // only the bytes cost memory; the transport's input cap
  // (kMaxRequestBytes) bounds those.
  RequestParser p;
  Request r;
  std::string err;
  const std::string head = "batch 18446744073709551615\r\n";
  p.Feed(head);
  std::size_t fed = head.size();
  for (int i = 0; i < 1000; ++i) {
    p.Feed("qaread k 7\r\n");
    fed += 12;
    ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kNeedMore);
  }
  EXPECT_EQ(p.buffered(), fed);
}

TEST(ResponseCodec, BatchRoundTripsAndNeverNests) {
  Response frame;
  frame.type = ResponseType::kBatch;
  Response qv;
  qv.type = ResponseType::kQValue;
  qv.number = 42;
  qv.data = "v\r\nEND\r\n";  // payload bytes that look like protocol heads
  Response reject;
  reject.type = ResponseType::kReject;
  frame.batch = {qv, reject};
  const std::string bytes = Serialize(frame);
  EXPECT_EQ(bytes.rfind("BATCH 2\r\nQVALUE 42 ", 0), 0u) << bytes;
  std::size_t consumed = 0;
  auto parsed = ParseResponse(bytes + "STORED\r\n", &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(parsed->type, ResponseType::kBatch);
  ASSERT_EQ(parsed->batch.size(), 2u);
  EXPECT_EQ(parsed->batch[0].type, ResponseType::kQValue);
  EXPECT_EQ(parsed->batch[0].number, 42u);
  EXPECT_EQ(parsed->batch[0].data, qv.data);
  EXPECT_EQ(parsed->batch[1].type, ResponseType::kReject);
  // Incomplete until the last inner response is whole.
  EXPECT_FALSE(ParseResponse(bytes.substr(0, bytes.size() - 1), &consumed));
  EXPECT_FALSE(ParseResponse("BATCH 18446744073709551615\r\nOK\r\n",
                             &consumed));
  EXPECT_FALSE(ParseResponse("BATCH 1\r\nBATCH 1\r\nOK\r\n", &consumed));
}

TEST_F(RemoteTest, BatchRunsInOrderAndStopsAfterTheFirstReject) {
  client_.Set("a", "1");
  client_.Set("b", "2");
  client_.Set("c", "3");
  SessionId holder = client_.GenID();
  ASSERT_EQ(client_.QaRead("b", holder).status, QaReadReply::Status::kGranted);
  SessionId tid = client_.GenID();
  const std::string t = std::to_string(tid);
  std::string reply;
  ASSERT_TRUE(channel_.RoundTrip("batch 3\r\nqaread a " + t + "\r\nqaread b " +
                                     t + "\r\nqaread c " + t + "\r\n",
                                 &reply));
  std::size_t consumed = 0;
  auto resp = ParseResponse(reply, &consumed);
  ASSERT_TRUE(resp);
  EXPECT_EQ(consumed, reply.size());
  ASSERT_EQ(resp->type, ResponseType::kBatch);
  ASSERT_EQ(resp->batch.size(), 2u);  // c never ran
  EXPECT_EQ(resp->batch[0].type, ResponseType::kQValue);
  EXPECT_EQ(resp->batch[1].type, ResponseType::kReject);
  EXPECT_EQ(server_.LeaseOn("c"), std::nullopt);
  EXPECT_EQ(server_.LeaseCount(), 2u);  // a (tid) and b (holder)
  // One frame is one request; each inner request is timed under its own
  // command class.
  EXPECT_EQ(server_.command_latencies().Merged(
                static_cast<std::size_t>(CommandClass::kQaRead)).Count(),
            3u);
  client_.Abort(tid);
  client_.Abort(holder);
  EXPECT_EQ(server_.LeaseCount(), 0u);
}

TEST_F(RemoteTest, SwapsPastTheRequestCapSplitIntoOrderedFrames) {
  RemoteBackend backend(channel_);
  SessionId tid = backend.GenID();
  const std::vector<std::string> keys = {"a", "b", "c"};
  std::vector<LeaseRequest> requests;
  for (const std::string& k : keys) {
    requests.push_back({LeaseRequest::Kind::kQaRead, k});
  }
  std::vector<LeaseReply> leases = backend.Acquire(tid, requests);
  ASSERT_EQ(leases.size(), 3u);
  // Three swaps of 3 MiB: the frame would exceed kMaxRequestBytes, so the
  // client sends [sar a, sar b] then [sar c, commit], in that order.
  std::vector<std::string> values;
  for (char c : {'x', 'y', 'z'}) values.emplace_back(3u << 20, c);
  std::vector<Swap> swaps;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(leases[i].status, LeaseReply::Status::kGranted);
    swaps.push_back({keys[i], values[i], leases[i].token});
  }
  std::uint64_t before = channel_.requests();
  std::vector<StoreResult> stored = backend.CommitSwaps(tid, swaps);
  EXPECT_EQ(channel_.requests() - before, 2u);
  ASSERT_EQ(stored.size(), 3u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(stored[i], StoreResult::kStored) << i;
    EXPECT_EQ(server_.store().Get(keys[i])->value, values[i]) << i;
  }
  EXPECT_EQ(server_.LeaseCount(), 0u);
  EXPECT_EQ(server_.Stats().commits, 1u);
}

TEST_F(RemoteTest, LeasesPastTheCountCapSplitIntoOrderedFrames) {
  RemoteBackend backend(channel_);
  SessionId tid = backend.GenID();
  std::vector<std::string> keys;
  for (std::size_t i = 0; i <= kMaxBatchRequests; ++i) {
    keys.emplace_back("k");
    keys.back() += std::to_string(i);
  }
  std::vector<LeaseRequest> requests;
  for (const std::string& k : keys) {
    requests.push_back({LeaseRequest::Kind::kQaReg, k});
  }
  std::uint64_t before = channel_.requests();
  std::vector<LeaseReply> leases = backend.Acquire(tid, requests);
  EXPECT_EQ(channel_.requests() - before, 2u);  // a full frame, then one
  ASSERT_EQ(leases.size(), keys.size());
  for (const LeaseReply& lease : leases) {
    EXPECT_EQ(lease.status, LeaseReply::Status::kGranted);
  }
  EXPECT_EQ(server_.LeaseCount(), keys.size());
  backend.DaR(tid);
  EXPECT_EQ(server_.LeaseCount(), 0u);
}

TEST(BatchTrace, BatchedSessionTracesLikeThePerKeyVerbs) {
  // The same write session, once verb by verb and once as one acquire frame
  // and one commit frame, leaves the same per-key lease history: grants,
  // releases and commits, key by key, in the same order.
  using Kinds = std::vector<std::pair<LeaseTraceKind, std::uint64_t>>;
  auto run = [](bool batched) {
    ManualClock clock;  // every event at t=0: the snapshot orders by seq
    IQServer::Config cfg;
    cfg.clock = &clock;
    IQServer server(CacheStore::Config{}, cfg);
    for (const char* k : {"x", "y", "z"}) server.store().Set(k, "1");
    LoopbackChannel channel(server);
    RemoteBackend backend(channel);
    SessionId tid = backend.GenID();
    if (batched) {
      std::vector<LeaseReply> got = backend.Acquire(
          tid, {{LeaseRequest::Kind::kQaRead, "x"},
                {LeaseRequest::Kind::kQaRead, "y"},
                {LeaseRequest::Kind::kDelta, "z", {DeltaOp::Kind::kIncr, {}, 2}},
                {LeaseRequest::Kind::kQaReg, "w"}});
      backend.CommitSwaps(tid, {{"x", "2", got[0].token},
                                {"y", std::nullopt, got[1].token}});
    } else {
      QaReadReply x = backend.QaRead("x", tid);
      QaReadReply y = backend.QaRead("y", tid);
      backend.IQDelta(tid, "z", {DeltaOp::Kind::kIncr, {}, 2});
      backend.QaReg(tid, "w");
      backend.SaR("x", std::string_view("2"), x.token);
      backend.SaR("y", std::nullopt, y.token);
      backend.Commit(tid);
    }
    EXPECT_EQ(server.store().Get("x")->value, "2");
    EXPECT_EQ(server.store().Get("z")->value, "3");
    EXPECT_EQ(server.LeaseCount(), 0u);
    Kinds kinds;
    for (const TraceEvent& e : server.TraceSnapshot(1000)) {
      kinds.emplace_back(e.kind, e.key_hash);
    }
    return kinds;
  };
  Kinds per_key = run(false);
  EXPECT_EQ(per_key.size(), 8u);  // four grants, two releases, two commits
  EXPECT_EQ(run(true), per_key);
}

// ---- the bytes RemoteBackend puts on the wire ---------------------------------

/// Loopback channel that keeps every request it carries.
class RecordingChannel final : public Channel {
 public:
  explicit RecordingChannel(IQServer& server) : inner_(server) {}
  bool RoundTrip(const std::string& request, std::string* reply) override {
    sent.push_back(request);
    return inner_.RoundTrip(request, reply);
  }
  std::vector<std::string> sent;

 private:
  LoopbackChannel inner_;
};

TEST(RemoteBackendWire, EveryVerbSendsItsPinnedRequest) {
  // One round trip per verb, byte for byte: a per-key verb is one bare
  // request, and each of a write session's two batches one `batch` frame.
  IQServer server;
  RecordingChannel channel(server);
  RemoteBackend backend(channel);
  const SessionId tid = backend.GenID();
  ASSERT_NE(tid, 0u);
  const std::string t = std::to_string(tid);
  backend.IQget("k", tid);
  backend.IQset("k", "v1", 9);
  backend.QaRead("k", tid);
  backend.SaR("k", std::string_view("v2"), 9);
  backend.SaR("k", std::nullopt, 9);
  backend.QaReg(tid, "k");
  backend.DaR(tid);
  backend.IQDelta(tid, "n", {DeltaOp::Kind::kAppend, "ab", 0});
  backend.IQDelta(tid, "n", {DeltaOp::Kind::kPrepend, "c", 0});
  backend.IQDelta(tid, "n", {DeltaOp::Kind::kIncr, {}, 3});
  backend.IQDelta(tid, "n", {DeltaOp::Kind::kDecr, {}, 2});
  backend.Commit(tid);
  backend.Abort(tid);
  backend.ReleaseKey(tid, "k");
  std::vector<LeaseReply> leases =
      backend.Acquire(tid, {{LeaseRequest::Kind::kQaRead, "a"},
                            {LeaseRequest::Kind::kQaReg, "b"}});
  ASSERT_EQ(leases.size(), 2u);
  ASSERT_EQ(leases[1].status, LeaseReply::Status::kGranted);
  const std::string token = std::to_string(leases[0].token);
  EXPECT_EQ(backend.CommitSwaps(tid, {{"a", "v3", leases[0].token}}),
            std::vector<StoreResult>{StoreResult::kStored});
  backend.Get("k");
  backend.Set("k", "v4");
  backend.Add("k", "v5");
  backend.Cas("k", "v6", 11);
  backend.Append("k", "x");
  backend.Prepend("k", "y");
  backend.Incr("n", 4);
  backend.Decr("n", 1);
  backend.DeleteVoid("k");
  EXPECT_EQ(channel.sent,
            (std::vector<std::string>{
                "genid\r\n",
                "iqget k " + t + "\r\n",
                "iqset k 9 2\r\nv1\r\n",
                "qaread k " + t + "\r\n",
                "sar k 9 2\r\nv2\r\n",
                "sarnull k 9\r\n",
                "qareg " + t + " k\r\n",
                "dar " + t + "\r\n",
                "iqappend " + t + " n 2\r\nab\r\n",
                "iqprepend " + t + " n 1\r\nc\r\n",
                "iqincr " + t + " n 3\r\n",
                "iqdecr " + t + " n 2\r\n",
                "commit " + t + "\r\n",
                "abort " + t + "\r\n",
                "release " + t + " k\r\n",
                "batch 2\r\nqaread a " + t + "\r\nqareg " + t + " b\r\n",
                "batch 2\r\nsar a " + token + " 2\r\nv3\r\ncommit " + t +
                    "\r\n",
                "gets k\r\n",
                "set k 0 0 2\r\nv4\r\n",
                "add k 0 0 2\r\nv5\r\n",
                "cas k 0 0 2 11\r\nv6\r\n",
                "append k 0 0 1\r\nx\r\n",
                "prepend k 0 0 1\r\ny\r\n",
                "incr n 4\r\n",
                "decr n 1\r\n",
                "delete k\r\n",
            }));
}

TEST(RemoteBackendWire, KeysTheProtocolCannotCarryAreNeverSent) {
  // A key with a delimiter in it would otherwise split into extra tokens
  // or smuggle whole requests onto the wire (here a flush_all). Such a
  // call sends nothing and returns its transport-error shape.
  IQServer server;
  LoopbackChannel channel(server);
  RemoteBackend backend(channel);
  ASSERT_EQ(backend.Set("victim", "alive"), StoreResult::kStored);
  const SessionId tid = backend.GenID();
  const std::uint64_t before = channel.requests();
  for (const std::string bad : {"k 0\r\nflush_all\r\niqget j", "two words",
                                "", "cr\rkey", "lf\nkey"}) {
    EXPECT_EQ(backend.IQget(bad, 0).status, GetReply::Status::kTransportError)
        << bad;
    EXPECT_EQ(backend.Set(bad, "v"), StoreResult::kTransportError) << bad;
    std::vector<LeaseReply> leases =
        backend.Acquire(tid, {{LeaseRequest::Kind::kQaRead, "fine"},
                              {LeaseRequest::Kind::kQaReg, bad}});
    ASSERT_EQ(leases.size(), 2u);
    EXPECT_EQ(leases[0].status, LeaseReply::Status::kTransportError) << bad;
    EXPECT_EQ(leases[1].status, LeaseReply::Status::kNotRun) << bad;
    std::vector<std::optional<CacheItem>> got =
        backend.MultiGet({"victim", bad});
    ASSERT_EQ(got.size(), 2u);
    EXPECT_FALSE(got[0].has_value()) << bad;
    EXPECT_FALSE(got[1].has_value()) << bad;
    EXPECT_EQ(channel.requests(), before) << bad;
  }
  EXPECT_EQ(server.LeaseCount(), 0u);
  ASSERT_TRUE(server.store().Get("victim").has_value());
  EXPECT_EQ(server.store().Get("victim")->value, "alive");
}

}  // namespace
}  // namespace iq::net
