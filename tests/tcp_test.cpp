// End-to-end tests of the TCP front end: TcpServer (epoll workers) driven
// both through TcpChannel/RemoteBackend and through raw sockets that
// misbehave on purpose (split writes, garbage, abrupt EOF).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "casql/casql.h"
#include "core/iq_client.h"
#include "core/iq_server.h"
#include "core/sharded_backend.h"
#include "net/channel.h"
#include "net/protocol.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"
#include "stat_lines.h"
#include "util/clock.h"

namespace iq::net {
namespace {

class TcpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TcpServer::Config cfg;
    cfg.workers = 2;
    tcp_ = std::make_unique<TcpServer>(server_, cfg);
    std::string error;
    ASSERT_TRUE(tcp_->Start(&error)) << error;
  }

  std::unique_ptr<TcpChannel> Connect() {
    std::string error;
    auto ch = TcpChannel::Connect("127.0.0.1", tcp_->port(), &error);
    EXPECT_NE(ch, nullptr) << error;
    return ch;
  }

  /// A blocking raw socket to the server, for byte-level abuse.
  int RawConnect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(tcp_->port());
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
    int on = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    return fd;
  }

  /// Blocking-write all of bytes; false once the peer has gone away.
  static bool SendAll(int fd, std::string_view bytes) {
    while (!bytes.empty()) {
      ssize_t w = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (w <= 0) return false;
      bytes.remove_prefix(static_cast<std::size_t>(w));
    }
    return true;
  }

  /// Blocking-read from fd until the accumulated bytes contain needle (or
  /// EOF/error). Returns everything read.
  static std::string ReadUntil(int fd, const std::string& needle) {
    std::string got;
    char buf[4096];
    while (got.find(needle) == std::string::npos) {
      ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r <= 0) break;
      got.append(buf, static_cast<std::size_t>(r));
    }
    return got;
  }

  /// True once pred() holds, polling for up to two seconds.
  static bool Eventually(const std::function<bool()>& pred) {
    for (int i = 0; i < 400; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }

  IQServer server_;
  std::unique_ptr<TcpServer> tcp_;
};

TEST_F(TcpServerTest, BasicRoundTripsThroughRemoteClient) {
  auto channel = Connect();
  RemoteBackend client(*channel);
  EXPECT_EQ(client.Set("k", "hello"), StoreResult::kStored);
  auto item = client.Get("k");
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->value, "hello");
  EXPECT_FALSE(client.Get("missing").has_value());
}

TEST_F(TcpServerTest, MultiGetOverTheWire) {
  auto channel = Connect();
  RemoteBackend client(*channel);
  client.Set("a", "one");
  client.Set("c", "three");
  auto hits = client.MultiGet({"a", "b", "c"});
  ASSERT_EQ(hits.size(), 3u);
  ASSERT_TRUE(hits[0].has_value());
  EXPECT_EQ(hits[0]->value, "one");
  EXPECT_FALSE(hits[1].has_value());
  ASSERT_TRUE(hits[2].has_value());
  EXPECT_EQ(hits[2]->value, "three");
}

TEST_F(TcpServerTest, PipelinedRequestsSplitAtArbitraryByteBoundaries) {
  // One logical burst of pipelined requests, delivered in 3-byte slivers
  // with tiny pauses: the server must reassemble and answer all of them in
  // order on this single connection.
  int fd = RawConnect();
  std::string burst =
      "set a 0 0 1\r\nx\r\n"
      "set b 0 0 1\r\ny\r\n"
      "get a b\r\n"
      "get missing\r\n"
      "incr z 1\r\n";
  for (std::size_t off = 0; off < burst.size(); off += 3) {
    std::string piece = burst.substr(off, 3);
    ASSERT_EQ(::write(fd, piece.data(), piece.size()),
              static_cast<ssize_t>(piece.size()));
    if (off % 9 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::string reply = ReadUntil(fd, "NOT_FOUND\r\n");
  EXPECT_NE(reply.find("STORED\r\nSTORED\r\n"), std::string::npos);
  EXPECT_NE(reply.find("VALUE a 0 1\r\nx\r\nVALUE b 0 1\r\ny\r\nEND\r\n"),
            std::string::npos);
  EXPECT_NE(reply.find("END\r\nEND\r\nNOT_FOUND\r\n"), std::string::npos);
  ::close(fd);
}

TEST_F(TcpServerTest, MalformedInputGetsClientErrorAndConnectionSurvives) {
  int fd = RawConnect();
  std::string garbage = "frobnicate the bits\r\nget k\r\n";
  ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  // The bad line draws CLIENT_ERROR; the valid request after it still runs
  // on the same connection, same worker.
  std::string reply = ReadUntil(fd, "END\r\n");
  EXPECT_NE(reply.find("CLIENT_ERROR"), std::string::npos);
  EXPECT_NE(reply.find("END\r\n"), std::string::npos);

  // And the server as a whole is still healthy for other connections.
  auto channel = Connect();
  RemoteBackend client(*channel);
  EXPECT_EQ(client.Set("after", "ok"), StoreResult::kStored);
  ::close(fd);
}

TEST_F(TcpServerTest, QuitAndEofBothTearDownCleanly) {
  // quit: server closes the connection without a reply.
  int fd = RawConnect();
  ASSERT_EQ(::write(fd, "quit\r\n", 6), 6);
  char buf[16];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);  // clean FIN, no bytes
  ::close(fd);

  // EOF: client vanishes mid-session; the worker reaps the connection.
  int fd2 = RawConnect();
  ASSERT_EQ(::write(fd2, "set k 0 0 1\r\nv\r\n", 16), 16);
  ReadUntil(fd2, "STORED\r\n");
  ::close(fd2);

  EXPECT_TRUE(Eventually([this] { return tcp_->Stats().conn_active == 0; }));
  std::uint64_t accepted = tcp_->Stats().conn_accepted;
  EXPECT_GE(accepted, 2u);

  // Still serving.
  auto channel = Connect();
  RemoteBackend client(*channel);
  EXPECT_TRUE(client.Get("k").has_value());
}

TEST_F(TcpServerTest, QuitAfterPipelinedBatchAnswersEverythingFirst) {
  // quit arrives in the same write as 32 pipelined gets: the connection must
  // linger until every response has flushed, and only then FIN.
  constexpr int kGets = 32;
  int fd = RawConnect();
  std::string burst;
  for (int i = 0; i < kGets; ++i) burst += "get q:" + std::to_string(i) + "\r\n";
  burst += "quit\r\n";
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  std::string got;
  char buf[4096];
  while (true) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r <= 0) break;  // FIN only after the whole batch
    got.append(buf, static_cast<std::size_t>(r));
  }
  std::string expected;
  for (int i = 0; i < kGets; ++i) expected += "END\r\n";
  EXPECT_EQ(got, expected);
  ::close(fd);
  EXPECT_TRUE(Eventually([this] { return tcp_->Stats().conn_active == 0; }));
}

TEST_F(TcpServerTest, WireCountersShowUpInStats) {
  auto channel = Connect();
  RemoteBackend client(*channel);
  client.Set("k", "v");
  std::string stats = client.Stats();
  for (const char* name :
       {"STAT conn_accepted ", "STAT conn_active ", "STAT bytes_read ",
        "STAT bytes_written ", "STAT net_requests "}) {
    EXPECT_NE(stats.find(name), std::string::npos) << name;
  }
  TcpServerStats s = tcp_->Stats();
  EXPECT_GE(s.conn_accepted, 1u);
  EXPECT_GE(s.conn_active, 1u);
  EXPECT_GT(s.bytes_read, 0u);
  EXPECT_GT(s.bytes_written, 0u);
  EXPECT_GE(s.requests, 2u);
}

TEST_F(TcpServerTest, WireStatsRenderEveryRowOnceWithItsValue) {
  auto channel = Connect();
  RemoteBackend client(*channel);
  client.Set("k", "v");
  const std::string stats = client.Stats();
  const auto lines = StatLines(stats);
  for (const char* name : {"conn_accepted", "conn_active", "bytes_read",
                           "bytes_written", "net_requests"}) {
    auto it = lines.find(name);
    ASSERT_NE(it, lines.end()) << name;
    EXPECT_EQ(it->second.size(), 1u) << name;
  }
  // The reply rendered after its own request was counted; since then only
  // the reply itself ("END\r\n" closes it) went out on the wire.
  const TcpServerStats rendered = ParseStats(stats, kTcpServerStatsFields);
  const std::uint64_t reply_bytes = stats.size() + 5;
  EXPECT_TRUE(Eventually([&] {
    return tcp_->Stats().bytes_written == rendered.bytes_written + reply_bytes;
  }));
  TcpServerStats now = tcp_->Stats();
  now.bytes_written -= reply_bytes;
  ExpectRowsOnce(lines, now, kTcpServerStatsFields);
}

TEST(TcpScrapeTest, MetricsMirrorsStatsThenSweepAndFlushAllTakeEffect) {
  ManualClock clock;
  IQServer::Config cfg;
  cfg.clock = &clock;
  cfg.lease_lifetime = kNanosPerSec;
  IQServer server(CacheStore::Config{.clock = &clock}, cfg);
  TcpServer::Config net_cfg;
  net_cfg.workers = 2;
  TcpServer tcp(server, net_cfg);
  std::string error;
  ASSERT_TRUE(tcp.Start(&error)) << error;
  auto channel = TcpChannel::Connect("127.0.0.1", tcp.port(), &error);
  ASSERT_NE(channel, nullptr) << error;
  RemoteBackend client(*channel);

  client.Set("a", "1");
  client.Get("a");
  client.Get("missing");
  SessionId tid = client.GenID();
  QaReadReply q = client.QaRead("a", tid);
  ASSERT_EQ(q.status, QaReadReply::Status::kGranted);
  client.SaR("a", "2", q.token);
  client.Commit(tid);

  // Back-to-back scrapes of a quiesced server. Between them only the
  // scrapes themselves moved anything: the `metrics` request is on the
  // wire counters before its reply renders, and the `stats` request is
  // recorded as one more `other`-class command after its own reply
  // rendered. The manual clock keeps every recorded latency at 0 ns.
  std::string stats = client.Stats();
  std::optional<std::string> metrics = client.Metrics();
  ASSERT_TRUE(metrics);
  std::map<std::string, double> series;
  ASSERT_TRUE(ParseMetrics(*metrics, &series)) << *metrics;
  std::istringstream lines(stats);
  std::string stat, name;
  std::uint64_t value = 0;
  std::size_t count = 0;
  while (lines >> stat >> name >> value) {
    ++count;
    ASSERT_TRUE(series.count("iq_" + name)) << name;
    if (name == "net_requests" || name == "bytes_read" ||
        name == "bytes_written") {
      continue;
    }
    if (name == "cmd_other_count") ++value;
    EXPECT_DOUBLE_EQ(series.at("iq_" + name), static_cast<double>(value))
        << name;
  }
  EXPECT_TRUE(lines.eof()) << "a STAT line did not parse";
  EXPECT_EQ(series.size(), count);
  EXPECT_DOUBLE_EQ(series.at("iq_commits"), 1.0);
  EXPECT_DOUBLE_EQ(series.at("iq_leases_live"), 0.0);

  // A Q lease on a missing key, abandoned: only a sweep reclaims it.
  ASSERT_EQ(client.QaRead("b", client.GenID()).status,
            QaReadReply::Status::kGranted);
  clock.Advance(2 * kNanosPerSec);
  EXPECT_EQ(client.Sweep(), std::optional<std::uint64_t>(1));

  client.FlushAll();
  stats = client.Stats();
  EXPECT_NE(stats.find("STAT item_count 0\r\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("STAT flushes 1\r\n"), std::string::npos) << stats;
  tcp.Stop();
}

TEST(TcpNearCacheTest, RepeatedGetsWithinValidityCostOneWireRequest) {
  // The tentpole claim, asserted at the wire: once a hit carries a validity
  // grant, repeated Gets inside the interval are served from the client's
  // near cache and the server sees NO further requests.
  IQServer::Config cfg;
  cfg.near_validity = 500 * kNanosPerMilli;
  IQServer server(CacheStore::Config{}, cfg);
  TcpServer::Config net_cfg;
  net_cfg.workers = 2;
  TcpServer tcp(server, net_cfg);
  std::string error;
  ASSERT_TRUE(tcp.Start(&error)) << error;
  server.store().Set("k", "v");

  auto channel = TcpChannel::Connect("127.0.0.1", tcp.port(), &error);
  ASSERT_NE(channel, nullptr) << error;
  RemoteBackend backend(*channel);
  IQClient::Config client_cfg;
  client_cfg.near_capacity = 8;
  IQClient client(backend, client_cfg);
  auto session = client.NewSession();

  auto first = session->Get("k");
  ASSERT_EQ(first.status, ClientGetResult::Status::kHit);
  EXPECT_FALSE(first.near_hit);  // populated over the wire, grant attached

  std::uint64_t baseline = tcp.Stats().requests;
  for (int i = 0; i < 10; ++i) {
    auto r = session->Get("k");
    ASSERT_EQ(r.status, ClientGetResult::Status::kHit);
    EXPECT_TRUE(r.near_hit);
    EXPECT_EQ(r.value, "v");
    EXPECT_GT(r.near_remaining, 0);
  }
  EXPECT_EQ(tcp.Stats().requests, baseline);  // zero round trips
  EXPECT_EQ(client.near_cache()->stats().hits, 10u);
  EXPECT_EQ(server.Stats().near_grants, 1u);
  tcp.Stop();
}

TEST_F(TcpServerTest, PipelinedChannelDrainsInOrder) {
  auto channel = Connect();
  constexpr int kBatch = 32;
  for (int i = 0; i < kBatch; ++i) {
    Request r;
    r.command = Command::kSet;
    r.key = "p:" + std::to_string(i);
    r.data = std::to_string(i);
    channel->SendNoWait(r);
  }
  ASSERT_TRUE(channel->Flush());
  std::vector<Response> stored = channel->Drain();
  ASSERT_EQ(stored.size(), static_cast<std::size_t>(kBatch));
  for (const Response& r : stored) EXPECT_EQ(r.type, ResponseType::kStored);

  for (int i = 0; i < kBatch; ++i) {
    Request r;
    r.command = Command::kGet;
    r.key = "p:" + std::to_string(i);
    channel->SendNoWait(r);
  }
  ASSERT_TRUE(channel->Flush());
  std::vector<Response> got = channel->Drain();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kBatch));
  for (int i = 0; i < kBatch; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].data, std::to_string(i))
        << "response order must match request order";
  }
}

TEST_F(TcpServerTest, ConcurrentConnectionsKeepExactCounterBalance) {
  // The acceptance gauntlet in miniature: several connections run the full
  // IQ refresh protocol (GenID/QaRead/SaR with retry on rejection) against
  // one counter. Every committed increment must land exactly once.
  {
    auto setup = Connect();
    RemoteBackend client(*setup);
    client.Set("n", "0");
  }
  constexpr int kThreads = 4;
  constexpr int kIncrements = 40;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &committed] {
      auto channel = Connect();
      ASSERT_NE(channel, nullptr);
      RemoteBackend client(*channel);
      for (int i = 0; i < kIncrements; ++i) {
        SessionId session = client.GenID();
        QaReadReply q = client.QaRead("n", session);
        if (q.status != QaReadReply::Status::kGranted) {
          client.Abort(session);
          --i;  // retry
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          continue;
        }
        std::string next = std::to_string(std::stoll(*q.value) + 1);
        client.SaR("n", next, q.token);
        committed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  auto channel = Connect();
  RemoteBackend check(*channel);
  EXPECT_EQ(check.Get("n")->value, std::to_string(committed.load()));
  EXPECT_EQ(committed.load(), kThreads * kIncrements);
}

TEST_F(TcpServerTest, HugeLengthClaimDrawsClientErrorWithoutDesync) {
  // `set` claiming a near-SIZE_MAX payload must not wrap the parser's
  // terminator arithmetic into accepting the request; the command draws
  // CLIENT_ERROR and the next pipelined request is answered in order.
  int fd = RawConnect();
  std::string burst = "set k 0 0 18446744073709551614\r\nget k\r\n";
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  std::string reply = ReadUntil(fd, "END\r\n");
  EXPECT_NE(reply.find("CLIENT_ERROR"), std::string::npos);
  // Nothing was stored and the connection is still usable.
  ASSERT_EQ(::write(fd, "get k\r\n", 7), 7);
  EXPECT_NE(ReadUntil(fd, "END\r\n").find("END\r\n"), std::string::npos);
  ::close(fd);
}

TEST_F(TcpServerTest, RequestCapAdmitsMaxPayloadAndStopsRunawayLine) {
  // A `set` carrying the largest payload the parser accepts is legal even
  // while its trailing CRLF is still in flight: the buffered header plus
  // payload already exceeds kMaxPayloadBytes, and must not trip the
  // server's input bound.
  int fd = RawConnect();
  std::string request = "set big 0 0 " + std::to_string(kMaxPayloadBytes) +
                        "\r\n" + std::string(kMaxPayloadBytes, 'x');
  ASSERT_TRUE(SendAll(fd, request));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(SendAll(fd, "\r\n"));
  EXPECT_EQ(ReadUntil(fd, "\r\n"), "STORED\r\n");
  ::close(fd);
  auto stored = server_.store().Get("big");
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->value.size(), kMaxPayloadBytes);

  // A line that never terminates is still bounded: once it outgrows any
  // legal request the server answers CLIENT_ERROR and closes.
  fd = RawConnect();
  SendAll(fd, std::string(kMaxPayloadBytes + (1u << 20), 'y'));  // may EPIPE
  EXPECT_NE(ReadUntil(fd, "\r\n").find("CLIENT_ERROR request exceeds server "
                                       "limit"),
            std::string::npos);
  char buf[64];
  EXPECT_LE(::read(fd, buf, sizeof(buf)), 0);  // FIN (or RST), no more bytes
  ::close(fd);
  EXPECT_TRUE(Eventually([this] { return tcp_->Stats().conn_active == 0; }));
}

TEST(TcpServerBackpressure, UnreadResponsesThrottleInsteadOfGrowingMemory) {
  // A client that pipelines many reads of a large value and consumes none of
  // the replies must be paused (response backlog capped, EPOLLIN dropped),
  // then served to completion once it starts reading — with every response
  // intact and in order.
  IQServer server;
  TcpServer::Config cfg;
  cfg.workers = 1;
  cfg.max_response_bytes = 64u << 10;  // far below the total response volume
  TcpServer tcp(server, cfg);
  std::string error;
  ASSERT_TRUE(tcp.Start(&error)) << error;

  const std::string big(32u << 10, 'v');
  {
    auto ch = TcpChannel::Connect("127.0.0.1", tcp.port(), &error);
    ASSERT_NE(ch, nullptr) << error;
    RemoteBackend client(*ch);
    ASSERT_EQ(client.Set("big", big), StoreResult::kStored);
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(tcp.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);

  constexpr int kGets = 200;  // ~6.4 MB of responses, 100x the cap
  std::string burst;
  for (int i = 0; i < kGets; ++i) burst += "get big\r\n";
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));

  const std::string one_response =
      "VALUE big 0 " + std::to_string(big.size()) + "\r\n" + big + "\r\nEND\r\n";
  std::string got;
  got.reserve(one_response.size() * kGets);
  char buf[64 * 1024];
  while (got.size() < one_response.size() * kGets) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(r, 0) << "connection died under backpressure";
    got.append(buf, static_cast<std::size_t>(r));
  }
  for (int i = 0; i < kGets; ++i) {
    EXPECT_EQ(got.compare(i * one_response.size(), one_response.size(),
                          one_response),
              0)
        << "response " << i << " corrupted or out of order";
  }
  ::close(fd);
}

TEST(TcpServerBackpressure, BatchFrameReplyStopsAtTheOutputBound) {
  // One frame of QaReads re-reading a large value under one session — each
  // after the first an idempotent re-acquire, each a full copy of the value
  // — is cut short once its replies pass max_response_bytes, instead of
  // building every copy before a byte is written. A client sends the
  // requests a cut-short reply leaves out in its next frame.
  IQServer server;
  TcpServer::Config cfg;
  cfg.workers = 1;
  cfg.max_response_bytes = 64u << 10;
  TcpServer tcp(server, cfg);
  std::string error;
  ASSERT_TRUE(tcp.Start(&error)) << error;
  const std::string big(32u << 10, 'v');
  for (const char* key : {"big", "b0", "b1", "b2", "b3"}) {
    server.store().Set(key, big);
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(tcp.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  std::string frame = "batch " + std::to_string(kMaxBatchRequests) + "\r\n";
  for (std::size_t i = 0; i < kMaxBatchRequests; ++i) {
    frame += "qaread big 7\r\n";
  }
  ASSERT_EQ(::write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  std::string got;
  std::optional<Response> reply;
  char buf[64 * 1024];
  while (!reply) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(r, 0) << "connection died";
    got.append(buf, static_cast<std::size_t>(r));
    std::size_t used = 0;
    reply = ParseResponse(got, &used);
  }
  ASSERT_EQ(reply->type, ResponseType::kBatch);
  // At most one value past the bound, not a thousand copies.
  ASSERT_GE(reply->batch.size(), 1u);
  EXPECT_LE(reply->batch.size(), cfg.max_response_bytes / big.size() + 1);
  for (const Response& r : reply->batch) {
    EXPECT_EQ(r.type, ResponseType::kQValue);
    EXPECT_EQ(r.data, big);
  }
  // The connection goes on answering, with nothing else queued before.
  const std::string abort = "abort 7\r\n";
  ASSERT_EQ(::write(fd, abort.data(), abort.size()),
            static_cast<ssize_t>(abort.size()));
  ssize_t r = ::read(fd, buf, sizeof(buf));
  ASSERT_GT(r, 0);
  EXPECT_EQ(std::string(buf, static_cast<std::size_t>(r)), "OK\r\n");
  EXPECT_EQ(server.LeaseCount(), 0u);
  ::close(fd);

  // Four QaReads of large values: the first frame stops past the bound and
  // the client sends the rest, so every lease is granted in two requests.
  auto ch = TcpChannel::Connect("127.0.0.1", tcp.port(), &error);
  ASSERT_NE(ch, nullptr) << error;
  RemoteBackend backend(*ch);
  SessionId tid = backend.GenID();
  std::uint64_t before = tcp.Stats().requests;
  std::vector<LeaseReply> leases =
      backend.Acquire(tid, {{LeaseRequest::Kind::kQaRead, "b0"},
                            {LeaseRequest::Kind::kQaRead, "b1"},
                            {LeaseRequest::Kind::kQaRead, "b2"},
                            {LeaseRequest::Kind::kQaRead, "b3"}});
  EXPECT_EQ(tcp.Stats().requests - before, 2u);
  ASSERT_EQ(leases.size(), 4u);
  for (const LeaseReply& lease : leases) {
    EXPECT_EQ(lease.status, LeaseReply::Status::kGranted);
    EXPECT_EQ(lease.value, big);
  }
  EXPECT_EQ(server.LeaseCount(), 4u);
  backend.Commit(tid);
  EXPECT_EQ(server.LeaseCount(), 0u);
  ch.reset();
  tcp.Stop();
}

// A server that accepts the connection and then never replies must not hang
// the client: the io deadline expires, the operation fails as a transport
// error, and the channel reports itself dead.
TEST(TcpChannelDeadlineTest, SilentServerTripsTheIoDeadline) {
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  // Accept in the background, read the request, never answer.
  std::thread mute([lfd] {
    int fd = ::accept(lfd, nullptr, nullptr);
    if (fd >= 0) {
      char buf[256];
      while (::read(fd, buf, sizeof(buf)) > 0) {
      }
      ::close(fd);
    }
  });

  TcpChannel::Options opt;
  opt.connect_timeout_ms = 1000;
  opt.io_timeout_ms = 100;
  std::string error;
  auto channel =
      TcpChannel::Connect("127.0.0.1", ntohs(addr.sin_port), opt, &error);
  ASSERT_NE(channel, nullptr) << error;

  const Clock& clock = SteadyClock::Instance();
  Nanos start = clock.Now();
  std::string reply;
  EXPECT_FALSE(channel->RoundTrip("get k\r\n", &reply));
  Nanos elapsed = clock.Now() - start;
  EXPECT_GE(elapsed, 90 * kNanosPerMilli);  // waited for the deadline...
  EXPECT_LT(elapsed, 2 * kNanosPerSec);     // ...but nowhere near forever
  // The deadline tore the connection down; later operations fail fast.
  EXPECT_FALSE(channel->RoundTrip("get k\r\n", &reply));

  channel.reset();  // EOF lets the mute server's read loop exit
  mute.join();
  ::close(lfd);
}

TEST_F(TcpServerTest, StopIsIdempotentAndDropsConnections) {
  auto channel = Connect();
  RemoteBackend client(*channel);
  client.Set("k", "v");
  tcp_->Stop();
  tcp_->Stop();  // second call is a no-op
  EXPECT_EQ(tcp_->Stats().conn_active, 0u);
}

// ---- write sessions on the wire: two requests per written shard ------------

/// A casql write session over `keys` whose RDBMS body changes nothing and
/// whose refresh rule stores `value`.
casql::WriteSpec TouchSpec(const std::vector<std::string>& keys,
                           const std::string& value) {
  casql::WriteSpec spec;
  spec.body = [](sql::Transaction&) { return true; };
  for (const std::string& key : keys) {
    casql::KeyUpdate u;
    u.key = key;
    u.refresh = [value](const std::optional<std::string>&) {
      return std::optional<std::string>(value);
    };
    spec.updates.push_back(std::move(u));
  }
  return spec;
}

TEST_F(TcpServerTest, CasqlWriteCostsTwoRequestsWhateverItsKeyCount) {
  // One acquire request before the RDBMS commit and one commit request
  // after it, for 1 to 5 keys: QaReads (or QaRegs) travel in one frame, and
  // the SaRs ride in the commit's frame.
  sql::Database db;
  auto channel = Connect();
  RemoteBackend backend(*channel);
  for (casql::Technique technique :
       {casql::Technique::kRefresh, casql::Technique::kInvalidate}) {
    casql::CasqlConfig cfg;
    cfg.technique = technique;
    cfg.consistency = casql::Consistency::kIQ;
    casql::CasqlSystem system(db, backend, cfg);
    auto conn = system.Connect();
    for (int k = 1; k <= 5; ++k) {
      std::vector<std::string> keys;
      for (int i = 0; i < k; ++i) {
        keys.emplace_back("w");
        keys.back() += std::to_string(i);
      }
      for (const std::string& key : keys) server_.store().Set(key, "old");
      std::uint64_t before = tcp_->Stats().requests;
      casql::WriteOutcome out = conn->Write(TouchSpec(keys, "new"));
      ASSERT_TRUE(out.committed);
      EXPECT_EQ(tcp_->Stats().requests - before, 2u)
          << casql::ToString(technique) << " k=" << k;
      for (const std::string& key : keys) {
        auto item = server_.store().Get(key);
        if (technique == casql::Technique::kRefresh) {
          ASSERT_TRUE(item.has_value()) << key;
          EXPECT_EQ(item->value, "new");
        } else {
          EXPECT_FALSE(item.has_value()) << key;
        }
      }
      EXPECT_EQ(server_.LeaseCount(), 0u);
    }
  }
}

TEST(TcpRouterTest, WriteCostsOneAcquireAndOneCommitPerWrittenShard) {
  IQServer s0;
  IQServer s1;
  TcpServer::Config net_cfg;
  net_cfg.workers = 1;
  TcpServer t0(s0, net_cfg);
  TcpServer t1(s1, net_cfg);
  std::string error;
  ASSERT_TRUE(t0.Start(&error)) << error;
  ASSERT_TRUE(t1.Start(&error)) << error;
  auto c0 = TcpChannel::Connect("127.0.0.1", t0.port(), &error);
  auto c1 = TcpChannel::Connect("127.0.0.1", t1.port(), &error);
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  RemoteBackend r0(*c0);
  RemoteBackend r1(*c1);
  ShardedBackend router(
      {{"s0", &r0, 1, {}, {}, {}, {}}, {"s1", &r1, 1, {}, {}, {}, {}}});
  auto key_on = [&router](std::size_t shard, const std::string& prefix) {
    for (int i = 0;; ++i) {
      std::string key = prefix + std::to_string(i);
      if (router.ShardFor(key) == shard) return key;
    }
  };
  const std::string a = key_on(0, "a");
  const std::string a2 = key_on(0, "c");
  const std::string b = key_on(1, "b");
  for (const std::string& k : {a, a2}) s0.store().Set(k, "old");
  s1.store().Set(b, "old");

  sql::Database db;
  casql::CasqlConfig cfg;
  cfg.technique = casql::Technique::kRefresh;
  cfg.consistency = casql::Consistency::kIQ;
  casql::CasqlSystem system(db, router, cfg);
  auto conn = system.Connect();
  auto write = [&](const std::vector<std::string>& keys, std::uint64_t want0,
                   std::uint64_t want1) {
    std::uint64_t before0 = t0.Stats().requests;
    std::uint64_t before1 = t1.Stats().requests;
    ASSERT_TRUE(conn->Write(TouchSpec(keys, "new")).committed);
    EXPECT_EQ(t0.Stats().requests - before0, want0) << keys.size();
    EXPECT_EQ(t1.Stats().requests - before1, want1) << keys.size();
  };
  // The connection's first touch of each shard mints its child id there.
  write({a, b}, 3, 3);
  // From then on: one acquire and one commit per written shard, no genid.
  write({a, b, a2}, 2, 2);
  write({a, a2}, 2, 0);  // shard 1 is neither leased nor committed
  // A shard the session only read is not written: its commit skips it.
  auto read = conn->Read(b, [](sql::Transaction&) {
    return std::optional<std::string>("x");
  });
  EXPECT_TRUE(read.hit);
  write({a}, 2, 0);
  EXPECT_EQ(router.router_stats().shard_sessions, 2u);
  EXPECT_EQ(s0.LeaseCount() + s1.LeaseCount(), 0u);
  c0.reset();
  c1.reset();
  t0.Stop();
  t1.Stop();
}

// ---- batch frames on a raw connection --------------------------------------

TEST_F(TcpServerTest, BadBatchFrameExecutesNothingAndTheNextRequestAnswers) {
  int fd = RawConnect();
  for (const char* bad : {"qaread j notanumber\r\n", "quit\r\n",
                          "stats\r\n", "batch 1\r\n"}) {
    ASSERT_TRUE(SendAll(
        fd, std::string("batch 2\r\nqaread k 7\r\n") + bad + "get k\r\n"));
    std::string reply = ReadUntil(fd, "END\r\n");
    EXPECT_EQ(reply.rfind("CLIENT_ERROR batch: ", 0), 0u) << reply;
    EXPECT_EQ(reply.find("CLIENT_ERROR", 1), std::string::npos) << reply;
    EXPECT_EQ(reply.substr(reply.size() - 5), "END\r\n") << reply;
    EXPECT_EQ(server_.LeaseCount(), 0u) << bad;  // the qaread never ran
  }
  ::close(fd);
}

TEST_F(TcpServerTest, TruncatedBatchFrameExecutesNothing) {
  int fd = RawConnect();
  ASSERT_TRUE(SendAll(fd, "batch 3\r\nqaread k 7\r\nqaread j 7\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(server_.LeaseCount(), 0u);  // waiting for the third request
  ::close(fd);  // the frame never completes
  EXPECT_TRUE(Eventually([this] { return tcp_->Stats().conn_active == 0; }));
  EXPECT_EQ(server_.LeaseCount(), 0u);
}

TEST_F(TcpServerTest, HugeBatchCountStaysUnderTheInputCap) {
  // A frame claiming 2^64-1 requests is one incomplete request until the
  // server's input bound closes the connection; nothing inside it runs.
  int fd = RawConnect();
  std::string chunk;
  while (chunk.size() < (1u << 20)) chunk += "qaread k 7\r\n";
  SendAll(fd, "batch 18446744073709551615\r\n");
  for (std::size_t sent = 0; sent <= kMaxRequestBytes; sent += chunk.size()) {
    if (!SendAll(fd, chunk)) break;  // the server may already have closed
  }
  EXPECT_NE(ReadUntil(fd, "\r\n").find("CLIENT_ERROR request exceeds server "
                                         "limit"),
            std::string::npos);
  EXPECT_TRUE(Eventually([this] { return tcp_->Stats().conn_active == 0; }));
  EXPECT_EQ(server_.LeaseCount(), 0u);
  ::close(fd);
}

}  // namespace
}  // namespace iq::net
