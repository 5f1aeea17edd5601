// The layer ladder: the same IQget hit and the same refresh session
// (GenID + QaRead + SaR + Commit) timed on one thread at every layer of the
// stack, bottom up, so each rung's delta over the rung beneath is what that
// layer adds:
//
//   kvs          CacheStore::Get
//   iq_server    IQServer
//   dispatcher   CommandDispatcher::Dispatch on a parsed Request
//   loopback     RemoteBackend over LoopbackChannel (adds the codec)
//   tcp          RemoteBackend over TcpChannel -> TcpServer (1 worker)
//   sharded_tcp  ShardedBackend over two TCP servers
//   session      IQSession (IQClient) over the sharded tier
//   near         IQSession near-cache hit (no round trip)
//
// Next to it, the raw TCP floor: a 1-byte echo over one connection between
// one client thread and one server thread - the TCP rung's shape - both
// waiting the way TcpChannel and TcpServer do (spin, then block).
// Every sample includes one clock read pair (tens of ns), which cancels
// in the deltas.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/iq_client.h"
#include "core/iq_server.h"
#include "core/sharded_backend.h"
#include "net/channel.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace iq;

constexpr int kLocalOps = 100'000;  // in-process rungs
constexpr int kNetOps = 20'000;     // rungs with a socket round trip
constexpr int kWarmOps = 1'000;
/// Same spin budget as the TCP transport before it blocks.
constexpr int kSpins = 400;

const std::string kHitKey = "ladder:hit";
const std::string kRefreshKey = "ladder:refresh";
const std::string kValue(100, 'v');

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

struct Rung {
  double p50 = 0;
  double p99 = 0;
};

/// Time `ops` calls of `op` (after a warm-up); `op` returns false on a wrong
/// answer, which counts as an error.
Rung Time(int ops, const std::function<bool()>& op, int* errors) {
  for (int i = 0; i < kWarmOps; ++i) {
    if (!op()) ++*errors;
  }
  std::vector<Nanos> samples;
  samples.reserve(static_cast<std::size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    Nanos t0 = Now();
    bool ok = op();
    samples.push_back(Now() - t0);
    if (!ok) ++*errors;
  }
  Rung r;
  r.p50 = static_cast<double>(Quantile(samples, 0.50));
  r.p99 = static_cast<double>(Quantile(samples, 0.99));
  return r;
}

bool Hit(KvsBackend& b) {
  GetReply r = b.IQget(kHitKey, 0);
  return r.status == GetReply::Status::kHit && r.value == kValue;
}

bool Refresh(KvsBackend& b) {
  SessionId sid = b.GenID();
  QaReadReply q = b.QaRead(kRefreshKey, sid);
  if (q.status != QaReadReply::Status::kGranted) return false;
  bool stored = b.SaR(kRefreshKey, std::string_view(kValue), q.token) ==
                StoreResult::kStored;
  b.Commit(sid);
  return stored;
}

bool SessionRefresh(IQClient& client) {
  auto s = client.NewSession();
  std::optional<std::string> old;
  if (s->QaRead(kRefreshKey, old) != ClientQResult::kGranted) return false;
  s->SaR(kRefreshKey, std::string_view(kValue));
  s->Commit();
  return old == kValue;
}

/// Refresh session straight into the dispatcher with pre-parsed requests.
bool DispatchRefresh(net::CommandDispatcher& d, net::Request& genid,
                     net::Request& qaread, net::Request& sar,
                     net::Request& commit) {
  net::Response id = d.Dispatch(genid);
  if (id.type != net::ResponseType::kId) return false;
  qaread.session = id.number;
  net::Response q = d.Dispatch(qaread);
  if (q.type != net::ResponseType::kQValue) return false;
  sar.token = q.number;
  bool stored = d.Dispatch(sar).type == net::ResponseType::kStored;
  commit.session = id.number;
  d.Dispatch(commit);
  return stored;
}

/// 1-byte TCP echo round trips: one server thread, one client, one
/// connection. Returns the floor rung; false in *ok on a socket failure.
Rung WireFloor(bool* ok) {
  *ok = false;
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 1) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(lfd);
    return {};
  }
  int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (cfd < 0 ||
      ::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (cfd >= 0) ::close(cfd);
    ::close(lfd);
    return {};
  }
  int sfd = ::accept(lfd, nullptr, nullptr);
  ::close(lfd);
  if (sfd < 0) {
    ::close(cfd);
    return {};
  }
  int one = 1;
  for (int fd : {cfd, sfd}) {
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }

  // Server: epoll, zero-timeout polls while recently busy, then block - the
  // TcpServer worker's loop.
  std::thread echo([sfd] {
    int ep = ::epoll_create1(0);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = sfd;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, sfd, &ev);
    int spin_left = 0;
    char buf[64];
    while (true) {
      epoll_event out{};
      int n = ::epoll_wait(ep, &out, 1, spin_left > 0 ? 0 : -1);
      if (n < 0) break;
      if (n == 0) {
        --spin_left;
        continue;
      }
      spin_left = kSpins;
      ssize_t r = ::read(sfd, buf, sizeof(buf));
      if (r == 0 || (r < 0 && errno != EAGAIN)) break;
      if (r > 0 && ::write(sfd, buf, static_cast<std::size_t>(r)) != r) break;
    }
    ::close(ep);
  });

  // Client: write, then spin on read before blocking in poll - TcpChannel's
  // wait.
  auto round_trip = [cfd] {
    char b = 'x';
    if (::write(cfd, &b, 1) != 1) return false;
    int spins = kSpins;
    while (true) {
      ssize_t r = ::read(cfd, &b, 1);
      if (r == 1) return true;
      if (r == 0 || errno != EAGAIN) return false;
      if (spins-- > 0) {
        CpuRelax();
        continue;
      }
      pollfd p{cfd, POLLIN, 0};
      if (::poll(&p, 1, 1000) <= 0) return false;
    }
  };
  int errors = 0;
  Rung floor = Time(kNetOps, round_trip, &errors);
  ::shutdown(cfd, SHUT_RDWR);
  ::close(cfd);
  echo.join();
  ::close(sfd);
  *ok = errors == 0;
  return floor;
}

}  // namespace

void RunLadder(Report& report, RunOutput& out) {
  int errors = 0;
  IQServer server(CacheStore::Config{}, IQServer::Config{});
  IQServer second(CacheStore::Config{}, IQServer::Config{});
  IQServer::Config near_config;
  near_config.near_validity = 60 * kNanosPerSec;
  IQServer near_server(CacheStore::Config{}, near_config);
  server.Set(kHitKey, kValue);
  server.Set(kRefreshKey, kValue);
  near_server.Set(kHitKey, kValue);

  net::TcpServer::Config one_worker;
  one_worker.workers = 1;
  net::TcpServer tcp_server(server, one_worker);
  net::TcpServer tcp_second(second, one_worker);
  net::TcpServer tcp_near(near_server, one_worker);
  std::string error;
  if (!tcp_server.Start(&error) || !tcp_second.Start(&error) ||
      !tcp_near.Start(&error)) {
    report.Gate(false, "ladder: server start failed: " + error);
    return;
  }
  auto ch = net::TcpChannel::Connect("127.0.0.1", tcp_server.port(), &error);
  auto ch_a = net::TcpChannel::Connect("127.0.0.1", tcp_server.port(), &error);
  auto ch_b = net::TcpChannel::Connect("127.0.0.1", tcp_second.port(), &error);
  auto ch_near = net::TcpChannel::Connect("127.0.0.1", tcp_near.port(), &error);
  if (!ch || !ch_a || !ch_b || !ch_near) {
    report.Gate(false, "ladder: connect failed: " + error);
    return;
  }
  net::RemoteBackend tcp(*ch);
  net::RemoteBackend shard_a(*ch_a);
  net::RemoteBackend shard_b(*ch_b);
  ShardedBackend sharded({{"s0", &shard_a, 1, {}, {}, {}, {}},
                          {"s1", &shard_b, 1, {}, {}, {}, {}}});
  // The sharded tier's copies live on whichever child owns each key.
  sharded.Set(kHitKey, kValue);
  sharded.Set(kRefreshKey, kValue);

  net::LoopbackChannel loop_channel(server);
  net::RemoteBackend loopback(loop_channel);
  net::CommandDispatcher dispatcher(server);
  IQClient session_client(sharded);
  auto session = session_client.NewSession();
  IQClient::Config near_client_config;
  near_client_config.near_capacity = 1024;
  net::RemoteBackend near_remote(*ch_near);
  IQClient near_client(near_remote, near_client_config);
  auto near_session = near_client.NewSession();
  near_session->Get(kHitKey);  // the first hit fills the near cache

  net::Request get_req;
  get_req.command = net::Command::kIQGet;
  get_req.key = kHitKey;
  net::Request genid, qaread, sar, commit;
  genid.command = net::Command::kGenId;
  qaread.command = net::Command::kQaRead;
  qaread.key = kRefreshKey;
  sar.command = net::Command::kSaR;
  sar.key = kRefreshKey;
  sar.data = kValue;
  commit.command = net::Command::kCommit;

  struct Row {
    const char* name;
    Rung iqget;
    bool has_refresh;
    Rung refresh;
  };
  std::vector<Row> rows;
  rows.push_back({"kvs", Time(kLocalOps, [&] {
                    auto item = server.store().Get(kHitKey);
                    return item && item->value == kValue;
                  }, &errors), false, {}});
  rows.push_back({"iq_server", Time(kLocalOps, [&] { return Hit(server); }, &errors),
                  true, Time(kLocalOps, [&] { return Refresh(server); }, &errors)});
  rows.push_back({"dispatcher", Time(kLocalOps, [&] {
                    net::Response r = dispatcher.Dispatch(get_req);
                    return r.type == net::ResponseType::kValue && r.data == kValue;
                  }, &errors), true, Time(kLocalOps, [&] {
                    return DispatchRefresh(dispatcher, genid, qaread, sar, commit);
                  }, &errors)});
  rows.push_back({"loopback", Time(kLocalOps, [&] { return Hit(loopback); }, &errors),
                  true, Time(kLocalOps, [&] { return Refresh(loopback); }, &errors)});
  rows.push_back({"tcp", Time(kNetOps, [&] { return Hit(tcp); }, &errors), true,
                  Time(kNetOps, [&] { return Refresh(tcp); }, &errors)});
  rows.push_back({"sharded_tcp", Time(kNetOps, [&] { return Hit(sharded); }, &errors),
                  true, Time(kNetOps, [&] { return Refresh(sharded); }, &errors)});
  rows.push_back({"session", Time(kNetOps, [&] {
                    ClientGetResult r = session->Get(kHitKey);
                    return r.status == ClientGetResult::Status::kHit && r.value == kValue;
                  }, &errors), true,
                  Time(kNetOps, [&] { return SessionRefresh(session_client); }, &errors)});
  rows.push_back({"near", Time(kLocalOps, [&] {
                    ClientGetResult r = near_session->Get(kHitKey);
                    return r.status == ClientGetResult::Status::kHit &&
                           r.near_hit && r.value == kValue;
                  }, &errors), false, {}});
  report.Gate(errors == 0,
              "ladder: " + std::to_string(errors) + " wrong or failed operations");
  report.Gate(ch->connected() && ch_a->connected() && ch_b->connected() &&
                  ch_near->connected(),
              "ladder: a connection saw a transport error");

  auto& m = out.per_layer;
  const Row* prev_get = nullptr;
  const Row* prev_refresh = nullptr;
  for (const Row& row : rows) {
    std::string base = std::string("ladder.") + row.name;
    m[base + "_iqget_p50_ns"] = row.iqget.p50;
    m[base + "_iqget_p99_ns"] = row.iqget.p99;
    m[base + "_iqget_delta_ns"] =
        row.iqget.p50 - (prev_get != nullptr ? prev_get->iqget.p50 : 0.0);
    prev_get = &row;
    if (!row.has_refresh) continue;
    m[base + "_refresh_p50_ns"] = row.refresh.p50;
    m[base + "_refresh_p99_ns"] = row.refresh.p99;
    m[base + "_refresh_delta_ns"] =
        row.refresh.p50 - (prev_refresh != nullptr ? prev_refresh->refresh.p50 : 0.0);
    prev_refresh = &row;
  }

  bool floor_ok = false;
  Rung floor = WireFloor(&floor_ok);
  report.Gate(floor_ok, "ladder: wire-floor echo failed");
  m["ladder.wire_floor_p50_ns"] = floor.p50;
  m["ladder.wire_floor_p99_ns"] = floor.p99;
  m["ladder.tcp_over_floor_ns"] = rows[4].iqget.p50 - floor.p50;
}

}  // namespace perfbench
