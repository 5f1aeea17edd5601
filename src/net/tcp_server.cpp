#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "net/protocol.h"

namespace iq::net {

// One accepted socket, owned by exactly one worker. The parser holds the
// unconsumed request bytes; `out` holds the unsent response bytes (reused
// across requests, compacted only when fully drained).
struct TcpServer::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  int fd;
  RequestParser parser;
  std::string out;
  std::size_t out_pos = 0;
  bool want_write = false;  // EPOLLOUT currently registered
  bool want_read = true;    // EPOLLIN currently registered
  bool closing = false;     // quit seen / fatal error: flush, then close

  std::size_t out_backlog() const { return out.size() - out_pos; }
};

struct alignas(64) TcpServer::Worker {
  Worker(IQServer& server, std::size_t max_response_bytes)
      : dispatcher(server, max_response_bytes) {}

  int epoll_fd = -1;
  int wake_fd = -1;  // eventfd: shutdown + handoff wakeups
  std::thread thread;
  CommandDispatcher dispatcher;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;

  // Mailbox for connections accepted by worker 0 on this worker's behalf.
  std::mutex handoff_mu;
  std::vector<int> handoff;
  /// Accepted-but-not-yet-adopted connections, counted into the least-
  /// loaded accept decision so a burst of accepts doesn't all land here.
  std::atomic<std::uint32_t> handoff_pending{0};

  // fds unregistered this epoll batch; the close() is deferred until the
  // batch ends so the kernel cannot recycle the number for an accept4()
  // earlier in the same batch — a stale queued event would then pass the
  // conns.find() check and be applied to the wrong (new) connection.
  std::vector<int> pending_close;

  TcpServerStats wire;  // live: summed lock-free by Stats()
};

namespace {

void AddEpoll(int epoll_fd, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
}

void WakeWorker(int wake_fd) {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
}

}  // namespace

TcpServer::TcpServer(IQServer& server, Config config)
    : server_(server), config_(std::move(config)) {
  if (config_.workers < 1) config_.workers = 1;
}

TcpServer::~TcpServer() { Stop(); }

bool TcpServer::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    for (auto& w : workers_) {
      if (w->wake_fd >= 0) ::close(w->wake_fd);
      if (w->epoll_fd >= 0) ::close(w->epoll_fd);
    }
    workers_.clear();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  int on = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 128) < 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    auto w = std::make_unique<Worker>(server_, config_.max_response_bytes);
    w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    w->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (w->epoll_fd < 0 || w->wake_fd < 0) return fail("epoll/eventfd");
    AddEpoll(w->epoll_fd, w->wake_fd, EPOLLIN);
    w->dispatcher.set_stats_augmenter(
        [this](std::string& out) {
          AppendStats(out, Stats(), kTcpServerStatsFields);
        });
    workers_.push_back(std::move(w));
  }
  // Only worker 0 watches the listener; it distributes accepted sockets
  // least-loaded-first, so there is no accept thundering herd across epolls.
  AddEpoll(workers_[0]->epoll_fd, listen_fd_, EPOLLIN);

  running_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { WorkerLoop(*worker); });
  }
  return true;
}

void TcpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Never started (or already stopped): still release any bound listener.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  for (auto& w : workers_) WakeWorker(w->wake_fd);
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  for (auto& w : workers_) {
    for (auto& [fd, conn] : w->conns) ::close(fd);
    w->conns.clear();
    // Connections handed off but never adopted.
    for (int fd : w->handoff) ::close(fd);
    w->handoff.clear();
    ::close(w->wake_fd);
    ::close(w->epoll_fd);
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

TcpServerStats TcpServer::Stats() const {
  TcpServerStats total;
  for (const auto& w : workers_) {
    AccumulateLive(total, w->wire, kTcpServerStatsFields);
  }
  return total;
}

void TcpServer::WorkerLoop(Worker& worker) {
  // SCHED_BATCH turns off wakeup preemption for this thread: on a busy
  // host, synchronous clients get to finish their timeslice and several
  // requests pile up per epoll wakeup instead of the worker preempting the
  // first writer immediately. Unprivileged; ignore failure (non-Linux CI).
  sched_param sp{};
  (void)::sched_setscheduler(0, SCHED_BATCH, &sp);
  // After serving events, keep polling epoll with a zero timeout this many
  // times before blocking again. For request/response ping-pong the next
  // request lands microseconds after the reply, so a short spin dodges the
  // scheduler wakeup that otherwise dominates small-request round trips. On
  // a single CPU spinning only starves the peer, so it is off there.
  const int spin_budget = std::thread::hardware_concurrency() > 1 ? 400 : 0;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  int spin_left = 0;  // zero-timeout polls remaining before we block
  while (running_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(worker.epoll_fd, events, kMaxEvents,
                         spin_left > 0 ? 0 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      --spin_left;
      continue;
    }
    spin_left = spin_budget;  // activity: stay hot for a bit
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == worker.wake_fd) {
        std::uint64_t drained;
        while (::read(worker.wake_fd, &drained, sizeof(drained)) > 0) {
        }
        AdoptPending(worker);
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady(worker);
        continue;
      }
      auto it = worker.conns.find(fd);
      if (it == worker.conns.end()) continue;  // closed earlier this batch
      HandleEvent(worker, *it->second, events[i].events);
    }
    // Now that no stale event from this batch can alias a recycled fd,
    // release the numbers (see Worker::pending_close).
    for (int fd : worker.pending_close) ::close(fd);
    worker.pending_close.clear();
  }
  for (int fd : worker.pending_close) ::close(fd);
  worker.pending_close.clear();
  for (auto& [fd, conn] : worker.conns) ::close(fd);
  worker.conns.clear();
}

void TcpServer::AcceptReady(Worker& w0) {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or the listener went away during shutdown
    }
    int on = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    // Least-loaded handoff: a long-lived connection (an iqbench worker, a
    // casql pool member) parks on its worker forever, so blind round-robin
    // slowly piles persistent connections onto whichever worker the cursor
    // favored. Pick the worker with the fewest live + pending connections;
    // the rotating scan start spreads ties instead of biasing worker 0.
    std::size_t n = workers_.size();
    std::size_t best = accept_rotor_ % n;
    std::uint64_t best_load = ~std::uint64_t{0};
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t idx = (accept_rotor_ + i) % n;
      Worker& w = *workers_[idx];
      std::uint64_t load = Peek(w.wire.conn_active) +
                           w.handoff_pending.load(std::memory_order_relaxed);
      if (load < best_load) {
        best_load = load;
        best = idx;
      }
    }
    ++accept_rotor_;
    Worker& target = *workers_[best];
    Bump(target.wire.conn_accepted);
    if (&target == &w0) {
      AdoptConnection(w0, fd);
    } else {
      target.handoff_pending.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard lock(target.handoff_mu);
        target.handoff.push_back(fd);
      }
      WakeWorker(target.wake_fd);
    }
  }
}

void TcpServer::AdoptPending(Worker& worker) {
  std::vector<int> fds;
  {
    std::lock_guard lock(worker.handoff_mu);
    fds.swap(worker.handoff);
  }
  for (int fd : fds) {
    worker.handoff_pending.fetch_sub(1, std::memory_order_relaxed);
    AdoptConnection(worker, fd);
  }
}

void TcpServer::AdoptConnection(Worker& worker, int fd) {
  Bump(worker.wire.conn_active);
  worker.conns.emplace(fd, std::make_unique<Connection>(fd));
  AddEpoll(worker.epoll_fd, fd, EPOLLIN);
}

void TcpServer::HandleEvent(Worker& worker, Connection& conn,
                            std::uint32_t events) {
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConnection(worker, conn);
    return;
  }
  bool peer_closed = false;
  if ((events & EPOLLIN) != 0) {
    char buf[64 * 1024];
    while (true) {
      ssize_t r = ::read(conn.fd, buf, sizeof(buf));
      if (r > 0) {
        Bump(worker.wire.bytes_read, static_cast<std::uint64_t>(r));
        conn.parser.Feed(std::string_view(buf, static_cast<std::size_t>(r)));
        if (static_cast<std::size_t>(r) < sizeof(buf)) break;
        continue;
      }
      if (r == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      peer_closed = true;
      break;
    }
  }
  PumpConnection(worker, conn, peer_closed);
}

void TcpServer::PumpConnection(Worker& worker, Connection& conn,
                               bool peer_closed) {
  // Alternate draining and flushing until neither makes progress: a flush
  // that brings the output backlog back under max_response_bytes re-opens
  // DrainRequests, which must then run again for the requests that were
  // parked in the parser during backpressure (no further event would
  // deliver them if the client has nothing more to send).
  while (true) {
    std::size_t buffered_before = conn.parser.buffered();
    std::size_t backlog_before = conn.out_backlog();
    DrainRequests(worker, conn);
    FlushOutput(worker, conn);
    if (conn.parser.buffered() == buffered_before &&
        conn.out_backlog() == backlog_before) {
      break;
    }
  }
  // A closing connection lingers until its responses have flushed — quit
  // behind a pipelined batch still answers the whole batch before the FIN.
  if (peer_closed || (conn.closing && conn.out_backlog() == 0)) {
    CloseConnection(worker, conn);
    return;
  }
  UpdateInterest(worker, conn);
}

void TcpServer::DrainRequests(Worker& worker, Connection& conn) {
  // Each request is read in place and answered straight into conn.out; its
  // views die at the next Next(), after its reply is written.
  RequestView request;
  std::string error;
  while (!conn.closing) {
    if (conn.out_backlog() > config_.max_response_bytes) return;
    auto status = conn.parser.Next(&request, &error);
    if (status == RequestParser::Status::kNeedMore) break;
    if (status == RequestParser::Status::kError) {
      AppendError(error, &conn.out);
      continue;  // parser resynced past the bad line; keep the connection
    }
    Bump(worker.wire.requests);
    if (request.command == Command::kQuit) {
      // memcached closes without a reply; flush what's pending first.
      conn.closing = true;
      break;
    }
    worker.dispatcher.DispatchTo(request, &conn.out);
  }
  // Reached only via kNeedMore (or quit), so `buffered()` is the one
  // incomplete request at the head of the stream — a `batch` frame counts
  // whole. Input-side memory guard (kMaxRequestBytes): a maximum-size `set`
  // whose last bytes are still in flight fits; a runaway line or a frame
  // whose claimed count never arrives does not.
  if (!conn.closing && conn.parser.buffered() > kMaxRequestBytes) {
    AppendError("request exceeds server limit", &conn.out);
    conn.closing = true;
  }
}

void TcpServer::FlushOutput(Worker& worker, Connection& conn) {
  while (conn.out_pos < conn.out.size()) {
    ssize_t w = ::write(conn.fd, conn.out.data() + conn.out_pos,
                        conn.out.size() - conn.out_pos);
    if (w > 0) {
      Bump(worker.wire.bytes_written, static_cast<std::uint64_t>(w));
      conn.out_pos += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Partial flush: drop the sent prefix once it dominates the buffer,
      // so a persistently slow reader holds out.size() near its backlog
      // (which DrainRequests caps) instead of the whole session's volume.
      if (conn.out_pos > conn.out.size() / 2) {
        conn.out.erase(0, conn.out_pos);
        conn.out_pos = 0;
      }
      return;
    }
    // Peer is gone; drop what's left so the close path runs.
    conn.out_pos = conn.out.size();
    conn.closing = true;
  }
  conn.out.clear();
  conn.out_pos = 0;
}

void TcpServer::UpdateInterest(Worker& worker, Connection& conn) {
  bool want_write = conn.out_backlog() > 0;
  // Backpressure: while the peer isn't consuming responses, stop reading too
  // (level-triggered EPOLLIN would otherwise spin); its sends then back up
  // into TCP flow control instead of this worker's memory.
  bool want_read =
      !conn.closing && conn.out_backlog() <= config_.max_response_bytes;
  if (want_write == conn.want_write && want_read == conn.want_read) return;
  conn.want_write = want_write;
  conn.want_read = want_read;
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void TcpServer::CloseConnection(Worker& worker, Connection& conn) {
  int fd = conn.fd;
  ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  worker.conns.erase(fd);  // destroys conn
  worker.pending_close.push_back(fd);  // close()d at end of batch
  Unbump(worker.wire.conn_active);
}

}  // namespace iq::net
