#include "net/tcp_channel.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

namespace iq::net {

namespace {

/// Read attempts with EAGAIN before falling back to a poll() wait. The
/// server answers small requests in a few microseconds; spinning that long
/// beats eating a scheduler wakeup on every round trip. Only worth it with
/// a spare core — on a single CPU spinning just delays the server's
/// timeslice, so there reads go straight to poll.
constexpr int kReadSpins = 400;

/// Asked once: glibc's hardware_concurrency() reads sysfs on every call,
/// which cost a syscall per round trip when asked per read.
bool SpinWorthwhile() {
  static const bool worthwhile = std::thread::hardware_concurrency() > 1;
  return worthwhile;
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  asm volatile("" ::: "memory");
#endif
}

using TimePoint = std::chrono::steady_clock::time_point;
constexpr TimePoint kNoDeadline = TimePoint::max();

/// poll() timeout argument for `deadline`: -1 for no deadline, otherwise
/// the remaining milliseconds clamped to >= 0 (0 makes poll a non-blocking
/// check whose empty result the callers treat as expiry).
int PollTimeoutMs(TimePoint deadline) {
  if (deadline == kNoDeadline) return -1;
  auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                       deadline - std::chrono::steady_clock::now())
                       .count();
  if (remaining <= 0) return 0;
  constexpr long long kMaxPoll = 1 << 30;
  return static_cast<int>(remaining < kMaxPoll ? remaining : kMaxPoll);
}

bool Expired(TimePoint deadline) {
  return deadline != kNoDeadline &&
         std::chrono::steady_clock::now() >= deadline;
}

}  // namespace

std::unique_ptr<TcpChannel> TcpChannel::Connect(const std::string& host,
                                                std::uint16_t port,
                                                std::string* error) {
  return Connect(host, port, Options{}, error);
}

std::unique_ptr<TcpChannel> TcpChannel::Connect(const std::string& host,
                                                std::uint16_t port,
                                                const Options& options,
                                                std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  std::string service = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0) {
    if (error != nullptr) {
      *error = "getaddrinfo " + host + ": " + gai_strerror(rc);
    }
    return nullptr;
  }
  int fd = -1;
  int last_errno = ECONNREFUSED;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    // Non-blocking from birth: the same fd state serves both the bounded
    // connect below and the spin-then-poll reads / deadline waits later.
    fd = ::socket(ai->ai_family,
                  ai->ai_socktype | SOCK_CLOEXEC | SOCK_NONBLOCK,
                  ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    if (errno == EINPROGRESS) {
      TimePoint deadline =
          options.connect_timeout_ms <= 0
              ? kNoDeadline
              : std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options.connect_timeout_ms);
      bool connected = false;
      while (true) {
        pollfd pfd{fd, POLLOUT, 0};
        int pr = ::poll(&pfd, 1, PollTimeoutMs(deadline));
        if (pr < 0 && errno == EINTR) continue;
        if (pr <= 0) {
          last_errno = ETIMEDOUT;
          break;
        }
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
        if (so_error == 0) {
          connected = true;
        } else {
          last_errno = so_error;
        }
        break;
      }
      if (connected) break;
    } else {
      last_errno = errno;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    if (error != nullptr) {
      *error =
          "connect " + host + ":" + service + ": " + std::strerror(last_errno);
    }
    return nullptr;
  }
  int on = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
  return std::unique_ptr<TcpChannel>(new TcpChannel(fd, options));
}

TcpChannel::~TcpChannel() {
  if (fd_ >= 0) ::close(fd_);
}

TcpChannel::TimePoint TcpChannel::IoDeadline() const {
  return options_.io_timeout_ms <= 0
             ? kNoDeadline
             : std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(options_.io_timeout_ms);
}

bool TcpChannel::WriteAll(const char* data, std::size_t size,
                          TimePoint deadline) {
  std::size_t sent = 0;
  while (sent < size) {
    ssize_t w = ::write(fd_, data + sent, size - sent);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLOUT, 0};
      int pr = ::poll(&pfd, 1, PollTimeoutMs(deadline));
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) break;  // deadline expired (pr==0) or poll error
      continue;
    }
    break;
  }
  if (sent == size) return true;
  ::close(fd_);
  fd_ = -1;
  return false;
}

bool TcpChannel::FillReadBuffer(TimePoint deadline) {
  char buf[64 * 1024];
  int spins = SpinWorthwhile() ? kReadSpins : 0;
  while (true) {
    ssize_t r = ::read(fd_, buf, sizeof(buf));
    if (r > 0) {
      rbuf_.append(buf, static_cast<std::size_t>(r));
      return true;
    }
    if (r == 0) break;  // EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (spins-- > 0) {
        CpuRelax();
        continue;
      }
      pollfd pfd{fd_, POLLIN, 0};
      int pr = ::poll(&pfd, 1, PollTimeoutMs(deadline));
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) break;  // deadline expired (pr==0) or poll error
      spins = 0;  // poll said readable: retry the read
      continue;
    }
    break;
  }
  ::close(fd_);
  fd_ = -1;
  return false;
}

void TcpChannel::MarkConsumed(std::size_t n) {
  rpos_ += n;
  if (rpos_ == rbuf_.size()) {
    rbuf_.clear();
    rpos_ = 0;
  } else if (rpos_ > rbuf_.size() / 2) {
    rbuf_.erase(0, rpos_);
    rpos_ = 0;
  }
}

bool TcpChannel::RoundTrip(const std::string& request_bytes,
                           std::string* reply) {
  std::lock_guard lock(mu_);
  reply->clear();
  if (fd_ < 0) return false;
  TimePoint deadline = IoDeadline();
  // The caller may pipeline several requests into one RoundTrip (the
  // LoopbackChannel contract), so count how many responses to await.
  const std::size_t expected = CountRequests(request_bytes);
  if (!WriteAll(request_bytes.data(), request_bytes.size(), deadline)) {
    return false;
  }
  ResponseView response;  // read only for its length
  for (std::size_t i = 0; i < expected;) {
    if (std::size_t consumed = ReadResponse(Unread(), &response)) {
      reply->append(Unread().substr(0, consumed));
      MarkConsumed(consumed);
      ++i;
      continue;
    }
    // A parse stall with buffered garbage that can never complete would
    // loop on FillReadBuffer until the deadline; the deadline is the cap.
    if (Expired(deadline)) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    if (!FillReadBuffer(deadline)) return false;
  }
  return true;
}

bool TcpChannel::SendNoWait(const Request& request) {
  std::lock_guard lock(mu_);
  if (!AppendTo(request, &wbuf_)) return false;
  if (request.command != Command::kQuit) ++outstanding_;
  return true;
}

bool TcpChannel::Flush() {
  std::lock_guard lock(mu_);
  if (fd_ < 0) return false;
  if (wbuf_.empty()) return true;
  bool ok = WriteAll(wbuf_.data(), wbuf_.size(), IoDeadline());
  wbuf_.clear();
  return ok;
}

std::vector<Response> TcpChannel::Drain() {
  std::lock_guard lock(mu_);
  TimePoint deadline = IoDeadline();
  std::vector<Response> responses;
  responses.reserve(outstanding_);
  while (outstanding_ > 0) {
    std::size_t consumed = 0;
    if (auto response = ParseResponse(Unread(), &consumed)) {
      MarkConsumed(consumed);
      responses.push_back(std::move(*response));
      --outstanding_;
      continue;
    }
    if (fd_ < 0 || Expired(deadline) || !FillReadBuffer(deadline)) {
      if (fd_ >= 0 && Expired(deadline)) {
        ::close(fd_);
        fd_ = -1;
      }
      outstanding_ = 0;  // transport gone; report what we have
      break;
    }
  }
  return responses;
}

}  // namespace iq::net
