#include "common/net.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace scoded::net {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + ErrnoMessage(errno);
}

// With SO_RCVTIMEO/SO_SNDTIMEO armed, a timed-out blocking call fails with
// EAGAIN/EWOULDBLOCK — surface it as a deadline, not a generic I/O error.
bool ErrnoIsTimeout(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

Status SetSocketTimeout(int fd, int optname, int millis) {
  if (fd < 0) {
    return FailedPreconditionError("timeout on closed connection");
  }
  if (millis < 0) {
    return InvalidArgumentError("timeout must be non-negative");
  }
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv)) != 0) {
    return InternalError(Errno("setsockopt"));
  }
  return OkStatus();
}

}  // namespace

TcpConn& TcpConn::operator=(TcpConn&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status TcpConn::SetRecvTimeout(int millis) {
  return SetSocketTimeout(fd_, SO_RCVTIMEO, millis);
}

Status TcpConn::SetSendTimeout(int millis) {
  return SetSocketTimeout(fd_, SO_SNDTIMEO, millis);
}

Status TcpConn::WriteAll(std::string_view data) {
  if (!valid()) {
    return FailedPreconditionError("write on closed connection");
  }
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE instead of SIGPIPE.
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (ErrnoIsTimeout(errno)) {
        return DeadlineExceededError("send deadline exceeded after " +
                                     std::to_string(sent) + " bytes");
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        return UnavailableError(Errno("send"));
      }
      return InternalError(Errno("send"));
    }
    sent += static_cast<size_t>(n);
  }
  return OkStatus();
}

Result<std::string> TcpConn::ReadAll(size_t max_bytes) {
  if (!valid()) {
    return FailedPreconditionError("read on closed connection");
  }
  std::string out;
  char buf[4096];
  while (out.size() < max_bytes) {
    size_t want = std::min(sizeof(buf), max_bytes - out.size());
    ssize_t n = ::recv(fd_, buf, want, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (ErrnoIsTimeout(errno)) {
        return DeadlineExceededError("recv deadline exceeded after " +
                                     std::to_string(out.size()) + " bytes");
      }
      return InternalError(Errno("recv"));
    }
    if (n == 0) {
      break;
    }
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

Result<std::string> TcpConn::ReadExact(size_t n) {
  if (!valid()) {
    return FailedPreconditionError("read on closed connection");
  }
  std::string out;
  out.reserve(n);
  char buf[4096];
  while (out.size() < n) {
    size_t want = std::min(sizeof(buf), n - out.size());
    ssize_t got = ::recv(fd_, buf, want, 0);
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (ErrnoIsTimeout(errno)) {
        return DeadlineExceededError("recv deadline exceeded after " +
                                     std::to_string(out.size()) + " of " +
                                     std::to_string(n) + " bytes");
      }
      return InternalError(Errno("recv"));
    }
    if (got == 0) {
      if (out.empty()) {
        return UnavailableError("connection closed");
      }
      return DataLossError("connection closed after " + std::to_string(out.size()) +
                           " of " + std::to_string(n) + " bytes");
    }
    out.append(buf, static_cast<size_t>(got));
  }
  return out;
}

Result<std::string> TcpConn::ReadUntil(std::string_view delim, size_t max_bytes) {
  if (!valid()) {
    return FailedPreconditionError("read on closed connection");
  }
  std::string out;
  char c = 0;
  while (out.size() < max_bytes) {
    ssize_t n = ::recv(fd_, &c, 1, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (ErrnoIsTimeout(errno)) {
        return DeadlineExceededError("recv deadline exceeded after " +
                                     std::to_string(out.size()) + " bytes");
      }
      return InternalError(Errno("recv"));
    }
    if (n == 0) {
      break;
    }
    out.push_back(c);
    if (out.size() >= delim.size() &&
        std::string_view(out).substr(out.size() - delim.size()) == delim) {
      break;
    }
  }
  return out;
}

void TcpConn::ShutdownWrite() {
  if (valid()) {
    ::shutdown(fd_, SHUT_WR);
  }
}

void TcpConn::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

Result<TcpListener> TcpListener::Bind(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return InternalError(Errno("socket"));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string message = Errno("bind");
    ::close(fd);
    return (errno == EADDRINUSE || errno == EACCES)
               ? InvalidArgumentError("port " + std::to_string(port) +
                                      " unavailable (" + message + ")")
               : InternalError(message);
  }
  if (::listen(fd, /*backlog=*/16) != 0) {
    std::string message = Errno("listen");
    ::close(fd);
    return InternalError(message);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    std::string message = Errno("getsockname");
    ::close(fd);
    return InternalError(message);
  }
  return TcpListener(fd, ntohs(bound.sin_port));
}

Result<TcpConn> TcpListener::Accept() {
  if (!valid()) {
    return FailedPreconditionError("accept on closed listener");
  }
  for (;;) {
    int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client >= 0) {
      return TcpConn(client);
    }
    if (errno == EINTR) {
      continue;
    }
    return InternalError(Errno("accept4"));
  }
}

Result<TcpConn> TcpListener::AcceptWithTimeout(int millis) {
  if (!valid()) {
    return FailedPreconditionError("accept on closed listener");
  }
  if (millis < 0) {
    return InvalidArgumentError("timeout must be non-negative");
  }
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  for (;;) {
    int ready = ::poll(&pfd, 1, millis);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;  // restart with the full timeout; close enough for a bound wait
      }
      return InternalError(Errno("poll"));
    }
    if (ready == 0) {
      return DeadlineExceededError("no connection within " + std::to_string(millis) + " ms");
    }
    return Accept();
  }
}

void TcpListener::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpConn> DialLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return InternalError(Errno("socket"));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return TcpConn(fd);
    }
    if (errno == EINTR) {
      continue;
    }
    std::string message = Errno("connect");
    ::close(fd);
    return InternalError("127.0.0.1:" + std::to_string(port) + ": " + message);
  }
}

Result<std::pair<TcpConn, TcpConn>> SocketPair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return InternalError(Errno("socketpair"));
  }
  return std::make_pair(TcpConn(fds[0]), TcpConn(fds[1]));
}

}  // namespace scoded::net
