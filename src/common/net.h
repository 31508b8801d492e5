#ifndef SCODED_COMMON_NET_H_
#define SCODED_COMMON_NET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"
#include "common/status.h"

namespace scoded::net {

/// Minimal blocking TCP helpers — the first networking brick of the
/// `scoded serve` direction (ROADMAP). Deliberately tiny and dependency-
/// free: RAII file descriptors, loopback-only listening, and plain
/// blocking reads/writes. The obs metrics endpoint (obs/export.h) is the
/// first consumer; the future RPC layer is meant to reuse these rather
/// than grow its own socket code. Every socket they create is
/// close-on-exec, so an exec'd child inherits none that its spawner did
/// not hand over on purpose.

/// A connected TCP stream socket. Move-only; closes on destruction.
class TcpConn {
 public:
  TcpConn() = default;
  /// Takes ownership of a connected socket descriptor.
  explicit TcpConn(int fd) : fd_(fd) {}
  ~TcpConn() { Close(); }

  TcpConn(TcpConn&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TcpConn& operator=(TcpConn&& other) noexcept;
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Arms a receive deadline: any single blocking read that makes no
  /// progress for `millis` fails with kDeadlineExceeded instead of hanging
  /// forever on a silent peer (SO_RCVTIMEO). 0 disarms.
  Status SetRecvTimeout(int millis);

  /// The send-side counterpart (SO_SNDTIMEO): a peer that never drains its
  /// receive buffer turns an eternal blocking send into kDeadlineExceeded.
  Status SetSendTimeout(int millis);

  /// Writes all of `data`, retrying on short writes and EINTR. A peer that
  /// hung up yields an error (kUnavailable, EPIPE via MSG_NOSIGNAL) rather
  /// than killing the process with SIGPIPE; an armed send deadline yields
  /// kDeadlineExceeded.
  Status WriteAll(std::string_view data);

  /// Reads at most `max_bytes` and returns what arrived before the peer
  /// closed (or the limit was hit). Empty string = orderly close with no
  /// data.
  Result<std::string> ReadAll(size_t max_bytes);

  /// Reads exactly `n` bytes, assembling short reads. The peer closing
  /// before `n` bytes arrived is kUnavailable when nothing arrived yet
  /// (clean end-of-stream) and kDataLoss mid-message (a truncated frame).
  Result<std::string> ReadExact(size_t n);

  /// Reads until `delim` is seen (the returned string includes it), the
  /// peer closes, or `max_bytes` arrived (in which case the result simply
  /// lacks the delimiter — callers treat that as an oversized request).
  /// Used to capture an HTTP request head without trusting the peer to be
  /// terse.
  Result<std::string> ReadUntil(std::string_view delim, size_t max_bytes);

  /// Half-closes the write side so the peer sees EOF while we can still
  /// read its response.
  void ShutdownWrite();

  void Close();

 private:
  int fd_ = -1;
};

/// A listening TCP socket bound to the loopback interface. Loopback-only
/// is deliberate: the metrics endpoint exposes process internals and is
/// meant to be scraped locally (or via a sidecar/tunnel), never to be a
/// public surface.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { Close(); }

  TcpListener(TcpListener&& other) noexcept : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
    other.port_ = 0;
  }
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port; read it back via
  /// port()) and starts listening.
  static Result<TcpListener> Bind(uint16_t port);

  bool valid() const { return fd_ >= 0; }
  /// The actually bound port (resolved for ephemeral binds).
  uint16_t port() const { return port_; }

  /// Blocks until a client connects. Fails once the listener is closed.
  Result<TcpConn> Accept();

  /// Accept() with a deadline: fails with kDeadlineExceeded when no client
  /// connects within `millis` (poll + accept), so a caller waiting for a
  /// spawned process to dial back never hangs on a process that died
  /// before connecting.
  Result<TcpConn> AcceptWithTimeout(int millis);

  void Close();

 private:
  TcpListener(int fd, uint16_t port) : fd_(fd), port_(port) {}

  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:`port` (the counterpart of TcpListener::Bind;
/// also the wake-up device that unblocks a server stuck in Accept()).
Result<TcpConn> DialLoopback(uint16_t port);

/// A connected pair of local stream sockets (socketpair). Everything a
/// TcpConn offers — deadlines, half-close, exact reads — works on both
/// ends, so in-process and fork/exec peers can speak a framed protocol
/// exactly as they would over TCP.
Result<std::pair<TcpConn, TcpConn>> SocketPair();

}  // namespace scoded::net

#endif  // SCODED_COMMON_NET_H_
