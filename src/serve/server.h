#ifndef SCODED_SERVE_SERVER_H_
#define SCODED_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/net.h"
#include "common/result.h"
#include "serve/framing.h"
#include "serve/session.h"
#include "serve/wire.h"

namespace scoded::serve {

/// Daemon configuration.
struct ServerOptions {
  /// 127.0.0.1 bind port; 0 picks an ephemeral port (read back via port()).
  uint16_t port = 0;
  /// Connection-handler threads: the daemon serves this many clients
  /// concurrently; further accepted connections queue until a handler
  /// frees up. Session compute inside a request still fans out over the
  /// process-wide worker pool, so one busy client uses every core.
  size_t handler_threads = 4;
  /// Per-read/write socket deadline. A client that stalls mid-frame for
  /// longer is disconnected (its sessions survive until idle eviction).
  int conn_deadline_millis = 60000;
  /// Largest accepted request frame.
  uint32_t max_frame_bytes = kMaxFrameBytes;
  SessionLimits sessions;
};

/// The `scoded serve` daemon: a loopback TCP server speaking
/// length-prefixed JSON frames (serve/framing.h), hosting multi-tenant
/// monitor sessions plus one-shot batch checks. Requests:
///
///   {"op":"ping"}
///   {"op":"check","csv":TEXT,"sc":CONSTRAINT,"alpha":A}
///   {"op":"open_session","schema":[...],"constraints":[{"sc","alpha"}],
///    "window":W}
///   {"op":"append_batch","session":ID,"batch":{...}}
///   {"op":"query","session":ID}
///   {"op":"close_session","session":ID}
///
/// Responses are {"ok":true,...} or {"ok":false,"code","message"}. All
/// statistics travel at full %.17g precision and rendered report lines are
/// produced by the same formatters the CLI uses, so remote results are
/// byte-identical to local `scoded check` / `scoded monitor` runs.
class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the port and starts the accept loop and handler threads.
  Status Start();

  /// Stops accepting, force-closes in-flight connections, joins every
  /// thread, and drains the session table. Idempotent.
  void Stop();

  bool running() const;
  uint16_t port() const;

  /// Routes one request payload to its handler and returns the response
  /// payload. Public for tests: the router is exercised without sockets.
  std::string HandleRequest(const std::string& payload);

  size_t NumSessions() const { return sessions_.size(); }

 private:
  void AcceptLoop();
  void HandlerLoop();
  void HandleConnection(net::TcpConn conn);
  std::string DispatchOp(const std::string& op, const RequestJson& request);

  std::string HandlePing();
  std::string HandleCheck(const JsonValue& request);
  std::string HandleOpenSession(const JsonValue& request);
  std::string HandleAppendBatch(const JsonValue& request, const Result<Table>& batch);
  std::string HandleQuery(const JsonValue& request);
  std::string HandleCloseSession(const JsonValue& request);

  ServerOptions options_;
  SessionTable sessions_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<net::TcpConn> pending_;
  std::set<int> live_fds_;  // force-closable on Stop()
  net::TcpListener listener_;
  std::thread accept_thread_;
  std::vector<std::thread> handlers_;
  bool running_ = false;
  bool stop_ = false;
};

}  // namespace scoded::serve

#endif  // SCODED_SERVE_SERVER_H_
