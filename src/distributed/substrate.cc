#include "distributed/substrate.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <utility>

#include "distributed/worker.h"
#include "serve/framing.h"

namespace scoded::dist {

namespace {

// Shared plumbing: every backend ends up with one connected TcpConn and
// speaks serve frames over it. Only spawn and teardown differ.
class ConnChannel : public WorkerChannel {
 public:
  explicit ConnChannel(net::TcpConn conn) : conn_(std::move(conn)) {}

  Status Send(std::string_view payload) override {
    return serve::WriteFrame(conn_, payload);
  }

  Result<std::string> Receive(int deadline_millis) override {
    SCODED_RETURN_IF_ERROR(conn_.SetRecvTimeout(deadline_millis));
    return serve::ReadFrame(conn_);
  }

  // shutdown(), not close(): Kill() may race another thread blocked in
  // recv/send on this descriptor, and shutdown wakes it without freeing
  // the descriptor number for reuse. The destructor closes.
  void Kill() override {
    if (conn_.valid()) {
      ::shutdown(conn_.fd(), SHUT_RDWR);
    }
  }

 protected:
  net::TcpConn conn_;
};

class InProcessChannel : public ConnChannel {
 public:
  InProcessChannel(net::TcpConn conn, net::TcpConn worker_end)
      : ConnChannel(std::move(conn)) {
    worker_ = std::thread([end = std::move(worker_end)]() mutable {
      ServeWorker(end);  // exits when the coordinator end closes
    });
  }

  ~InProcessChannel() override {
    conn_.Close();  // unblocks the worker's read
    if (worker_.joinable()) {
      worker_.join();
    }
  }

 private:
  std::thread worker_;
};

// The directory a spawned worker's flight recorder pre-opens its reports
// in: SCODED_CRASH_DIR, else the working directory, both inherited.
std::string WorkerReportDir() {
  const char* dir = std::getenv("SCODED_CRASH_DIR");
  return dir != nullptr && *dir != '\0' ? dir : ".";
}

// A SIGKILLed worker never disarms its flight recorder, so the reports it
// pre-opened stay behind: unlink its scoded-{crash,stall}-<pid>.report if
// nothing was written to them. A report with content is kept.
void UnlinkUnwrittenReports(const std::string& dir, pid_t pid) {
  for (const char* stem : {"scoded-crash-", "scoded-stall-"}) {
    std::string path = dir + "/" + stem + std::to_string(pid) + ".report";
    struct stat info;
    if (::stat(path.c_str(), &info) == 0 && S_ISREG(info.st_mode) && info.st_size == 0) {
      ::unlink(path.c_str());
    }
  }
}

// A child process connected by some stream. Kill() is SIGKILL; destruction
// closes the stream (which makes a healthy worker exit), grants it a grace
// period, then escalates so a wedged worker can never leak past the
// coordinator's lifetime. A child killed either way has its unwritten
// reports unlinked once it is reaped.
class ProcessChannel : public ConnChannel {
 public:
  ProcessChannel(net::TcpConn conn, pid_t pid, std::string report_dir)
      : ConnChannel(std::move(conn)), pid_(pid), report_dir_(std::move(report_dir)) {}

  ~ProcessChannel() override { Reap(); }

  void Kill() override {
    if (pid_ > 0) {
      killed_ = true;
      ::kill(pid_, SIGKILL);
    }
    ConnChannel::Kill();
  }

  int64_t pid() const override { return pid_; }

 private:
  // Waits on the child's exit event (a pidfd turns readable when the
  // process exits), so a healthy worker is reaped the moment it sees EOF
  // rather than on a polling tick. Without pidfd support (Linux < 5.3) a
  // child still running at this point is killed at once.
  void Reap() {
    if (pid_ <= 0) {
      return;
    }
    conn_.Close();
    constexpr int kGraceMillis = 5000;
    int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid_, 0));
    if (pidfd >= 0) {
      pollfd exited{pidfd, POLLIN, 0};
      while (::poll(&exited, 1, kGraceMillis) < 0 && errno == EINTR) {
      }
      ::close(pidfd);
    }
    if (::waitpid(pid_, nullptr, WNOHANG) == 0) {
      killed_ = true;
      ::kill(pid_, SIGKILL);  // still running after the grace period
      ::waitpid(pid_, nullptr, 0);
    }
    if (killed_) {
      UnlinkUnwrittenReports(report_dir_, pid_);
    }
    pid_ = -1;
  }

  pid_t pid_;
  std::string report_dir_;
  std::atomic<bool> killed_{false};
};

// fork + exec of `program` with `args` plus `extra` appended. Every socket
// is close-on-exec, so the child inherits only `inherit_fd` (-1: none),
// whose flag is cleared between fork and exec — never another worker's
// channel, whose coordinator end would otherwise stay open in it. Exec
// failure exits 127 (the shell convention), which the coordinator sees as
// the channel closing before any response.
Result<pid_t> SpawnProcess(const std::string& program, const std::vector<std::string>& args,
                           const std::vector<std::string>& extra, int inherit_fd = -1) {
  std::vector<char*> argv;
  argv.reserve(args.size() + extra.size() + 2);
  argv.push_back(const_cast<char*>(program.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  for (const std::string& arg : extra) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) {
    return InternalError("fork: " + ErrnoMessage(errno));
  }
  if (pid == 0) {
    // fcntl is async-signal-safe, so it may run in the forked child.
    if (inherit_fd >= 0) {
      int flags = ::fcntl(inherit_fd, F_GETFD);
      if (flags < 0 || ::fcntl(inherit_fd, F_SETFD, flags & ~FD_CLOEXEC) < 0) {
        _exit(127);
      }
    }
    ::execv(program.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

}  // namespace

Result<std::unique_ptr<WorkerChannel>> InProcessSubstrate::Spawn(size_t) {
  SCODED_ASSIGN_OR_RETURN(auto pair, net::SocketPair());
  return std::unique_ptr<WorkerChannel>(
      new InProcessChannel(std::move(pair.first), std::move(pair.second)));
}

Result<std::unique_ptr<WorkerChannel>> ForkExecSubstrate::Spawn(size_t) {
  SCODED_ASSIGN_OR_RETURN(auto pair, net::SocketPair());
  SCODED_ASSIGN_OR_RETURN(pid_t pid,
                          SpawnProcess(program_, args_, {"--fd", std::to_string(pair.second.fd())},
                                       pair.second.fd()));
  pair.second.Close();  // the child holds its own reference now
  return std::unique_ptr<WorkerChannel>(
      new ProcessChannel(std::move(pair.first), pid, WorkerReportDir()));
}

Result<std::unique_ptr<WorkerChannel>> TcpSubstrate::Spawn(size_t) {
  SCODED_ASSIGN_OR_RETURN(net::TcpListener listener, net::TcpListener::Bind(0));
  SCODED_ASSIGN_OR_RETURN(
      pid_t pid,
      SpawnProcess(program_, args_, {"--connect-port", std::to_string(listener.port())}));
  Result<net::TcpConn> conn = listener.AcceptWithTimeout(accept_timeout_millis_);
  if (!conn.ok()) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    UnlinkUnwrittenReports(WorkerReportDir(), pid);
    return UnavailableError("worker never connected: " + conn.status().ToString());
  }
  return std::unique_ptr<WorkerChannel>(
      new ProcessChannel(std::move(*conn), pid, WorkerReportDir()));
}

Result<std::string> SelfExePath() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n < 0) {
    return InternalError("readlink /proc/self/exe: " + ErrnoMessage(errno));
  }
  return std::string(buf, static_cast<size_t>(n));
}

}  // namespace scoded::dist
