#ifndef SCODED_E2EBENCH_PROBE_H_
#define SCODED_E2EBENCH_PROBE_H_

// Host and process probes for the end-to-end benchmark: clocks, CPU and
// memory accounting from /proc and getrusage, the host fingerprint, and
// the `scoded serve` daemon as a child process.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace scoded::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of this process (all threads).
double SelfCpuSeconds();

/// User + system CPU seconds of every reaped child of this process.
double ChildrenCpuSeconds();

/// User + system CPU seconds of process `pid` from /proc/<pid>/stat, or -1.
double ProcessCpuSeconds(pid_t pid);

/// One "Vm...:" field of /proc/<pid>/status in MB (pid 0 = self), or -1.
double StatusMb(pid_t pid, const char* key);

/// Drops freed heap back to the OS and resets this process's VmHWM to its
/// current RSS, so VmHWM after an operation measures that operation alone.
/// Returns false when the kernel interface is missing.
bool ResetPeakRss();

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  uint64_t busy = 0;   // user + nice + system + irq + softirq + steal
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

/// Steal jiffies as a share of busy jiffies between two readings.
double StealFraction(const CpuTimes& before, const CpuTimes& after);

/// nproc, CPU model, active SIMD tier and build type of this binary.
struct HostFingerprint {
  int nproc = 0;
  std::string cpu_model;
  std::string simd;
  std::string build_type;
};
HostFingerprint GetFingerprint();

/// True for build types compiled with optimisation (Release,
/// RelWithDebInfo, MinSizeRel).
bool IsOptimisedBuild(const std::string& build_type);

/// `scoded serve --port 0` as a child process. Start() waits for the
/// "listening on" line and parses the port; Stop() sends SIGTERM, drains
/// stdout, reaps the child and reports whether it shut down cleanly.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Status Start(const std::string& cli, const std::string& log_path);

  /// OK only when the daemon exited 0 after printing "shut down cleanly".
  Status Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  std::string output_;
};

/// A child process with one SCHED_IDLE polling thread per CPU, alive for
/// the object's lifetime, so no vCPU halts while the benchmark runs. On a
/// virtual machine a halted vCPU is woken through the hypervisor, and that
/// wake-up latency, which depends on the load of other guests, otherwise
/// dominates every fork/join, socket round trip and pool hand-off.
/// Idle-policy threads run only when a CPU has nothing else to run and are
/// preempted as soon as any benchmark, worker or daemon thread wakes. They
/// live in their own process so this process's CPU accounting excludes
/// them; pollers that cannot get the idle policy exit rather than compete
/// at normal priority. Construct before any other thread exists.
class IdlePollers {
 public:
  IdlePollers();
  ~IdlePollers();
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;

  /// Pollers that obtained SCHED_IDLE and are running.
  int active() const { return active_; }

 private:
  pid_t pid_ = -1;
  int active_ = 0;
};

/// CPU seconds one fixed unit of benchmark-local work takes right now:
/// parsing a fixed 512 KB CSV-like text, interning its words, counting
/// into a scattered 8 MB table and sorting, once on one thread plus the
/// mean of four threads doing it at once. It uses no library code, so no
/// change to the program moves it, and it counts thread CPU time, so busy
/// threads elsewhere in the guest do not; what moves it is the speed the
/// host gives this guest's cores (shared caches, memory bandwidth and
/// sibling hyperthreads of other tenants).
double CalibrationSeconds();

/// Names of files in `dir` starting with `prefix`.
std::vector<std::string> FilesWithPrefix(const std::string& dir, const std::string& prefix);

/// True when no process `pid` exists any more (reaped, not a zombie).
bool ProcessGone(pid_t pid);

}  // namespace scoded::e2e

#endif  // SCODED_E2EBENCH_PROBE_H_
