#ifndef SCODED_OBS_FLIGHTREC_H_
#define SCODED_OBS_FLIGHTREC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace scoded::obs {

/// -------------------------------------------------------------------------
/// Flight recorder: a fixed-memory, per-thread, lock-free ring journal of
/// recent events (span begin/end, log records, heartbeats), plus an
/// async-signal-safe crash/stall report writer.
///
/// While armed:
///  - every ScopedSpan journals its begin/end and maintains a per-thread
///    mirror of the live span stack (via the kJournalSink span-sink bit);
///  - every log record and every obs::Heartbeat lands in the ring;
///  - fatal signals (SIGSEGV/SIGBUS/SIGABRT/SIGFPE/SIGILL, installed with
///    SA_ONSTACK and chaining to any pre-existing handler — including a
///    sanitizer's) and std::terminate write a crash report: backtrace,
///    per-thread span stacks, each ring's tail, a metrics snapshot, and
///    the build stamp, using only write(2) on fds pre-opened at arm time;
///  - SIGQUIT (or DumpStallReport, or the watchdog) writes the same report
///    as a *stall* report without killing the process;
///  - SIGTERM and SIGINT (unless ignored at arm time) unlink the report
///    files nothing was written to, as DisarmFlightRecorder does, then
///    chain like the fatal signals, so the process still dies of the
///    signal. A command that installs its own handler afterwards (`scoded
///    serve`) replaces this one and disarms on its own shutdown path.
///
/// Everything here is forensic-only: arming never changes results, and the
/// whole subsystem compiles to no-op stubs under SCODED_DISABLE_OBS.
/// -------------------------------------------------------------------------

struct FlightRecorderOptions {
  /// Ring capacity per thread, in events. Clamped to [16, 65536].
  size_t events_per_thread = 256;
  /// Directory for scoded-crash-<pid>.report / scoded-stall-<pid>.report;
  /// empty means the current directory. Reports that are never written are
  /// unlinked on disarm.
  std::string report_dir;
  /// Install the fatal-signal, SIGTERM/SIGINT, SIGQUIT and std::terminate
  /// hooks. Tests that only exercise the journal can turn this off.
  bool install_signal_handlers = true;
};

struct WatchdogOptions {
  /// A stall is declared when no heartbeat arrives for this long while the
  /// pool gauges report pending or in-flight work.
  double stall_seconds = 30.0;
  /// Poll cadence of the watchdog thread.
  int64_t poll_ms = 250;
};

/// ---- parsed report (works in every build; used by `scoded inspect` and
/// the death tests) --------------------------------------------------------

struct FlightReport {
  std::string kind;         ///< "crash" or "stall"
  std::string signal_name;  ///< "SIGSEGV", "terminate", "SIGQUIT", "watchdog"
  std::string reason;
  std::string build;
  int64_t time_us = 0;
  std::vector<std::string> backtrace;  ///< raw backtrace_symbols_fd lines

  struct Thread {
    uint32_t tid = 0;
    uint64_t sys_tid = 0;
    std::vector<std::string> span_stack;  ///< outermost first
    std::vector<std::string> journal;     ///< tail events, oldest first
  };
  std::vector<Thread> threads;

  /// Raw snapshot lines: "counter stats.tests_executed 42",
  /// "gauge progress.shards_done 3.000000", "histogram x count 9 sum 120".
  std::vector<std::string> metrics;
};

/// Parses every complete `SCODED-FLIGHT-REPORT v1` record in `text`
/// (a stall file accumulates one per dump). Errors on malformed or
/// truncated input (a report must close with its `== end ==` marker).
Result<std::vector<FlightReport>> ParseFlightReports(std::string_view text);

/// Human-readable rendering for `scoded inspect`.
std::string RenderFlightReport(const FlightReport& report);

#if defined(SCODED_OBS_DISABLED)

inline Status ArmFlightRecorder(const FlightRecorderOptions& = {}) {
  return UnimplementedError("flight recorder compiled out (SCODED_DISABLE_OBS)");
}
inline void DisarmFlightRecorder() {}
inline bool FlightRecorderArmed() { return false; }
inline std::string CrashReportPath() { return std::string(); }
inline std::string StallReportPath() { return std::string(); }
inline void Heartbeat(const char*, int64_t = 0) {}
inline void DumpStallReport(const char*) {}
inline Status StartWatchdog(const WatchdogOptions& = {}) {
  return UnimplementedError("watchdog compiled out (SCODED_DISABLE_OBS)");
}
inline void StopWatchdog() {}
inline bool WatchdogRunning() { return false; }

namespace flightrec_internal {
inline void JournalSpanBegin(const char*) {}
inline void JournalSpanEnd(const char*, int64_t) {}
inline void JournalLog(const char*, std::string_view) {}
}  // namespace flightrec_internal

#else

/// Arms the recorder: allocates journal state, pre-opens the report files,
/// installs the signal/terminate hooks, and sets the kJournalSink span-sink
/// bit. Idempotent while armed (returns OK). `events_per_thread == 0` is an
/// InvalidArgument — callers treat 0 as "recorder off" and simply not arm.
Status ArmFlightRecorder(const FlightRecorderOptions& options = {});

/// Restores the previous signal/terminate handlers, clears the journal
/// sink bit, closes the report fds, and unlinks report files that were
/// never written. Journals already registered by live threads are kept
/// (re-arming reuses them; their capacity is fixed at first registration).
void DisarmFlightRecorder();

bool FlightRecorderArmed();

/// Paths of the pre-opened report files ("" when disarmed).
std::string CrashReportPath();
std::string StallReportPath();

/// Records a liveness beat: bumps the watchdog epoch and journals a
/// heartbeat event. `what` must be a string literal (the journal stores
/// the pointer). Called from the pool, ShardedCheckAll, StreamMonitor,
/// and CheckAll on every unit of forward progress.
void Heartbeat(const char* what, int64_t value = 0);

/// Writes a stall report (journal tails, span stacks, metrics — no
/// backtrace of other threads) to the stall file now. Async-signal-safe;
/// the process continues. No-op when disarmed.
void DumpStallReport(const char* reason);

/// Starts the watchdog thread: declares a stall and dumps a stall report
/// when no Heartbeat arrives for `stall_seconds` while the pool gauges
/// (parallel.pool_pending_chunks / pool_inflight_tasks) report work.
/// Dumps at most once per stall — the next heartbeat re-arms it. Requires
/// an armed flight recorder.
Status StartWatchdog(const WatchdogOptions& options = {});
void StopWatchdog();
bool WatchdogRunning();

namespace flightrec_internal {
/// Hooks called from the span machinery (trace.cc) and the logger
/// (log.cc). All of them no-op cheaply when the recorder is disarmed.
void JournalSpanBegin(const char* name);
void JournalSpanEnd(const char* name, int64_t dur_us);
void JournalLog(const char* level, std::string_view msg);
}  // namespace flightrec_internal

#endif  // SCODED_OBS_DISABLED

}  // namespace scoded::obs

#endif  // SCODED_OBS_FLIGHTREC_H_
