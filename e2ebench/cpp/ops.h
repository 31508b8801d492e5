#ifndef SCODED_E2EBENCH_OPS_H_
#define SCODED_E2EBENCH_OPS_H_

// The user operations the benchmark times, each driven through the
// library's public functions and checked against a reference output, plus
// the traced replays that walk an operation's waterfall one layer call at
// a time.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/approximate_sc.h"
#include "core/drilldown.h"
#include "core/violation.h"
#include "probe.h"
#include "spans.h"
#include "table/table.h"
#include "workloads.h"

namespace scoded::e2e {

enum Op { kCheckInmem, kCheckSharded, kCheckWorkers4, kDrillK, kDrillKc, kStream, kServe, kNumOps };

const char* OpName(int op);

/// Counts operations and their output checks. An operation passes when it
/// returned OK and none of the checks recorded while it ran failed; every
/// failed check is named on stderr once.
class Checks {
 public:
  void BeginOp() { failed_at_begin_ = failed_checks_; }
  void EndOp() {
    ++ops_;
    ops_failed_ += failed_checks_ > failed_at_begin_ ? 1 : 0;
  }
  void Record(bool pass, const std::string& what);

  int64_t ops() const { return ops_; }
  int64_t ops_failed() const { return ops_failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int64_t ops_ = 0;
  int64_t ops_failed_ = 0;
  int64_t failed_checks_ = 0;
  int64_t failed_at_begin_ = 0;
  std::vector<std::string> failures_;
};

/// Everything set-up produces and the operations read.
struct Context {
  WorkloadSpec spec;
  uint64_t seed = 0;
  std::string cli;
  std::string workdir;
  std::string csv_path;
  double file_mb = 0.0;
  std::vector<ApproximateSc> batch;
  ApproximateSc drill_k_sc;
  ApproximateSc drill_kc_sc;
  std::vector<size_t> drill_k_rows;
  std::vector<size_t> drill_kc_rows;
  std::vector<ApproximateSc> stream_scs;
  Table table;  // the warm read of the CSV: what drill and stream see
  std::vector<Table> stream_batches;
  std::vector<Table> serve_batches;
  uint16_t serve_port = 0;
  pid_t serve_pid = -1;

  // Reference outputs. The check reference is the first in-memory run; the
  // drill references are pool-1 runs; the serve reference is a local
  // StreamMonitor fed the serve batches.
  std::vector<std::string> check_reference;
  std::vector<size_t> drill_k_reference;
  std::vector<size_t> drill_kc_reference;
  std::vector<std::string> stream_reference;
  std::vector<std::string> serve_reference;
};

/// Derives the drill row sets, stream and serve batches and the serve
/// reference from ctx.table.
Status PrepareContext(Context& ctx);

/// One execution of one operation.
struct OpSample {
  bool ok = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;        // this process
  double child_cpu_s = 0.0;  // reaped children (workers)
  double peak_mb = -1.0;     // VmHWM growth, check operations only
  double read_s = 0.0;       // csv::ReadFile share of check_inmem
  double checkall_s = 0.0;   // Scoded::CheckAll share of check_inmem
  size_t rows = 0;           // rows streamed (stream, serve)
  std::vector<double> append_ms;  // serve / stream per-request latencies
  std::vector<double> query_ms;
  int64_t request_errors = 0;
  // check_workers4 only.
  double spawn_s = 0.0;
  double worker_peak_mb = -1.0;
  std::vector<std::string> lines;  // rendered output (check reports)
  std::vector<size_t> drill_rows;
};

/// Tracing hooks for one operation run: when `log` is set, the operation
/// records child spans of `parent` in `lane` (sub-lanes lane*10+i for
/// concurrent actors).
struct TraceHook {
  SpanLog* log = nullptr;
  int parent = -1;
  int lane = 0;
};

/// Runs `op` once and checks its output against the context references
/// (setting them when still empty).
OpSample RunOp(int op, Context& ctx, Checks& checks, const TraceHook& hook = {});

/// Distributed check with `workers` fork/exec workers; the shared body of
/// check_workers4 and the one-worker reference.
OpSample RunDistributed(Context& ctx, int workers, Checks& checks, const TraceHook& hook);

/// Pool-1 drill references.
Status ComputeDrillReferences(Context& ctx);

/// Traced replays. Each opens a "<op>.replay" span in `lane` and returns
/// its id, or -1 after recording a failed check.
struct ShardedReplay {
  int span = -1;
  size_t summary_cells = 0;
};
ShardedReplay ReplaySharded(Context& ctx, Checks& checks, SpanLog& log, int lane);
int ReplayDrill(int op, Context& ctx, Checks& checks, SpanLog& log, int lane);

/// Renders reports as "violated p statistic n" lines at %.17g.
std::vector<std::string> RenderReports(const std::vector<ViolationReport>& reports);

}  // namespace scoded::e2e

#endif  // SCODED_E2EBENCH_OPS_H_
