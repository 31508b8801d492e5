// scoded — command-line interface to the SCODED library.
//
//   scoded profile     --csv FILE
//   scoded check       --csv FILE --sc "A _||_ B" [--alpha 0.05]
//                      [--shard-rows N]   (out-of-core: stream the CSV in
//                      shards of N rows and fold mergeable summaries;
//                      results are bit-identical to the in-memory check.
//                      N=0 forces in-memory. Without the flag the
//                      SCODED_SHARD_ROWS environment variable applies, and
//                      files of 64 MiB or more shard automatically.)
//                      [--workers N] [--worker-transport fork|tcp]
//                      (distributed: a coordinator spawns N local worker
//                      processes, assigns each a contiguous range of shards,
//                      and folds their exact integer summaries in file
//                      order — output is byte-identical to the
//                      single-process sharded check at any worker count.
//                      Workers that die or stall are retried on survivors.)
//   scoded drill       --csv FILE --sc "A !_||_ B" --k 50
//                      [--strategy k|kc|auto] [--alpha 0.05]
//   scoded partition   --csv FILE --sc "..." [--alpha 0.05]
//                      [--max-removal 0.5] [--out cleaned.csv]
//   scoded repair      --csv FILE --sc "..." --k 20 [--out repaired.csv]
//   scoded monitor     --csv FILE --sc C1 [--sc C2 ...] [--alpha 0.3]
//                      [--batch 100] [--window W]   (streams rows in
//                      batches; prints one line per constraint per batch;
//                      --window keeps only the last W rows per monitor)
//   scoded report      --csv FILE --sc C1 [--sc C2 ...] [--alpha A]
//                      [--k 20] [--format md|json] [--out FILE] [--fdr Q]
//   scoded discover    --csv FILE [--alpha 0.05] [--max-cond 2]
//   scoded fds         --csv FILE [--max-g3 0.25]  (approximate FDs +
//                      their Prop. 2 DSC translations)
//   scoded consistency --sc "..." [--sc "..." ...]
//   scoded serve       [--port N] [--max-sessions M] [--idle-secs S]
//                      [--handlers H]   (daemon: host monitor sessions and
//                      one-shot checks over length-prefixed JSON frames on
//                      127.0.0.1; port 0 = ephemeral, printed at startup.
//                      SIGTERM/SIGINT drain sessions and exit cleanly.)
//   scoded client ping    --port N
//   scoded client check   --port N --csv FILE --sc "..." [--alpha A]
//   scoded client monitor --port N --csv FILE --sc C1 [--sc C2 ...]
//                      [--alpha A] [--batch 100] [--window W]
//                      (stream the CSV into a daemon session batch by
//                      batch; output is byte-identical to the local
//                      `scoded check` / `scoded monitor` commands)
//   scoded top         --port N [--interval-ms 500] [--iterations K]
//                      (attach to a running scoded's --metrics-port and
//                      render a live dashboard: rows/s, shards done,
//                      current min-p, an RSS sparkline. Exits cleanly when
//                      the monitored run finishes.)
//   scoded inspect     FILE  (pretty-print the crash/stall reports the
//                      flight recorder wrote; exit 1 on malformed input)
//   scoded worker      --fd N | --connect-port N  (internal: one member of
//                      a `check --workers` fleet; spawned by the
//                      coordinator, never run by hand)
//   scoded version     (build identity: git describe, build type, obs mode)
//
// Observability (any subcommand):
//   --trace-out FILE   write a Chrome trace-event JSON of the run
//                      (load in chrome://tracing or ui.perfetto.dev)
//   --stats [FILE]     emit a JSON run summary (phase wall-clock, tests
//                      executed, counters, metrics snapshot, build info);
//                      without a FILE it goes to stderr
//   --profile [FILE]   aggregate spans in-process: without a FILE, print
//                      a self-time table to stderr; with a FILE, write the
//                      full profile JSON (flat stats + caller/callee edges
//                      + collapsed stacks)
//   --log-level LVL    debug|info|warn|error|off (overrides SCODED_LOG);
//                      diagnostics are JSONL records on stderr
//   --metrics-port N   serve live telemetry over HTTP on 127.0.0.1:N for
//                      the duration of the command (0 = ephemeral port,
//                      logged at startup): GET /metrics is a Prometheus
//                      text exposition of every counter/gauge/histogram
//                      plus process RSS/CPU/thread-pool gauges, /healthz
//                      a liveness probe, /timeseries the JSON ring-buffer
//                      history recorded by a 10 Hz background sampler.
//                      Read-only over atomics: results are byte-identical
//                      with or without the flag. Without the flag the
//                      SCODED_METRICS_PORT environment variable applies.
//   --flight-recorder-events N
//                      per-thread flight-recorder ring capacity (default
//                      256; 0 disables). The recorder is armed by default:
//                      fatal signals and std::terminate leave a crash
//                      report, SIGQUIT dumps a stall report while the run
//                      continues. Reports land in SCODED_CRASH_DIR (or the
//                      current directory) as scoded-{crash,stall}-PID.report;
//                      inspect them with `scoded inspect`. Without the flag
//                      SCODED_FLIGHT_RECORDER_EVENTS applies. Forensic-only:
//                      results are byte-identical with or without it.
//   --watchdog-secs T  start a watchdog thread that dumps a stall report
//                      when no heartbeat arrives for T seconds while the
//                      pool still reports pending work (0 = off, default).
//                      Without the flag SCODED_WATCHDOG_SECS applies.
//
// Execution (any subcommand):
//   --threads N        worker threads for batch checking, stratified
//                      tests, drill-down and discovery (N=1 forces fully
//                      serial execution; results are identical at any N).
//                      Overrides the SCODED_THREADS environment variable;
//                      the default is the hardware concurrency.
//
// Exit codes: 0 success (constraint holds / command completed), 2 the
// checked constraint is violated, 1 any error. The violation exit code
// makes `scoded check` usable as a data-quality gate in pipelines.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fileio.h"
#include "common/json.h"
#include "common/net.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "constraints/graphoid.h"
#include "core/scoded.h"
#include "core/sharded_check.h"
#include "core/stream_monitor.h"
#include "discovery/fd_discovery.h"
#include "discovery/pc.h"
#include "eval/report.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/flightrec.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "repair/cell_repair.h"
#include "distributed/coordinator.h"
#include "distributed/substrate.h"
#include "distributed/worker.h"
#include "serve/client.h"
#include "serve/render.h"
#include "serve/server.h"
#include "stats/descriptive.h"
#include "table/csv.h"

namespace {

using namespace scoded;

// Run-level telemetry for --stats: command handlers merge the telemetry of
// the results they produce, and main() wraps the whole dispatch in one
// "cli/main" phase.
obs::RunTelemetry g_telemetry;

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  std::vector<std::string> constraints;  // repeated --sc
  std::vector<std::string> positional;   // e.g. the FILE of `scoded inspect FILE`
};

int Usage() {
  std::fprintf(stderr,
               "usage: scoded <profile|check|drill|partition|repair|monitor|report|discover|fds|consistency|serve|client|top|inspect|version> "
               "[--csv FILE] [--sc CONSTRAINT]... [--alpha A] [--k K]\n"
               "              [--strategy k|kc|auto] [--max-removal F] [--max-cond L] "
               "[--out FILE] [--shard-rows N] [--port N] [--interval-ms MS]\n"
               "              [--max-sessions M] [--idle-secs S] [--handlers H] "
               "[--batch B] [--window W] [--workers N] [--worker-transport fork|tcp]\n"
               "              [--trace-out FILE] [--stats [FILE]] [--profile [FILE]] "
               "[--log-level debug|info|warn|error] [--threads N] [--metrics-port N]\n"
               "              [--flight-recorder-events N] [--watchdog-secs T]\n");
  return 1;
}

// Structured error reporting: one JSONL record on stderr, exit code 1.
int Fail(const Status& status) {
  obs::LogError(status.message(), {{"code", StatusCodeToString(status.code())}});
  return 1;
}

int FailMessage(std::string_view message) {
  obs::LogError(message);
  return 1;
}

bool ParseArgs(int argc, char** argv, Args* out) {
  if (argc < 2) {
    return false;
  }
  out->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      // Bare operands (`scoded inspect FILE`); commands that take none
      // report the usage error themselves with better context.
      out->positional.push_back(std::move(flag));
      continue;
    }
    // --stats / --profile may appear valueless (output goes to stderr) or
    // with a FILE.
    if ((flag == "--stats" || flag == "--profile") &&
        (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0)) {
      out->flags[flag.substr(2)] = "-";
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--sc") {
      out->constraints.push_back(value);
    } else {
      out->flags[flag.substr(2)] = value;
    }
  }
  return true;
}

// Numeric flag parsing is strict: a value that does not fully parse is a
// usage error, not a silent fallback (and never an uncaught std::stoll
// exception).
Result<double> FlagDouble(const Args& args, const std::string& name, double fallback) {
  auto it = args.flags.find(name);
  if (it == args.flags.end()) {
    return fallback;
  }
  char* end = nullptr;
  double value = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || end == nullptr || *end != '\0') {
    return InvalidArgumentError("--" + name + " expects a number, got '" + it->second + "'");
  }
  return value;
}

Result<int64_t> FlagInt(const Args& args, const std::string& name, int64_t fallback) {
  auto it = args.flags.find(name);
  if (it == args.flags.end()) {
    return fallback;
  }
  char* end = nullptr;
  int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || end == nullptr || *end != '\0') {
    return InvalidArgumentError("--" + name + " expects an integer, got '" + it->second + "'");
  }
  return value;
}

// As FlagInt, but range-checked through the shared strict parser.
Result<int64_t> FlagCheckedInt(const Args& args, const std::string& name, int64_t fallback,
                               int64_t min_value, int64_t max_value) {
  auto it = args.flags.find(name);
  if (it == args.flags.end()) {
    return fallback;
  }
  return ParseCheckedInt(it->second, min_value, max_value, "--" + name);
}

Result<Table> LoadCsv(const Args& args) {
  auto it = args.flags.find("csv");
  if (it == args.flags.end()) {
    return InvalidArgumentError("--csv FILE is required for this command");
  }
  return csv::ReadFile(it->second);
}

Result<ApproximateSc> SingleConstraint(const Args& args) {
  if (args.constraints.size() != 1) {
    return InvalidArgumentError("exactly one --sc CONSTRAINT is required for this command");
  }
  SCODED_ASSIGN_OR_RETURN(StatisticalConstraint sc, ParseConstraint(args.constraints[0]));
  SCODED_ASSIGN_OR_RETURN(double alpha, FlagDouble(args, "alpha", 0.05));
  return ApproximateSc{sc, alpha};
}

Strategy ParseStrategy(const Args& args) {
  auto it = args.flags.find("strategy");
  if (it == args.flags.end() || it->second == "auto") {
    return Strategy::kAuto;
  }
  if (it->second == "k") {
    return Strategy::kDirect;
  }
  return Strategy::kComplement;
}

int RunProfile(const Args& args) {
  Result<Table> table = LoadCsv(args);
  if (!table.ok()) {
    return Fail(table.status());
  }
  std::printf("%zu rows x %zu columns\n\n%s", table->NumRows(), table->NumColumns(),
              DescribeTableText(*table).c_str());
  return 0;
}

// Shard size for `check`, resolved in precedence order: the --shard-rows
// flag (0 = force in-memory) > the SCODED_SHARD_ROWS environment variable
// > auto-enable with the default shard size for files of 64 MiB or more.
// Returns 0 when the check should run in memory.
Result<size_t> ResolveShardRows(const Args& args, const std::string& csv_path) {
  Result<int64_t> flag = FlagInt(args, "shard-rows", -1);
  if (!flag.ok()) {
    return flag.status();
  }
  if (args.flags.count("shard-rows") > 0) {
    if (*flag < 0) {
      return InvalidArgumentError("--shard-rows expects a non-negative integer (0 = in-memory)");
    }
    return static_cast<size_t>(*flag);
  }
  const char* env = std::getenv("SCODED_SHARD_ROWS");
  if (env != nullptr && *env != '\0') {
    SCODED_ASSIGN_OR_RETURN(
        int64_t value, ParseCheckedInt(env, 0, INT64_MAX, "SCODED_SHARD_ROWS"));
    return static_cast<size_t>(value);
  }
  constexpr uintmax_t kAutoShardBytes = 64ull << 20;
  std::ifstream probe(csv_path, std::ios::binary | std::ios::ate);
  if (probe && static_cast<uintmax_t>(probe.tellg()) >= kAutoShardBytes) {
    return size_t{65536};  // ShardReaderOptions default
  }
  return size_t{0};
}

int RunCheck(const Args& args) {
  auto csv_path = args.flags.find("csv");
  size_t shard_rows = 0;
  if (csv_path != args.flags.end()) {
    Result<size_t> resolved = ResolveShardRows(args, csv_path->second);
    if (!resolved.ok()) {
      return Fail(resolved.status());
    }
    shard_rows = *resolved;
  }
  Result<int64_t> workers = FlagCheckedInt(args, "workers", 0, 0, 1024);
  if (!workers.ok()) {
    return Fail(workers.status());
  }
  if (*workers > 0) {
    // Coordinator/worker mode: same statistics, same bytes on stdout, the
    // summarisation fanned out over a local worker fleet.
    if (csv_path == args.flags.end()) {
      return Fail(InvalidArgumentError("--workers requires --csv FILE"));
    }
    Result<ApproximateSc> asc = SingleConstraint(args);
    if (!asc.ok()) {
      return Fail(asc.status());
    }
    std::string transport = "fork";
    if (auto it = args.flags.find("worker-transport"); it != args.flags.end()) {
      transport = it->second;
      if (transport != "fork" && transport != "tcp") {
        return Fail(InvalidArgumentError("--worker-transport expects fork or tcp, got '" +
                                         transport + "'"));
      }
    }
    dist::DistributedCheckOptions options;
    // Workers imply sharding; without an explicit shard size use the
    // reader's default rather than the in-memory path.
    options.base.reader.shard_rows =
        shard_rows > 0 ? shard_rows : csv::ShardReaderOptions{}.shard_rows;
    options.workers = static_cast<int>(*workers);
    Result<std::string> exe = dist::SelfExePath();
    if (!exe.ok()) {
      return Fail(exe.status());
    }
    std::unique_ptr<dist::Substrate> substrate;
    if (transport == "fork") {
      substrate = std::make_unique<dist::ForkExecSubstrate>(
          *exe, std::vector<std::string>{"worker"});
    } else {
      substrate = std::make_unique<dist::TcpSubstrate>(
          *exe, std::vector<std::string>{"worker"});
    }
    Result<ShardedCheckResult> result =
        dist::DistributedCheckAll(csv_path->second, {*asc}, *substrate, options);
    if (!result.ok()) {
      return Fail(result.status());
    }
    g_telemetry.Merge(result->telemetry);
    const ViolationReport& report = result->reports[0];
    std::fputs(serve::CheckResultLine(*asc, report).c_str(), stdout);
    return report.violated ? 2 : 0;
  }
  if (shard_rows > 0) {
    Result<ApproximateSc> asc = SingleConstraint(args);
    if (!asc.ok()) {
      return Fail(asc.status());
    }
    ShardedCheckOptions options;
    options.reader.shard_rows = shard_rows;
    Result<ShardedCheckResult> result =
        ShardedCheckAll(csv_path->second, {*asc}, options);
    if (!result.ok()) {
      return Fail(result.status());
    }
    g_telemetry.Merge(result->telemetry);
    const ViolationReport& report = result->reports[0];
    std::fputs(serve::CheckResultLine(*asc, report).c_str(), stdout);
    return report.violated ? 2 : 0;
  }
  Result<Table> table = LoadCsv(args);
  Result<ApproximateSc> asc = SingleConstraint(args);
  if (!table.ok() || !asc.ok()) {
    return Fail(!table.ok() ? table.status() : asc.status());
  }
  Scoded system(std::move(table).value());
  Result<ViolationReport> report = system.CheckViolation(*asc);
  if (!report.ok()) {
    return Fail(report.status());
  }
  g_telemetry.Merge(report->telemetry);
  std::fputs(serve::CheckResultLine(*asc, *report).c_str(), stdout);
  return report->violated ? 2 : 0;
}

int RunDrill(const Args& args) {
  Result<Table> table = LoadCsv(args);
  Result<ApproximateSc> asc = SingleConstraint(args);
  if (!table.ok() || !asc.ok()) {
    return Fail(!table.ok() ? table.status() : asc.status());
  }
  Result<int64_t> k = FlagInt(args, "k", 10);
  if (!k.ok()) {
    return Fail(k.status());
  }
  Scoded system(std::move(table).value());
  Result<DrillDownResult> result =
      system.DrillDown(*asc, static_cast<size_t>(*k), ParseStrategy(args));
  if (!result.ok()) {
    return Fail(result.status());
  }
  g_telemetry.Merge(result->telemetry);
  std::printf("top-%zu suspicious records for %s (statistic %.4g -> %.4g):\n",
              result->rows.size(), asc->sc.ToString().c_str(), result->initial_statistic,
              result->final_statistic);
  for (size_t row : result->rows) {
    std::printf("%zu\n", row);
  }
  return 0;
}

int RunPartition(const Args& args) {
  Result<Table> table = LoadCsv(args);
  Result<ApproximateSc> asc = SingleConstraint(args);
  if (!table.ok() || !asc.ok()) {
    return Fail(!table.ok() ? table.status() : asc.status());
  }
  Result<double> max_removal = FlagDouble(args, "max-removal", 0.5);
  if (!max_removal.ok()) {
    return Fail(max_removal.status());
  }
  Scoded system(*table);
  Result<PartitionResult> result = system.Partition(*asc, *max_removal);
  if (!result.ok()) {
    return Fail(result.status());
  }
  g_telemetry.Merge(result->telemetry);
  std::printf("removed %zu records; p: %.4g -> %.4g; constraint %s\n",
              result->removed_rows.size(), result->initial_p, result->final_p,
              result->satisfied ? "restored" : "NOT restored within budget");
  auto out = args.flags.find("out");
  if (out != args.flags.end()) {
    Table cleaned = table->WithoutRows(result->removed_rows);
    Status write = csv::WriteFile(cleaned, out->second);
    if (!write.ok()) {
      return Fail(write);
    }
    std::printf("wrote %s (%zu rows)\n", out->second.c_str(), cleaned.NumRows());
  }
  return 0;
}

int RunRepair(const Args& args) {
  Result<Table> table = LoadCsv(args);
  Result<ApproximateSc> asc = SingleConstraint(args);
  if (!table.ok() || !asc.ok()) {
    return Fail(!table.ok() ? table.status() : asc.status());
  }
  Result<int64_t> k = FlagInt(args, "k", 10);
  if (!k.ok()) {
    return Fail(k.status());
  }
  Result<RepairPlan> plan = SuggestCellRepairs(*table, *asc, static_cast<size_t>(*k));
  if (!plan.ok()) {
    return Fail(plan.status());
  }
  std::printf("%zu suggested repairs (statistic %.4g -> %.4g):\n", plan->repairs.size(),
              plan->initial_statistic, plan->final_statistic);
  for (const CellRepair& repair : plan->repairs) {
    std::printf("  %s\n", repair.ToString(*table).c_str());
  }
  auto out = args.flags.find("out");
  if (out != args.flags.end()) {
    Result<Table> repaired = ApplyRepairs(*table, plan->repairs);
    if (!repaired.ok()) {
      return Fail(repaired.status());
    }
    Status write = csv::WriteFile(*repaired, out->second);
    if (!write.ok()) {
      return Fail(write);
    }
    std::printf("wrote %s\n", out->second.c_str());
  }
  return 0;
}

int RunReport(const Args& args) {
  Result<Table> table = LoadCsv(args);
  if (!table.ok()) {
    return Fail(table.status());
  }
  if (args.constraints.empty()) {
    return FailMessage("at least one --sc CONSTRAINT is required");
  }
  Result<double> alpha = FlagDouble(args, "alpha", 0.05);
  Result<int64_t> k = FlagInt(args, "k", 20);
  Result<double> fdr_q = FlagDouble(args, "fdr", 0.05);
  if (!alpha.ok() || !k.ok() || !fdr_q.ok()) {
    return Fail(!alpha.ok() ? alpha.status() : !k.ok() ? k.status() : fdr_q.status());
  }
  std::vector<ApproximateSc> constraints;
  for (const std::string& text : args.constraints) {
    Result<StatisticalConstraint> sc = ParseConstraint(text);
    if (!sc.ok()) {
      return Fail(sc.status());
    }
    constraints.push_back({std::move(sc).value(), *alpha});
  }
  ReportOptions options;
  options.drilldown_k = static_cast<size_t>(*k);
  options.fdr_q = *fdr_q;
  Result<CleaningReport> report = GenerateCleaningReport(*table, constraints, options);
  if (!report.ok()) {
    return Fail(report.status());
  }
  auto fmt = args.flags.find("format");
  std::string rendered = (fmt != args.flags.end() && fmt->second == "json")
                             ? report->ToJson(*table)
                             : report->ToMarkdown(*table, options);
  auto out = args.flags.find("out");
  if (out != args.flags.end()) {
    Status write = WriteTextFile(out->second, rendered);
    if (!write.ok()) {
      return Fail(write);
    }
    std::printf("wrote %s\n", out->second.c_str());
  } else {
    std::fputs(rendered.c_str(), stdout);
  }
  return report->confirmed_violations > 0 ? 2 : 0;
}

int RunMonitor(const Args& args) {
  Result<Table> table = LoadCsv(args);
  if (!table.ok()) {
    return Fail(table.status());
  }
  if (args.constraints.empty()) {
    return FailMessage("at least one --sc CONSTRAINT is required");
  }
  Result<double> alpha = FlagDouble(args, "alpha", 0.05);
  Result<int64_t> batch_flag = FlagInt(args, "batch", 100);
  Result<int64_t> window_flag = FlagInt(args, "window", 0);
  if (!alpha.ok() || !batch_flag.ok() || !window_flag.ok()) {
    return Fail(!alpha.ok() ? alpha.status()
                            : !batch_flag.ok() ? batch_flag.status() : window_flag.status());
  }
  if (*batch_flag <= 0) {
    return FailMessage("--batch must be positive");
  }
  if (*window_flag < 0) {
    return FailMessage("--window must be non-negative (0 = unbounded)");
  }
  size_t batch = static_cast<size_t>(*batch_flag);
  std::vector<ApproximateSc> constraints;
  for (const std::string& text : args.constraints) {
    Result<StatisticalConstraint> sc = ParseConstraint(text);
    if (!sc.ok()) {
      return Fail(sc.status());
    }
    constraints.push_back({std::move(sc).value(), *alpha});
  }
  StreamMonitorOptions options;
  options.monitor.window = static_cast<size_t>(*window_flag);
  Result<StreamMonitor> stream = StreamMonitor::Create(*table, constraints, options);
  if (!stream.ok()) {
    return Fail(stream.status());
  }
  std::fputs(serve::MonitorHeaderLine().c_str(), stdout);
  for (size_t start = 0; start < table->NumRows(); start += batch) {
    std::vector<size_t> rows;
    for (size_t i = start; i < std::min(start + batch, table->NumRows()); ++i) {
      rows.push_back(i);
    }
    Status status = stream->Append(table->Gather(rows));
    if (!status.ok()) {
      return Fail(status);
    }
    for (const StreamMonitor::ConstraintState& state : stream->States()) {
      std::fputs(serve::MonitorStateLine(state).c_str(), stdout);
    }
  }
  g_telemetry.Merge(stream->AggregateTelemetry());
  return stream->AnyViolated() ? 2 : 0;
}

int RunDiscover(const Args& args) {
  Result<Table> table = LoadCsv(args);
  if (!table.ok()) {
    return Fail(table.status());
  }
  Result<double> alpha = FlagDouble(args, "alpha", 0.05);
  Result<int64_t> max_cond = FlagInt(args, "max-cond", 2);
  if (!alpha.ok() || !max_cond.ok()) {
    return Fail(!alpha.ok() ? alpha.status() : max_cond.status());
  }
  PcOptions options;
  options.alpha = *alpha;
  options.max_conditioning = static_cast<int>(*max_cond);
  Result<PcResult> result = LearnPcStructure(*table, options);
  if (!result.ok()) {
    return Fail(result.status());
  }
  g_telemetry.Merge(result->telemetry);
  std::printf("discovered constraints (PC, alpha = %g, max conditioning = %d):\n",
              options.alpha, options.max_conditioning);
  for (const StatisticalConstraint& sc : result->DiscoveredConstraints()) {
    std::printf("  %s\n", sc.ToString().c_str());
  }
  if (!result->directed.empty()) {
    std::printf("v-structure orientations:\n");
    for (const auto& [from, to] : result->directed) {
      std::printf("  %s -> %s\n", result->names[static_cast<size_t>(from)].c_str(),
                  result->names[static_cast<size_t>(to)].c_str());
    }
  }
  return 0;
}

int RunFds(const Args& args) {
  Result<Table> table = LoadCsv(args);
  if (!table.ok()) {
    return Fail(table.status());
  }
  Result<double> max_g3 = FlagDouble(args, "max-g3", 0.25);
  if (!max_g3.ok()) {
    return Fail(max_g3.status());
  }
  FdDiscoveryOptions options;
  options.max_g3_ratio = *max_g3;
  Result<std::vector<DiscoveredFd>> fds = DiscoverApproximateFds(*table, options);
  if (!fds.ok()) {
    return Fail(fds.status());
  }
  std::printf("approximate FDs with g3 <= %g (Prop. 2 translation alongside):\n", options.max_g3_ratio);
  std::printf("%-28s %-10s %-12s %s\n", "FD", "g3", "viol.pairs", "as DSC");
  for (const DiscoveredFd& fd : *fds) {
    std::printf("%-28s %-10.4f %-12.4f %s\n", fd.fd.ToString().c_str(), fd.g3_ratio,
                fd.violating_pair_ratio, FdToDsc(fd.fd).ToString().c_str());
  }
  return 0;
}

int RunConsistency(const Args& args) {
  if (args.constraints.empty()) {
    return FailMessage("at least one --sc CONSTRAINT is required");
  }
  std::vector<StatisticalConstraint> scs;
  for (const std::string& text : args.constraints) {
    Result<StatisticalConstraint> sc = ParseConstraint(text);
    if (!sc.ok()) {
      return Fail(sc.status());
    }
    scs.push_back(std::move(sc).value());
  }
  Result<ConsistencyReport> report = CheckConsistency(scs);
  if (!report.ok()) {
    return Fail(report.status());
  }
  if (report->consistent) {
    std::printf("consistent (%zu constraints, closure size %zu)\n", scs.size(),
                report->closure_size);
    Result<std::vector<StatisticalConstraint>> minimal = MinimizeConstraints(scs);
    if (minimal.ok() && minimal->size() < scs.size()) {
      std::printf("minimal equivalent subset (%zu):\n", minimal->size());
      for (const StatisticalConstraint& sc : *minimal) {
        std::printf("  %s\n", sc.ToString().c_str());
      }
    }
    return 0;
  }
  std::printf("INCONSISTENT:\n");
  for (const std::string& conflict : report->conflicts) {
    std::printf("  %s\n", conflict.c_str());
  }
  return 2;
}

// ----------------------------------------------------------------------
// scoded top — live attach to a running scoded's --metrics-port endpoint.

// One-shot HTTP/1.0 GET against the loopback metrics endpoint; returns the
// response body.
Result<std::string> FetchHttp(uint16_t port, const std::string& path) {
  SCODED_ASSIGN_OR_RETURN(net::TcpConn conn, net::DialLoopback(port));
  SCODED_RETURN_IF_ERROR(
      conn.WriteAll("GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n"));
  conn.ShutdownWrite();
  SCODED_ASSIGN_OR_RETURN(std::string response, conn.ReadAll(4u << 20));
  size_t line_end = response.find("\r\n");
  if (line_end == std::string::npos) {
    return InternalError("GET " + path + ": malformed HTTP response");
  }
  if (response.find(" 200 ") >= line_end) {
    return InternalError("GET " + path + ": " + response.substr(0, line_end));
  }
  size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) {
    return InternalError("GET " + path + ": missing header terminator");
  }
  return response.substr(body + 4);
}

// Parses the Prometheus text exposition into name -> value. Histogram
// bucket lines carry labels and land under their full `name{le="..."}`
// key, which the dashboard simply never looks up.
std::map<std::string, double> ParseMetricsText(const std::string& body) {
  std::map<std::string, double> values;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) {
      eol = body.size();
    }
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) {
      continue;
    }
    char* end = nullptr;
    double value = std::strtod(line.c_str() + space + 1, &end);
    if (end == nullptr || *end != '\0') {
      continue;
    }
    values[line.substr(0, space)] = value;
  }
  return values;
}

// Values of one named series from the /timeseries JSON document.
std::vector<double> SeriesValues(const JsonValue& doc, std::string_view name) {
  std::vector<double> values;
  const JsonValue* series = doc.Find("series");
  if (series == nullptr || !series->is_array()) {
    return values;
  }
  for (const JsonValue& entry : series->array) {
    const JsonValue* entry_name = entry.Find("name");
    if (entry_name == nullptr || entry_name->string_value != name) {
      continue;
    }
    const JsonValue* points = entry.Find("points");
    if (points != nullptr && points->is_array()) {
      for (const JsonValue& point : points->array) {
        if (point.is_array() && point.array.size() == 2) {
          values.push_back(point.array[1].number);
        }
      }
    }
    break;
  }
  return values;
}

// Renders the last `width` values as a min-max normalised unicode
// sparkline (▁..█).
std::string Sparkline(const std::vector<double>& values, size_t width) {
  static const char* const kBlocks[8] = {"▁", "▂", "▃", "▄",
                                         "▅", "▆", "▇", "█"};
  if (values.empty()) {
    return std::string();
  }
  size_t begin = values.size() > width ? values.size() - width : 0;
  double lo = values[begin];
  double hi = values[begin];
  for (size_t i = begin; i < values.size(); ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  std::string out;
  for (size_t i = begin; i < values.size(); ++i) {
    size_t level = hi > lo ? static_cast<size_t>((values[i] - lo) / (hi - lo) * 7.0 + 0.5) : 0;
    out += kBlocks[std::min<size_t>(level, 7)];
  }
  return out;
}

int RunTop(const Args& args) {
  std::string port_text;
  if (auto it = args.flags.find("port"); it != args.flags.end()) {
    port_text = it->second;
  } else if (const char* env = std::getenv("SCODED_METRICS_PORT")) {
    if (*env != '\0') {
      port_text = env;
    }
  }
  if (port_text.empty()) {
    return FailMessage("scoded top requires --port N (or SCODED_METRICS_PORT)");
  }
  Result<int64_t> port_value = ParseCheckedInt(port_text, 1, 65535, "--port");
  if (!port_value.ok()) {
    return Fail(port_value.status());
  }
  long port = static_cast<long>(*port_value);
  Result<int64_t> interval_ms = FlagInt(args, "interval-ms", 500);
  Result<int64_t> iterations = FlagInt(args, "iterations", 0);
  if (!interval_ms.ok() || !iterations.ok()) {
    return Fail(!interval_ms.ok() ? interval_ms.status() : iterations.status());
  }
  if (*interval_ms <= 0) {
    return FailMessage("--interval-ms must be positive");
  }
  const bool tty = isatty(STDOUT_FILENO) != 0;
  constexpr int kRenderLines = 8;
  double prev_rows = -1.0;
  int64_t prev_t_us = 0;
  int64_t frames = 0;
  for (int64_t i = 0; *iterations == 0 || i < *iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(*interval_ms));
    }
    Result<std::string> metrics = FetchHttp(static_cast<uint16_t>(port), "/metrics");
    if (!metrics.ok()) {
      if (frames == 0) {
        // Never connected: the endpoint probably does not exist — error out.
        return Fail(metrics.status());
      }
      // The monitored run finished and closed its endpoint: a clean exit.
      std::printf("scoded top: endpoint on port %ld is gone; run finished\n", port);
      return 0;
    }
    std::map<std::string, double> m = ParseMetricsText(*metrics);
    auto value = [&m](const char* name, double fallback) {
      auto it = m.find(name);
      return it == m.end() ? fallback : it->second;
    };
    double rows = value("scoded_progress_rows_ingested", 0.0);
    int64_t now_us = obs::NowMicros();
    double rate = 0.0;
    if (prev_rows >= 0.0 && now_us > prev_t_us) {
      rate = std::max(0.0, (rows - prev_rows) /
                               (static_cast<double>(now_us - prev_t_us) / 1e6));
    }
    prev_rows = rows;
    prev_t_us = now_us;
    std::vector<double> rss;
    if (Result<std::string> ts = FetchHttp(static_cast<uint16_t>(port), "/timeseries");
        ts.ok()) {
      if (Result<JsonValue> doc = ParseJson(*ts); doc.ok()) {
        rss = SeriesValues(*doc, "process.rss_kb");
      }
    }
    if (tty && frames > 0) {
      std::printf("\x1b[%dA", kRenderLines);
    }
    ++frames;
    const char* clear = tty ? "\x1b[K" : "";
    std::printf("scoded top - 127.0.0.1:%ld (frame %lld)%s\n", port,
                static_cast<long long>(frames), clear);
    std::printf("  rows ingested   %-14.0f %10.1f rows/s%s\n", rows, rate, clear);
    std::printf("  shards          %.0f / %.0f%s\n",
                value("scoded_progress_shards_done", 0.0),
                value("scoded_progress_shards_total", 0.0), clear);
    std::printf("  constraints     %.0f / %.0f%s\n",
                value("scoded_progress_constraints_checked", 0.0),
                value("scoded_progress_constraints_total", 0.0), clear);
    std::printf("  current min-p   %.6g%s\n", value("scoded_progress_current_min_p", 1.0),
                clear);
    std::printf("  tests executed  %.0f%s\n",
                value("scoded_stats_tests_executed_total", 0.0), clear);
    std::printf("  pool            pending %.0f, inflight %.0f, workers %.0f%s\n",
                value("scoded_parallel_pool_pending_chunks", 0.0),
                value("scoded_parallel_pool_inflight_tasks", 0.0),
                value("scoded_parallel_pool_workers", 0.0), clear);
    std::printf("  rss             %.0f KiB  %s%s\n", value("scoded_process_rss_kb", 0.0),
                Sparkline(rss, 40).c_str(), clear);
    std::fflush(stdout);
  }
  return 0;
}

// ----------------------------------------------------------------------
// scoded serve / scoded client — the streaming constraint-checking daemon
// and its CLI-side counterpart (src/serve).

// SIGTERM/SIGINT request an orderly drain: the handler only flips a flag,
// the serve loop notices and tears the daemon down through the normal
// shutdown path (sessions drained, no crash report left behind).
volatile std::sig_atomic_t g_serve_stop = 0;

void HandleServeSignal(int) { g_serve_stop = 1; }

int RunServe(const Args& args) {
  Result<int64_t> port = FlagInt(args, "port", 0);
  Result<int64_t> max_sessions = FlagInt(args, "max-sessions", 64);
  Result<int64_t> idle_secs = FlagInt(args, "idle-secs", 900);
  Result<int64_t> handlers = FlagInt(args, "handlers", 4);
  if (!port.ok() || !max_sessions.ok() || !idle_secs.ok() || !handlers.ok()) {
    return Fail(!port.ok() ? port.status()
                           : !max_sessions.ok() ? max_sessions.status()
                                                : !idle_secs.ok() ? idle_secs.status()
                                                                  : handlers.status());
  }
  if (*port < 0 || *port > 65535) {
    return FailMessage("--port expects a port in [0, 65535]");
  }
  if (*max_sessions <= 0) {
    return FailMessage("--max-sessions must be positive");
  }
  if (*idle_secs < 0) {
    return FailMessage("--idle-secs must be non-negative (0 = never evict)");
  }
  if (*handlers <= 0) {
    return FailMessage("--handlers must be positive");
  }
  serve::ServerOptions options;
  options.port = static_cast<uint16_t>(*port);
  options.handler_threads = static_cast<size_t>(*handlers);
  options.sessions.max_sessions = static_cast<size_t>(*max_sessions);
  options.sessions.idle_evict_millis = *idle_secs * 1000;
  // The handlers go in before the listening banner can be printed, so a
  // script that signals the daemon as soon as it reads the banner gets the
  // orderly drain, not the default action.
  std::signal(SIGTERM, HandleServeSignal);
  std::signal(SIGINT, HandleServeSignal);
  serve::Server server(options);
  if (Status status = server.Start(); !status.ok()) {
    return Fail(status);
  }
  // The bound port goes to stdout (not just the log) so scripts starting
  // the daemon with --port 0 can discover where it landed.
  std::printf("scoded serve listening on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);
  obs::LogInfo("serve daemon listening",
               {{"port", static_cast<int64_t>(server.port())},
                {"max_sessions", *max_sessions},
                {"idle_secs", *idle_secs}});
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
  g_telemetry.Merge(server.TelemetrySnapshot());
  std::printf("scoded serve: shut down cleanly\n");
  return 0;
}

Result<uint16_t> ClientPort(const Args& args) {
  Result<int64_t> port = FlagInt(args, "port", 0);
  if (!port.ok()) {
    return port.status();
  }
  if (*port <= 0 || *port > 65535) {
    return InvalidArgumentError("scoded client requires --port N in [1, 65535]");
  }
  return static_cast<uint16_t>(*port);
}

int RunClientPing(const Args& args) {
  Result<uint16_t> port = ClientPort(args);
  if (!port.ok()) {
    return Fail(port.status());
  }
  Result<serve::Client> client = serve::Client::Connect(*port);
  if (!client.ok()) {
    return Fail(client.status());
  }
  Result<JsonValue> pong = client->Ping();
  if (!pong.ok()) {
    return Fail(pong.status());
  }
  const JsonValue* sessions = pong->Find("sessions");
  std::printf("pong from 127.0.0.1:%u (sessions = %lld)\n", *port,
              sessions != nullptr && sessions->is_number()
                  ? static_cast<long long>(sessions->number)
                  : 0LL);
  return 0;
}

// Remote one-shot check: the raw CSV bytes go to the daemon, which parses
// them with the same reader as `scoded check` and returns the rendered
// verdict line — output and exit code byte-match the local command.
int RunClientCheck(const Args& args) {
  Result<uint16_t> port = ClientPort(args);
  if (!port.ok()) {
    return Fail(port.status());
  }
  auto csv_path = args.flags.find("csv");
  if (csv_path == args.flags.end()) {
    return FailMessage("--csv FILE is required for client check");
  }
  if (args.constraints.size() != 1) {
    return FailMessage("exactly one --sc CONSTRAINT is required for client check");
  }
  Result<double> alpha = FlagDouble(args, "alpha", 0.05);
  if (!alpha.ok()) {
    return Fail(alpha.status());
  }
  Result<std::string> csv_text = ReadTextFile(csv_path->second);
  if (!csv_text.ok()) {
    return Fail(csv_text.status());
  }
  Result<serve::Client> client = serve::Client::Connect(*port);
  if (!client.ok()) {
    return Fail(client.status());
  }
  Result<JsonValue> response = client->Check(*csv_text, args.constraints[0], *alpha);
  if (!response.ok()) {
    return Fail(response.status());
  }
  const JsonValue* line = response->Find("line");
  const JsonValue* violated = response->Find("violated");
  if (line == nullptr || !line->is_string() || violated == nullptr ||
      !violated->is_bool()) {
    return FailMessage("malformed check response from daemon");
  }
  std::fputs(line->string_value.c_str(), stdout);
  return violated->bool_value ? 2 : 0;
}

// Remote monitor: parse the CSV locally, open a session carrying the
// parsed schema, stream the rows batch by batch, and print the rendered
// state rows the daemon returns — byte-identical to `scoded monitor` over
// the same file.
int RunClientMonitor(const Args& args) {
  Result<uint16_t> port = ClientPort(args);
  if (!port.ok()) {
    return Fail(port.status());
  }
  Result<Table> table = LoadCsv(args);
  if (!table.ok()) {
    return Fail(table.status());
  }
  if (args.constraints.empty()) {
    return FailMessage("at least one --sc CONSTRAINT is required");
  }
  Result<double> alpha = FlagDouble(args, "alpha", 0.05);
  Result<int64_t> batch_flag = FlagInt(args, "batch", 100);
  Result<int64_t> window_flag = FlagInt(args, "window", 0);
  if (!alpha.ok() || !batch_flag.ok() || !window_flag.ok()) {
    return Fail(!alpha.ok() ? alpha.status()
                            : !batch_flag.ok() ? batch_flag.status() : window_flag.status());
  }
  if (*batch_flag <= 0) {
    return FailMessage("--batch must be positive");
  }
  if (*window_flag < 0) {
    return FailMessage("--window must be non-negative (0 = unbounded)");
  }
  size_t batch = static_cast<size_t>(*batch_flag);
  std::vector<ApproximateSc> constraints;
  for (const std::string& text : args.constraints) {
    Result<StatisticalConstraint> sc = ParseConstraint(text);
    if (!sc.ok()) {
      return Fail(sc.status());
    }
    constraints.push_back({std::move(sc).value(), *alpha});
  }
  Result<serve::Client> client = serve::Client::Connect(*port);
  if (!client.ok()) {
    return Fail(client.status());
  }
  Result<std::string> session =
      client->OpenSession(table->schema(), constraints, static_cast<size_t>(*window_flag));
  if (!session.ok()) {
    return Fail(session.status());
  }
  std::fputs(serve::MonitorHeaderLine().c_str(), stdout);
  bool any_violated = false;
  for (size_t start = 0; start < table->NumRows(); start += batch) {
    std::vector<size_t> rows;
    for (size_t i = start; i < std::min(start + batch, table->NumRows()); ++i) {
      rows.push_back(i);
    }
    Result<size_t> appended = client->AppendBatch(*session, table->Gather(rows));
    if (!appended.ok()) {
      return Fail(appended.status());
    }
    Result<JsonValue> state = client->Query(*session);
    if (!state.ok()) {
      return Fail(state.status());
    }
    const JsonValue* states = state->Find("states");
    if (states == nullptr || !states->is_array()) {
      return FailMessage("malformed query response from daemon");
    }
    for (const JsonValue& entry : states->array) {
      const JsonValue* line = entry.Find("line");
      if (line == nullptr || !line->is_string()) {
        return FailMessage("malformed query response from daemon");
      }
      std::fputs(line->string_value.c_str(), stdout);
    }
    if (const JsonValue* v = state->Find("any_violated"); v != nullptr && v->is_bool()) {
      any_violated = v->bool_value;
    }
  }
  if (Status closed = client->CloseSession(*session); !closed.ok()) {
    return Fail(closed);
  }
  return any_violated ? 2 : 0;
}

int RunClient(const Args& args) {
  if (args.positional.size() != 1) {
    return FailMessage("scoded client expects one action: ping, check, or monitor");
  }
  const std::string& action = args.positional[0];
  if (action == "ping") {
    return RunClientPing(args);
  }
  if (action == "check") {
    return RunClientCheck(args);
  }
  if (action == "monitor") {
    return RunClientMonitor(args);
  }
  return FailMessage("unknown client action '" + action +
                     "' (expected ping, check, or monitor)");
}

// scoded inspect FILE — pretty-print flight-recorder crash/stall reports.
int RunInspect(const Args& args) {
  if (args.positional.size() != 1) {
    return FailMessage("scoded inspect expects exactly one report FILE");
  }
  Result<std::string> text = ReadTextFile(args.positional[0]);
  if (!text.ok()) {
    return Fail(text.status());
  }
  Result<std::vector<obs::FlightReport>> reports = obs::ParseFlightReports(*text);
  if (!reports.ok()) {
    return Fail(reports.status());
  }
  for (size_t i = 0; i < reports->size(); ++i) {
    if (i > 0) {
      std::printf("\n");
    }
    std::fputs(obs::RenderFlightReport((*reports)[i]).c_str(), stdout);
  }
  return 0;
}

int RunVersion() {
  obs::BuildInfo info = obs::GetBuildInfo();
  std::printf("scoded %s\n", std::string(info.git_describe).c_str());
  std::printf("build type: %s\n", std::string(info.build_type).c_str());
  std::printf("observability: %s\n",
              info.obs_disabled ? "compiled out (SCODED_DISABLE_OBS)" : "compiled in");
  return 0;
}

// `scoded worker`: one member of a `check --workers N` fleet. Never run by
// hand — the coordinator spawns it with either an inherited socketpair
// descriptor (--fd, fork transport) or a loopback port to dial
// (--connect-port, tcp transport) and it serves summarize requests until
// the coordinator hangs up.
int RunWorker(const Args& args) {
  bool has_fd = args.flags.count("fd") > 0;
  bool has_port = args.flags.count("connect-port") > 0;
  if (has_fd == has_port) {
    return FailMessage("scoded worker requires exactly one of --fd N or --connect-port N");
  }
  net::TcpConn conn;
  if (has_fd) {
    Result<int64_t> fd = FlagCheckedInt(args, "fd", -1, 3, INT32_MAX);
    if (!fd.ok()) {
      return Fail(fd.status());
    }
    conn = net::TcpConn(static_cast<int>(*fd));
  } else {
    Result<int64_t> port = FlagCheckedInt(args, "connect-port", 0, 1, 65535);
    if (!port.ok()) {
      return Fail(port.status());
    }
    Result<net::TcpConn> dialed = net::DialLoopback(static_cast<uint16_t>(*port));
    if (!dialed.ok()) {
      return Fail(dialed.status());
    }
    conn = std::move(*dialed);
  }
  Status served = dist::ServeWorker(conn);
  return served.ok() ? 0 : Fail(served);
}

int Dispatch(const Args& args) {
  // Only `inspect` and `client` take bare operands; anywhere else they are
  // typos.
  if (!args.positional.empty() && args.command != "inspect" && args.command != "client") {
    return Usage();
  }
  if (args.command == "profile") {
    return RunProfile(args);
  }
  if (args.command == "check") {
    return RunCheck(args);
  }
  if (args.command == "drill") {
    return RunDrill(args);
  }
  if (args.command == "partition") {
    return RunPartition(args);
  }
  if (args.command == "repair") {
    return RunRepair(args);
  }
  if (args.command == "monitor") {
    return RunMonitor(args);
  }
  if (args.command == "report") {
    return RunReport(args);
  }
  if (args.command == "discover") {
    return RunDiscover(args);
  }
  if (args.command == "fds") {
    return RunFds(args);
  }
  if (args.command == "consistency") {
    return RunConsistency(args);
  }
  if (args.command == "serve") {
    return RunServe(args);
  }
  if (args.command == "client") {
    return RunClient(args);
  }
  if (args.command == "top") {
    return RunTop(args);
  }
  if (args.command == "inspect") {
    return RunInspect(args);
  }
  if (args.command == "version") {
    return RunVersion();
  }
  if (args.command == "worker") {
    return RunWorker(args);
  }
  return Usage();
}

// Writes the trace file, profile output, and/or the --stats summary after
// the command ran. An observability failure never masks the command's exit
// code, but turns a success into an error.
int EmitObservability(const Args& args, int rc) {
  auto trace = args.flags.find("trace-out");
  if (trace != args.flags.end()) {
    Status status = obs::Tracer::Global().WriteFile(trace->second);
    if (!status.ok()) {
      obs::LogError(status.message(), {{"code", StatusCodeToString(status.code())}});
      return rc == 0 ? 1 : rc;
    }
    obs::LogInfo("wrote trace",
                 {{"path", trace->second},
                  {"events", static_cast<int64_t>(obs::Tracer::Global().NumEvents())}});
  }
  auto profile = args.flags.find("profile");
  if (profile != args.flags.end()) {
    if (profile->second == "-") {
      std::fputs(obs::Profiler::Global().FlatTableText(20).c_str(), stderr);
    } else {
      Status status = obs::Profiler::Global().WriteFile(profile->second);
      if (!status.ok()) {
        obs::LogError(status.message(), {{"code", StatusCodeToString(status.code())}});
        return rc == 0 ? 1 : rc;
      }
      obs::LogInfo("wrote profile",
                   {{"path", profile->second},
                    {"spans", static_cast<int64_t>(obs::Profiler::Global().NumSpanNames())}});
    }
  }
  auto stats = args.flags.find("stats");
  if (stats != args.flags.end()) {
    JsonWriter json;
    json.BeginObject();
    json.Key("command").String(args.command);
    json.Key("exit_code").Int(rc);
    json.Key("build").Raw(obs::BuildInfoJson());
    json.Key("telemetry");
    g_telemetry.WriteJson(json);
    json.Key("metrics").Raw(obs::Metrics::Global().SnapshotJson());
    if (obs::Profiler::Global().NumSpanNames() > 0) {
      json.Key("profile").Raw(obs::Profiler::Global().SnapshotJson());
    }
    json.EndObject();
    if (stats->second == "-") {
      std::fprintf(stderr, "%s\n", json.str().c_str());
    } else {
      Status status = WriteTextFile(stats->second, json.str());
      if (!status.ok()) {
        obs::LogError(status.message(), {{"code", StatusCodeToString(status.code())}});
        return rc == 0 ? 1 : rc;
      }
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }
  auto log_level = args.flags.find("log-level");
  if (log_level != args.flags.end()) {
    Result<obs::LogLevel> level = obs::ParseLogLevel(log_level->second);
    if (!level.ok()) {
      return Fail(level.status());
    }
    obs::SetMinLogLevel(*level);
  }
  if (args.flags.count("threads") > 0) {
    Result<int64_t> threads = FlagInt(args, "threads", 0);
    if (!threads.ok() || *threads <= 0) {
      return FailMessage("--threads expects a positive integer");
    }
    parallel::SetThreads(static_cast<int>(*threads));
  }
  if (args.flags.count("trace-out") > 0) {
    obs::Tracer::Global().Enable();
  }
  if (args.flags.count("profile") > 0) {
    obs::EnableProfiler();
  }
  // Live telemetry endpoint: --metrics-port wins over SCODED_METRICS_PORT.
  // Started before dispatch so a scrape observes the whole run; everything
  // it serves is read-only over atomics, so the command's output is
  // byte-identical with or without it.
  bool metrics_endpoint = false;
  {
    std::string port_text;
    auto metrics_port = args.flags.find("metrics-port");
    if (metrics_port != args.flags.end()) {
      port_text = metrics_port->second;
    } else if (const char* env = std::getenv("SCODED_METRICS_PORT")) {
      if (*env != '\0') {
        port_text = env;
      }
    }
    if (!port_text.empty()) {
      Result<int64_t> port = ParseCheckedInt(port_text, 0, 65535, "--metrics-port");
      if (!port.ok()) {
        return Fail(port.status());
      }
      Status status = obs::MetricsServer::Global().Start(static_cast<uint16_t>(*port));
      if (!status.ok()) {
        return Fail(status);
      }
      if (Status sampler = obs::Sampler::Global().Start(); !sampler.ok()) {
        obs::MetricsServer::Global().Stop();
        return Fail(sampler);
      }
      metrics_endpoint = true;
      obs::LogInfo("metrics endpoint listening",
                   {{"port", static_cast<int64_t>(obs::MetricsServer::Global().port())},
                    {"paths", "/metrics /healthz /timeseries"}});
    }
  }
  // Flight recorder: armed by default so a crash or stall of any run leaves
  // a diagnosable report. --flight-recorder-events wins over the
  // SCODED_FLIGHT_RECORDER_EVENTS environment variable; 0 disables. The
  // journal is forensic-only, so command output is byte-identical with or
  // without it.
  {
    int64_t events = 256;
    bool explicit_request = false;
    if (args.flags.count("flight-recorder-events") > 0) {
      Result<int64_t> flag = FlagInt(args, "flight-recorder-events", events);
      if (!flag.ok() || *flag < 0) {
        return FailMessage("--flight-recorder-events expects a non-negative integer");
      }
      events = *flag;
      explicit_request = true;
    } else if (const char* env = std::getenv("SCODED_FLIGHT_RECORDER_EVENTS")) {
      if (*env != '\0') {
        Result<int64_t> value =
            ParseCheckedInt(env, 0, INT64_MAX, "SCODED_FLIGHT_RECORDER_EVENTS");
        if (!value.ok()) {
          return Fail(value.status());
        }
        events = *value;
        explicit_request = true;
      }
    }
    if (events > 0) {
      obs::FlightRecorderOptions options;
      options.events_per_thread = static_cast<size_t>(events);
      if (const char* dir = std::getenv("SCODED_CRASH_DIR"); dir != nullptr && *dir != '\0') {
        options.report_dir = dir;
      }
      if (Status status = obs::ArmFlightRecorder(options); !status.ok()) {
        if (explicit_request) {
          return Fail(status);
        }
        // Default-on is best effort: an obs-disabled build or an unwritable
        // report directory downgrades to running without the recorder.
        obs::LogDebug("flight recorder not armed", {{"reason", status.message()}});
      }
    }
  }
  // Watchdog: dumps a stall report when the run stops making progress.
  // --watchdog-secs wins over SCODED_WATCHDOG_SECS; absent or 0 = off.
  {
    Result<double> flag = FlagDouble(args, "watchdog-secs", 0.0);
    if (!flag.ok()) {
      return Fail(flag.status());
    }
    double stall_seconds = *flag;
    if (args.flags.count("watchdog-secs") == 0) {
      if (const char* env = std::getenv("SCODED_WATCHDOG_SECS")) {
        if (*env != '\0') {
          // The one non-integer knob; the shared strict double parser
          // applies the same no-trailing-junk rule.
          std::optional<double> value = ParseDouble(env);
          if (!value.has_value()) {
            return FailMessage(std::string("SCODED_WATCHDOG_SECS expects a number, got '") +
                               env + "'");
          }
          stall_seconds = *value;
        }
      }
    }
    if (stall_seconds > 0.0) {
      obs::WatchdogOptions options;
      options.stall_seconds = stall_seconds;
      if (Status status = obs::StartWatchdog(options); !status.ok()) {
        return Fail(status);
      }
    }
  }
  int rc = 1;
  {
    obs::PhaseTimer timer(&g_telemetry, "cli/main");
    if (timer.span().active()) {
      timer.span().Arg("command", args.command);
    }
    rc = Dispatch(args);
  }
  if (metrics_endpoint) {
    // Final tick so /timeseries captured the end state, then tear down
    // before the observability artefacts are written.
    obs::Sampler::Global().SampleOnce();
    obs::Sampler::Global().Stop();
    obs::MetricsServer::Global().Stop();
  }
  // Disarm last: restores signal handlers and unlinks report files that
  // were never written, so a clean run leaves no droppings.
  obs::StopWatchdog();
  obs::DisarmFlightRecorder();
  return EmitObservability(args, rc);
}
