// End-to-end benchmark runner for scoded.
//
//   e2e_bench --workload gate_tall|tau_numeric|fd_highcard --seed N
//             --seconds S --trace 0|1 --cli PATH --workdir DIR
//             [--scale F] [--trace-out FILE]
//
// Set-up generates the workload from the seed, writes it as CSV, reads it
// back once and starts a `scoded serve` daemon (--cli is the scoded binary,
// also used for `scoded worker` processes). The run then repeats every user
// operation round-robin for S seconds after a discarded warm-up and checks
// every output. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it prints the per-layer metrics instead, from a separate traced
// run, and writes a Chrome trace. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "core/scoded.h"
#include "core/stream_monitor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops.h"
#include "probe.h"
#include "serve/client.h"
#include "spans.h"
#include "stats/kendall.h"
#include "table/csv.h"
#include "workloads.h"

namespace scoded::e2e {
namespace {

constexpr int kPoolThreads = 4;
constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 40;
constexpr double kRoundShareS = 0.3;
// CalibrationSeconds() at the median speed of a 4-core Intel Xeon virtual
// machine; end-to-end times are reported at this host speed.
constexpr double kCalibrationReferenceS = 0.05;
constexpr int kMaxRepsPerRound = 16;
constexpr int kTracedReps = 3;

// Set-up repeats: enough for about two seconds of set-up, between 3 and 15
// (a small workload's set-up is mostly the daemon start, which needs more
// samples for a steady median).
size_t SetupReps(double first_setup_s) {
  return static_cast<size_t>(std::clamp(std::ceil(2.0 / first_setup_s), 3.0, 15.0));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;
  std::string workdir;
  double scale = 1.0;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  double raw = -1.0;  // the measured value before host-speed normalisation
};

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank quantile.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double value : values) {
    sum += value;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

template <typename Fn>
std::vector<double> Collect(const std::vector<OpSample>& samples, Fn&& fn) {
  std::vector<double> out;
  for (const OpSample& sample : samples) {
    if (sample.ok) {
      out.push_back(fn(sample));
    }
  }
  return out;
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

void PrintSpread(const char* name, const char* statistic, const std::vector<double>& values,
                 const char* unit) {
  std::printf("spread %-22s %-7s min %-12.6g median %-12.6g max %-12.6g %s (n=%zu)\n", name,
              statistic, Min(values), Median(values), Max(values), unit, values.size());
  std::printf("samples %s", name);
  for (double value : values) {
    std::printf(" %.6g", value);
  }
  std::printf("\n");
}

// ---- metrics registry deltas ------------------------------------------------

class MetricsDelta {
 public:
  MetricsDelta() : before_(obs::Metrics::Global().Snapshot()) {}

  int64_t Counter(const std::string& name) const {
    obs::MetricsSnapshot after = obs::Metrics::Global().Snapshot();
    return Find(after.counters, name) - Find(before_.counters, name);
  }

  // Upper bound (2^b) of the log2 bucket holding the median of the samples
  // observed since construction.
  double HistogramP50(const std::string& name) const {
    obs::MetricsSnapshot after = obs::Metrics::Global().Snapshot();
    std::vector<int64_t> now = Buckets(after, name);
    std::vector<int64_t> then = Buckets(before_, name);
    int64_t total = 0;
    for (size_t b = 0; b < now.size(); ++b) {
      now[b] -= b < then.size() ? then[b] : 0;
      total += now[b];
    }
    int64_t seen = 0;
    for (size_t b = 0; b < now.size(); ++b) {
      seen += now[b];
      if (total > 0 && 2 * seen >= total) {
        return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
      }
    }
    return 0.0;
  }

 private:
  static int64_t Find(const std::vector<std::pair<std::string, int64_t>>& counters,
                      const std::string& name) {
    for (const auto& [key, value] : counters) {
      if (key == name) {
        return value;
      }
    }
    return 0;
  }
  static std::vector<int64_t> Buckets(const obs::MetricsSnapshot& snapshot,
                                      const std::string& name) {
    for (const auto& [key, histogram] : snapshot.histograms) {
      if (key == name) {
        return histogram.buckets;
      }
    }
    return {};
  }

  obs::MetricsSnapshot before_;
};

// ---- set-up -------------------------------------------------------------------

// Generate, write, warm read, start the daemon. Returns the wall seconds.
Result<double> SetUp(Context& ctx, Daemon& daemon, int rep, SpanLog* log) {
  Span root(log, "setup", 0, -1);
  auto start = Clock::now();
  Result<Table> generated = [&] {
    Span span(log, "workload.generate", 0, root.id());
    return GenerateTable(ctx.spec, ctx.seed);
  }();
  SCODED_RETURN_IF_ERROR(generated.status());
  {
    Span span(log, "table.write", 0, root.id());
    SCODED_RETURN_IF_ERROR(csv::WriteFile(*generated, ctx.csv_path));
  }
  std::error_code size_error;
  ctx.file_mb = static_cast<double>(std::filesystem::file_size(ctx.csv_path, size_error)) / 1e6;
  {
    Span span(log, "table.read", 0, root.id());
    SCODED_ASSIGN_OR_RETURN(ctx.table, csv::ReadFile(ctx.csv_path));
  }
  {
    Span span(log, "serve.daemon_start", 0, root.id());
    SCODED_RETURN_IF_ERROR(daemon.Start(
        ctx.cli, ctx.workdir + "/serve-" + std::to_string(rep) + ".log"));
  }
  double seconds = SecondsSince(start);
  ctx.serve_port = daemon.port();
  ctx.serve_pid = daemon.pid();
  return seconds;
}

void StopDaemon(Daemon& daemon, Context& ctx, Checks& checks) {
  checks.BeginOp();
  Status stopped = daemon.Stop();
  checks.Record(stopped.ok(), "serve daemon shutdown: " + stopped.ToString());
  checks.Record(FilesWithPrefix(ctx.workdir, "scoded-crash-").empty(),
                "a scoded-crash report was left behind");
  checks.EndOp();
}

// ---- reporting ----------------------------------------------------------------

void PrintRegime(const Context& ctx, const std::vector<OpSample>& inmem, int64_t fallbacks,
                 int64_t summary_cells) {
  int violated = 0;
  std::string mix;
  for (const std::string& line : ctx.check_reference) {
    bool v = line[0] == '1';
    violated += v ? 1 : 0;
    mix += v ? 'V' : 'H';
  }
  std::vector<double> share = Collect(inmem, [](const OpSample& s) { return s.read_s / s.wall_s; });
  std::printf("regime workload=%s seed=%llu rows=%zu verdicts=%s (%d violated of %zu)\n",
              ctx.spec.name.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.table.NumRows(), mix.c_str(), violated, ctx.check_reference.size());
  std::printf("regime table_read_share_of_check_inmem=%.3f permutation_fallbacks_per_checkall=%lld",
              Median(share), static_cast<long long>(fallbacks));
  if (summary_cells >= 0) {
    std::printf(" summary_cells=%lld summary_cells_per_row=%.3f",
                static_cast<long long>(summary_cells),
                static_cast<double>(summary_cells) / static_cast<double>(ctx.table.NumRows()));
  }
  std::printf("\n");
  if (ctx.spec.name == "fd_highcard" && fallbacks == 0) {
    std::printf("regime WARNING: fd_highcard took no permutation fallback\n");
  }
  if (ctx.spec.name == "gate_tall" && Median(share) < 0.5) {
    std::printf("regime WARNING: gate_tall is no longer dominated by the table layer\n");
  }
}

void PrintResult(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("metric %-36s %.10g %s", metric.name.c_str(), metric.value, metric.unit.c_str());
    if (metric.raw >= 0.0) {
      std::printf("  (measured %.10g %s)", metric.raw, metric.unit.c_str());
    }
    std::printf("\n");
  }
  for (const std::string& failure : checks.failures()) {
    std::printf("failed check: %s\n", failure.c_str());
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("correct").Bool(checks.ops_failed() == 0 && checks.ops() > 0);
  json.Key("attempted").Int(checks.ops());
  json.Key("failed").Int(checks.ops_failed());
  json.Key("metrics").BeginObject();
  for (const Metric& metric : metrics) {
    json.Key(metric.name).BeginObject();
    json.Key("value").DoubleFull(metric.value);
    json.Key("unit").String(metric.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

// ---- timed run ----------------------------------------------------------------

int RunTimed(Context& ctx, const Args& args) {
  Checks checks;
  Daemon daemon;
  std::vector<double> setup_s;
  std::vector<double> calibration;
  for (int rep = 0; setup_s.empty() || setup_s.size() < SetupReps(setup_s.front()); ++rep) {
    calibration.push_back(CalibrationSeconds());
    checks.BeginOp();
    Result<double> seconds = SetUp(ctx, daemon, rep, nullptr);
    checks.Record(seconds.ok(), "set-up: " + seconds.status().ToString());
    checks.EndOp();
    if (!seconds.ok()) {
      PrintResult(checks, {});
      return 0;
    }
    setup_s.push_back(*seconds);
    if (setup_s.size() < SetupReps(setup_s.front())) {
      // `scoded serve` prints its port before it installs the SIGTERM
      // handler, so a SIGTERM sent right after the banner can kill it.
      // Let the daemon settle as it would in any real deployment.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      StopDaemon(daemon, ctx, checks);
    }
  }
  if (Status prepared = PrepareContext(ctx); !prepared.ok()) {
    checks.BeginOp();
    checks.Record(false, "prepare: " + prepared.ToString());
    checks.EndOp();
    PrintResult(checks, {});
    return 0;
  }
  CpuTimes cpu0 = ReadCpuTimes();
  auto window = Clock::now();
  checks.BeginOp();
  Status references = ComputeDrillReferences(ctx);
  checks.Record(references.ok(), "pool-1 drill reference: " + references.ToString());
  checks.EndOp();

  // Warm-up round (discarded) sets the check and stream references.
  std::vector<OpSample> warm(kNumOps);
  int64_t fallbacks = 0;
  for (int op = 0; op < kNumOps; ++op) {
    MetricsDelta delta;
    warm[op] = RunOp(op, ctx, checks);
    if (op == kCheckInmem) {
      fallbacks = delta.Counter("stats.permutation_fallbacks");
    }
  }
  // Timed rounds. Every round runs every operation, so a slow spell on a
  // shared host lands on all of them; within a round an operation repeats
  // until it has used about kRoundShareS, so short operations collect many
  // samples. Every metric but one is a median over the run's samples, which
  // moved less from run to run on a shared host than best-of-N did; stream
  // throughput is best-of-N, because its fan-out per small batch makes
  // single samples collapse whenever the host takes a vCPU away.
  std::vector<int> reps(kNumOps, 1);
  for (int op = 0; op < kNumOps; ++op) {
    double warm_s = std::max(warm[op].wall_s, 1e-3);
    reps[op] = std::clamp(static_cast<int>(kRoundShareS / warm_s), 1, kMaxRepsPerRound);
  }
  std::vector<std::vector<OpSample>> samples(kNumOps);
  std::vector<double> round_append_p50;
  std::vector<double> round_query_p50;
  int rounds = 0;
  while (rounds < kMinRounds || (SecondsSince(window) < args.seconds && rounds < kMaxRounds)) {
    calibration.push_back(CalibrationSeconds());
    for (int op = 0; op < kNumOps; ++op) {
      if (op == kDrillK || op == kServe) {
        calibration.push_back(CalibrationSeconds());
      }
      std::vector<double> append_ms;
      std::vector<double> query_ms;
      for (int rep = 0; rep < reps[op]; ++rep) {
        samples[op].push_back(RunOp(op, ctx, checks));
        const OpSample& sample = samples[op].back();
        append_ms.insert(append_ms.end(), sample.append_ms.begin(), sample.append_ms.end());
        query_ms.insert(query_ms.end(), sample.query_ms.begin(), sample.query_ms.end());
      }
      if (op == kServe) {
        round_append_p50.push_back(Median(append_ms));
        round_query_p50.push_back(Median(query_ms));
      }
    }
    ++rounds;
  }
  double steal = StealFraction(cpu0, ReadCpuTimes());
  StopDaemon(daemon, ctx, checks);

  auto wall = [](const OpSample& s) { return s.wall_s; };
  auto peak = [](const OpSample& s) { return s.peak_mb; };
  std::vector<double> inmem = Collect(samples[kCheckInmem], wall);
  std::vector<double> sharded = Collect(samples[kCheckSharded], wall);
  std::vector<double> workers = Collect(samples[kCheckWorkers4], wall);
  std::vector<double> inmem_peak = Collect(samples[kCheckInmem], peak);
  std::vector<double> sharded_peak = Collect(samples[kCheckSharded], peak);
  std::vector<double> drill_k = Collect(samples[kDrillK], wall);
  std::vector<double> drill_kc = Collect(samples[kDrillKc], wall);
  std::vector<double> stream =
      Collect(samples[kStream], [](const OpSample& s) { return s.rows / s.wall_s; });

  std::printf("run rounds=%d window_s=%.1f host.steal_frac=%.4f reps_per_round=", rounds,
              SecondsSince(window), steal);
  for (int op = 0; op < kNumOps; ++op) {
    std::printf("%s%s:%d", op == 0 ? "" : ",", OpName(op), reps[op]);
  }
  std::printf("\n");
  // Times are reported at the reference host speed: each raw median is
  // divided by how much slower than kCalibrationReferenceS the calibration
  // kernel ran in this run (its median over set-up and every round).
  double speed = Median(calibration) / kCalibrationReferenceS;
  std::printf("host calibration_s=%.6g reference_s=%.6g slowdown=%.4f\n", Median(calibration),
              kCalibrationReferenceS, speed);
  PrintSpread("calibration_s", "median", calibration, "s");
  PrintSpread("setup_s", "median", setup_s, "s");
  PrintSpread("check_inmem_s", "median", inmem, "s");
  PrintSpread("check_sharded_s", "median", sharded, "s");
  PrintSpread("check_workers4_s", "median", workers, "s");
  PrintSpread("inmem_peak_rss_mb", "median", inmem_peak, "MB");
  PrintSpread("sharded_peak_rss_mb", "median", sharded_peak, "MB");
  PrintSpread("drill_k_s", "median", drill_k, "s");
  PrintSpread("drill_kc_s", "median", drill_kc, "s");
  PrintSpread("stream_rows_per_s", "best", stream, "rows/s");
  PrintSpread("serve_append_p50_ms", "median", round_append_p50, "ms");
  PrintSpread("serve_query_p50_ms", "median", round_query_p50, "ms");
  PrintRegime(ctx, samples[kCheckInmem], fallbacks, -1);

  double ok_frac = checks.ops() > 0 ? static_cast<double>(checks.ops() - checks.ops_failed()) /
                                          static_cast<double>(checks.ops())
                                    : 0.0;
  auto at_reference = [speed](const char* name, double raw, const char* unit) {
    return Metric{name, raw / speed, unit, raw};
  };
  std::vector<Metric> metrics = {
      at_reference("setup_s", Median(setup_s), "s"),
      at_reference("check_inmem_s", Median(inmem), "s"),
      at_reference("check_sharded_s", Median(sharded), "s"),
      at_reference("check_workers4_s", Median(workers), "s"),
      {"inmem_peak_rss_mb", Median(inmem_peak), "MB"},
      {"sharded_peak_rss_mb", Median(sharded_peak), "MB"},
      at_reference("drill_k_s", Median(drill_k), "s"),
      at_reference("drill_kc_s", Median(drill_kc), "s"),
      {"stream_rows_per_s", Max(stream) * speed, "rows/s", Max(stream)},
      at_reference("serve_append_p50_ms", Median(round_append_p50), "ms"),
      at_reference("serve_query_p50_ms", Median(round_query_p50), "ms"),
      {"ok_ops_frac", ok_frac, "fraction"},
  };
  PrintResult(checks, metrics);
  return 0;
}

// ---- traced run ---------------------------------------------------------------

int RunTraced(Context& ctx, const Args& args) {
  Checks checks;
  Daemon daemon;
  SpanLog log;
  log.NameLane(0, "setup");
  for (int op = 0; op < kNumOps; ++op) {
    int lane = op + 1;
    log.NameLane(lane, OpName(op));
    if (op == kCheckWorkers4) {
      for (int w = 0; w < 4; ++w) {
        log.NameLane(lane * 10 + 1 + w, "check_workers4/worker" + std::to_string(w));
      }
    }
    if (op == kServe) {
      for (int c = 0; c < 2; ++c) {
        log.NameLane(lane * 10 + 1 + c, "serve/client" + std::to_string(c));
      }
    }
  }
  checks.BeginOp();
  Result<double> set_up = SetUp(ctx, daemon, 0, &log);
  checks.Record(set_up.ok(), "set-up: " + set_up.status().ToString());
  checks.EndOp();
  Status prepared = set_up.ok() ? PrepareContext(ctx) : set_up.status();
  if (!prepared.ok()) {
    checks.Record(false, "prepare: " + prepared.ToString());
    PrintResult(checks, {});
    return 0;
  }
  double write_s = 0.0;
  for (double s : log.ChildDurations(0, "table.write")) {
    write_s += s;
  }
  CpuTimes cpu0 = ReadCpuTimes();
  MetricsDelta run_delta;
  double daemon_cpu0 = ProcessCpuSeconds(ctx.serve_pid);

  checks.BeginOp();
  Status references = ComputeDrillReferences(ctx);
  checks.Record(references.ok(), "pool-1 drill reference: " + references.ToString());
  checks.EndOp();
  for (int op = 0; op < kNumOps; ++op) {
    RunOp(op, ctx, checks);  // warm-up, sets references
  }

  // Repeats, round-robin over operations, each operation run untraced and
  // then traced (library tracer on) back to back so a slow spell on the
  // host hits both sides of the overhead ratio. The first traced repeat
  // also records benchmark-side spans, one lane per operation; counter
  // deltas come from the first untraced repeat.
  std::vector<std::vector<OpSample>> untraced(kNumOps);
  std::vector<std::vector<OpSample>> traced(kNumOps);
  std::vector<int> op_span(kNumOps, -1);
  int64_t tests = 0, fallbacks = 0, rows_scanned = 0, hits = 0, misses = 0;
  int64_t runs = 0, tasks = 0, removals = 0;
  double wait_p50 = 0.0;
  for (int rep = 0; rep < kTracedReps; ++rep) {
    for (int op = 0; op < kNumOps; ++op) {
      MetricsDelta delta;
      untraced[op].push_back(RunOp(op, ctx, checks));
      if (rep == 0 && op == kCheckInmem) {
        tests = delta.Counter("stats.tests_executed");
        fallbacks = delta.Counter("stats.permutation_fallbacks");
        rows_scanned = delta.Counter("stats.rows_scanned");
        hits = delta.Counter("stats.encode_cache_hits");
        misses = delta.Counter("stats.encode_cache_misses");
      } else if (rep == 0 && op == kDrillK) {
        runs = delta.Counter("parallel.runs");
        tasks = delta.Counter("parallel.tasks");
        removals = delta.Counter("core.drilldown_removals");
        wait_p50 = delta.HistogramP50("parallel.steal_or_queue_wait_us");
      }
      SpanLog* rep_log = rep == 0 ? &log : nullptr;
      obs::Tracer::Global().Enable();
      Span span(rep_log, OpName(op), op + 1, -1);
      traced[op].push_back(RunOp(op, ctx, checks, TraceHook{rep_log, span.id(), op + 1}));
      span.End();
      obs::Tracer::Global().Disable();
      obs::Tracer::Global().Clear();
      if (rep == 0) {
        op_span[op] = span.id();
      }
    }
  }

  // Layer-by-layer replays of the operations whose layers the library
  // drives internally.
  checks.BeginOp();
  ShardedReplay sharded_replay = ReplaySharded(ctx, checks, log, kCheckSharded + 1);
  checks.EndOp();
  checks.BeginOp();
  int drill_k_replay = ReplayDrill(kDrillK, ctx, checks, log, kDrillK + 1);
  checks.EndOp();
  checks.BeginOp();
  int drill_kc_replay = ReplayDrill(kDrillKc, ctx, checks, log, kDrillKc + 1);
  checks.EndOp();

  // Pool-1 and one-worker references.
  auto best_of = [](int reps, auto&& fn) {
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
      best = std::min(best, fn());
    }
    return best;
  };
  parallel::SetThreads(1);
  Scoded loaded(ctx.table);
  double checkall_t1 = best_of(2, [&] {
    auto start = Clock::now();
    checks.BeginOp();
    checks.Record(loaded.CheckAll(ctx.batch).ok(), "pool-1 CheckAll");
    checks.EndOp();
    return SecondsSince(start);
  });
  double drill_k_t1 = best_of(2, [&] { return RunOp(kDrillK, ctx, checks).wall_s; });
  double drill_kc_t1 = best_of(2, [&] { return RunOp(kDrillKc, ctx, checks).wall_s; });
  parallel::SetThreads(kPoolThreads);
  double workers1 = best_of(2, [&] {
    checks.BeginOp();
    double s = RunDistributed(ctx, 1, checks, {}).wall_s;
    checks.EndOp();
    return s;
  });

  double tau_benefits = 0.0;
  if (ctx.spec.tau_x != nullptr) {
    const Column& x = ctx.table.ColumnByName(ctx.spec.tau_x);
    const Column& y = ctx.table.ColumnByName(ctx.spec.tau_y);
    std::vector<double> xs(ctx.table.NumRows());
    std::vector<double> ys(ctx.table.NumRows());
    for (size_t i = 0; i < xs.size(); ++i) {
      xs[i] = x.NumericAt(i);
      ys[i] = y.NumericAt(i);
    }
    tau_benefits = best_of(3, [&] {
      auto start = Clock::now();
      std::vector<int64_t> benefits = ComputeTauBenefits(xs, ys);
      double s = SecondsSince(start);
      checks.BeginOp();
      checks.Record(benefits.size() == xs.size(), "ComputeTauBenefits size");
      checks.EndOp();
      return s;
    });
  }

  // Serve: ping latency, and the local Append cost of the serve batches
  // for the wire share.
  std::vector<double> ping_us;
  checks.BeginOp();
  if (Result<serve::Client> client = serve::Client::Connect(ctx.serve_port); client.ok()) {
    for (int i = 0; i < 200; ++i) {
      auto start = Clock::now();
      checks.Record(client->Ping().ok(), "serve ping");
      ping_us.push_back(SecondsSince(start) * 1e6);
    }
  } else {
    checks.Record(false, "serve ping connect: " + client.status().ToString());
  }
  checks.EndOp();
  std::vector<double> local_append_ms;
  {
    StreamMonitorOptions options;
    options.monitor.window = ctx.spec.stream.window;
    Result<StreamMonitor> monitor = StreamMonitor::Create(ctx.table, ctx.stream_scs, options);
    for (const Table& batch : ctx.serve_batches) {
      auto start = Clock::now();
      if (monitor.ok() && monitor->Append(batch).ok()) {
        local_append_ms.push_back(SecondsSince(start) * 1000.0);
      }
    }
  }
  double daemon_cpu = ProcessCpuSeconds(ctx.serve_pid) - daemon_cpu0;
  int64_t tasks_retried = run_delta.Counter("dist.tasks_retried");
  double steal = StealFraction(cpu0, ReadCpuTimes());
  StopDaemon(daemon, ctx, checks);

  std::string trace_path = args.trace_out.empty()
                               ? ctx.workdir + "/trace-" + ctx.spec.name + ".json"
                               : args.trace_out;
  if (Status written = log.WriteChromeTrace(trace_path); !written.ok()) {
    checks.BeginOp();
    checks.Record(false, "write trace: " + written.ToString());
    checks.EndOp();
  } else {
    std::printf("trace written to %s\n", trace_path.c_str());
  }

  // ---- derive the per-layer metrics ----
  auto wall = [](const OpSample& s) { return s.wall_s; };
  auto best = [&](int op) { return Min(Collect(untraced[op], wall)); };
  auto cpu_util = [&](int op) {
    return Median(Collect(untraced[op], [](const OpSample& s) { return s.cpu_s / s.wall_s; }));
  };
  double read_s = Min(Collect(untraced[kCheckInmem], [](const OpSample& s) { return s.read_s; }));
  double checkall_s =
      Min(Collect(untraced[kCheckInmem], [](const OpSample& s) { return s.checkall_s; }));
  std::vector<double> stream_append_ms;
  std::vector<double> stream_query_ms;
  std::vector<double> append_us_per_row;
  for (const OpSample& sample : untraced[kStream]) {
    stream_append_ms.insert(stream_append_ms.end(), sample.append_ms.begin(),
                            sample.append_ms.end());
    stream_query_ms.insert(stream_query_ms.end(), sample.query_ms.begin(), sample.query_ms.end());
    double total_ms = 0.0;
    for (double ms : sample.append_ms) {
      total_ms += ms;
    }
    append_us_per_row.push_back(total_ms * 1000.0 / static_cast<double>(sample.rows));
  }
  std::vector<double> serve_append_ms;
  std::vector<double> serve_query_ms;
  int64_t serve_requests = 0;
  int64_t request_errors = 0;
  for (const auto* set : {&untraced[kServe], &traced[kServe]}) {
    for (const OpSample& sample : *set) {
      serve_append_ms.insert(serve_append_ms.end(), sample.append_ms.begin(),
                             sample.append_ms.end());
      serve_query_ms.insert(serve_query_ms.end(), sample.query_ms.begin(), sample.query_ms.end());
      // append + query requests, plus open and close per client.
      serve_requests += static_cast<int64_t>(sample.append_ms.size() + sample.query_ms.size()) + 4;
      request_errors += sample.request_errors;
    }
  }
  std::vector<double> workers4_cpu = Collect(
      untraced[kCheckWorkers4], [](const OpSample& s) { return s.cpu_s + s.child_cpu_s; });
  double sharded_cpu =
      Median(Collect(untraced[kCheckSharded], [](const OpSample& s) { return s.cpu_s; }));

  auto steps = [&](int replay) {
    return replay >= 0 ? log.ChildDurations(replay, "core.drill_step") : std::vector<double>{};
  };
  auto engine = [&](int replay) {
    return replay >= 0 ? log.ChildSeconds(replay, "core.drill_engine") : 0.0;
  };
  std::vector<double> k_steps = steps(drill_k_replay);
  std::vector<double> kc_steps = steps(drill_kc_replay);
  std::vector<double> all_steps = k_steps;
  all_steps.insert(all_steps.end(), kc_steps.begin(), kc_steps.end());

  double replay_open = 0.0, replay_next = 0.0, replay_acc = 0.0, replay_finish = 0.0;
  if (sharded_replay.span >= 0) {
    replay_open = log.ChildSeconds(sharded_replay.span, "table.shard_open");
    replay_next = log.ChildSeconds(sharded_replay.span, "table.shard_next");
    replay_acc = log.ChildSeconds(sharded_replay.span, "stats.summary_accumulate");
    replay_finish = log.ChildSeconds(sharded_replay.span, "stats.summary_finish");
  }

  std::vector<double> coverage(kNumOps, 0.0);
  for (int op = 0; op < kNumOps; ++op) {
    int id = op_span[op];
    if (op == kCheckSharded) id = sharded_replay.span;
    if (op == kDrillK) id = drill_k_replay;
    if (op == kDrillKc) id = drill_kc_replay;
    coverage[op] = id >= 0 ? log.Coverage(id) : 0.0;
  }

  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::vector<Metric> metrics = {
      {"table.read_s", read_s, "s"},
      {"table.read_mb_per_s", ratio(ctx.file_mb, read_s), "MB/s"},
      {"table.shard_open_s", replay_open, "s"},
      {"table.shard_next_s", replay_next, "s"},
      {"table.write_s", write_s, "s"},
      {"stats.tests_executed", static_cast<double>(tests), "count"},
      {"stats.permutation_fallbacks", static_cast<double>(fallbacks), "count"},
      {"stats.rows_scanned", static_cast<double>(rows_scanned), "count"},
      {"stats.encode_cache_hit_frac", ratio(static_cast<double>(hits),
                                            static_cast<double>(hits + misses)), "fraction"},
      {"stats.summary_accumulate_s", replay_acc, "s"},
      {"stats.summary_cells", static_cast<double>(sharded_replay.summary_cells), "count"},
      {"stats.summary_finish_s", replay_finish, "s"},
      {"stats.tau_benefits_s", tau_benefits, "s"},
      {"core.checkall_s", checkall_s, "s"},
      {"core.drill_engine_s", engine(drill_k_replay) + engine(drill_kc_replay), "s"},
      {"core.drill_step_us", Mean(all_steps) * 1e6, "us"},
      {"core.drill_removals", static_cast<double>(all_steps.size()), "count"},
      {"core.drill_k_engine_s", engine(drill_k_replay), "s"},
      {"core.drill_k_step_us", Mean(k_steps) * 1e6, "us"},
      {"core.drill_k_removals", static_cast<double>(k_steps.size()), "count"},
      {"core.drill_kc_engine_s", engine(drill_kc_replay), "s"},
      {"core.drill_kc_step_us", Mean(kc_steps) * 1e6, "us"},
      {"core.drill_kc_removals", static_cast<double>(kc_steps.size()), "count"},
      {"core.monitor_append_us_per_row", Min(append_us_per_row), "us/row"},
      {"core.monitor_append_p99_ms", Quantile(stream_append_ms, 0.99), "ms"},
      {"core.monitor_append_samples", static_cast<double>(stream_append_ms.size()), "count"},
      {"core.monitor_query_us", Median(stream_query_ms) * 1000.0, "us"},
      {"parallel.runs_per_removal", ratio(static_cast<double>(runs), static_cast<double>(removals)),
       "ratio"},
      {"parallel.tasks_per_removal",
       ratio(static_cast<double>(tasks), static_cast<double>(removals)), "ratio"},
      {"parallel.wait_us_p50", wait_p50, "us"},
      {"parallel.checkall_t1_s", checkall_t1, "s"},
      {"parallel.drill_k_t1_s", drill_k_t1, "s"},
      {"parallel.drill_kc_t1_s", drill_kc_t1, "s"},
      {"parallel.checkall_speedup", ratio(checkall_t1, checkall_s), "ratio"},
      {"parallel.drill_k_speedup", ratio(drill_k_t1, best(kDrillK)), "ratio"},
      {"parallel.drill_kc_speedup", ratio(drill_kc_t1, best(kDrillKc)), "ratio"},
      {"parallel.cpu_util.check_inmem", cpu_util(kCheckInmem), "ratio"},
      {"parallel.cpu_util.check_sharded", cpu_util(kCheckSharded), "ratio"},
      {"parallel.cpu_util.drill_k", cpu_util(kDrillK), "ratio"},
      {"parallel.cpu_util.drill_kc", cpu_util(kDrillKc), "ratio"},
      {"parallel.cpu_util.stream", cpu_util(kStream), "ratio"},
      {"distributed.spawn_s",
       Median(Collect(untraced[kCheckWorkers4], [](const OpSample& s) { return s.spawn_s; })),
       "s"},
      {"distributed.workers1_s", workers1, "s"},
      {"distributed.speedup_4v1", ratio(workers1, best(kCheckWorkers4)), "ratio"},
      {"distributed.worker_cpu_s",
       Median(Collect(untraced[kCheckWorkers4], [](const OpSample& s) { return s.child_cpu_s; })),
       "s"},
      {"distributed.cpu_vs_sharded", ratio(Median(workers4_cpu), sharded_cpu), "ratio"},
      {"distributed.worker_peak_rss_mb",
       traced[kCheckWorkers4].empty() ? 0.0 : traced[kCheckWorkers4][0].worker_peak_mb, "MB"},
      {"distributed.tasks_retried", static_cast<double>(tasks_retried), "count"},
      {"serve.ping_p50_us", Median(ping_us), "us"},
      {"serve.append_p99_ms", Quantile(serve_append_ms, 0.99), "ms"},
      {"serve.append_samples", static_cast<double>(serve_append_ms.size()), "count"},
      {"serve.query_p99_ms", Quantile(serve_query_ms, 0.99), "ms"},
      {"serve.query_samples", static_cast<double>(serve_query_ms.size()), "count"},
      {"serve.rows_per_s",
       Median(Collect(untraced[kServe], [](const OpSample& s) { return s.rows / s.wall_s; })),
       "rows/s"},
      {"serve.wire_frac", 1.0 - ratio(Mean(local_append_ms), Mean(serve_append_ms)), "fraction"},
      {"serve.daemon_cpu_ms_per_req",
       ratio(daemon_cpu * 1000.0, static_cast<double>(serve_requests)), "ms"},
      {"serve.request_errors", static_cast<double>(request_errors), "count"},
  };
  for (int op = 0; op < kNumOps; ++op) {
    metrics.push_back({std::string("trace.coverage.") + OpName(op), coverage[op], "fraction"});
  }
  for (int op = 0; op < kNumOps; ++op) {
    double untraced_best = best(op);
    double traced_best = Min(Collect(traced[op], wall));
    metrics.push_back({std::string("obs.trace_overhead.") + OpName(op),
                       ratio(traced_best, untraced_best) - 1.0, "fraction"});
  }
  metrics.push_back({"host.steal_frac", steal, "fraction"});

  std::string low;
  for (int op = 0; op < kNumOps; ++op) {
    if (coverage[op] < 0.9) {
      low += std::string(" ") + OpName(op);
    }
  }
  std::printf("trace coverage below 0.9:%s\n", low.empty() ? " none" : low.c_str());
  if (ctx.spec.tau_x == nullptr) {
    std::printf("not measured: stats.tau_benefits_s (workload %s has no numeric pair; "
                "reported as 0)\n", ctx.spec.name.c_str());
  }
  std::printf("layer shares of check_sharded replay: shard_open %.3f shard_next %.3f "
              "accumulate %.3f finish %.3f\n",
              ratio(replay_open, log.Seconds(std::max(0, sharded_replay.span))),
              ratio(replay_next, log.Seconds(std::max(0, sharded_replay.span))),
              ratio(replay_acc, log.Seconds(std::max(0, sharded_replay.span))),
              ratio(replay_finish, log.Seconds(std::max(0, sharded_replay.span))));
  PrintRegime(ctx, untraced[kCheckInmem], fallbacks,
              static_cast<int64_t>(sharded_replay.summary_cells));
  PrintResult(checks, metrics);
  return 0;
}

// ---- arguments ----------------------------------------------------------------

int Usage(const char* message) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --cli SCODED --workdir DIR [--scale F] [--trace-out FILE]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  IdlePollers pollers;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--cli") {
      args.cli = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--scale") {
      args.scale = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.cli.empty() || args.workdir.empty() ||
      !(args.scale > 0.0)) {
    return Usage("missing or malformed arguments");
  }

  HostFingerprint host = GetFingerprint();
  std::printf("host nproc=%d cpu_model=\"%s\" simd=%s build_type=%s seed=%llu workload=%s "
              "pool_threads=%d idle_pollers=%d trace=%d\n",
              host.nproc, host.cpu_model.c_str(), host.simd.c_str(), host.build_type.c_str(),
              static_cast<unsigned long long>(args.seed), args.workload.c_str(), kPoolThreads,
              pollers.active(), args.trace ? 1 : 0);
  if (!IsOptimisedBuild(host.build_type)) {
    std::fprintf(stderr,
                 "e2e_bench: refusing to measure a build without optimisation "
                 "(build type '%s'); configure with -DCMAKE_BUILD_TYPE=Release\n",
                 host.build_type.c_str());
    return 3;
  }

  Context ctx;
  Result<WorkloadSpec> spec = GetWorkload(args.workload, args.scale);
  if (!spec.ok()) {
    return Usage(spec.status().ToString().c_str());
  }
  ctx.spec = std::move(spec).value();
  ctx.seed = args.seed;
  ctx.cli = args.cli;
  ctx.workdir = args.workdir;
  ctx.csv_path = args.workdir + "/" + ctx.spec.name + ".csv";
  // Children (serve daemon, workers) leave crash reports in the workdir,
  // where the shutdown checks look for them, and use the same pool size.
  setenv("SCODED_CRASH_DIR", args.workdir.c_str(), 1);
  setenv("SCODED_THREADS", std::to_string(kPoolThreads).c_str(), 1);
  unsetenv("SCODED_METRICS_PORT");
  unsetenv("SCODED_WATCHDOG_SECS");
  parallel::SetThreads(kPoolThreads);

  int rc = args.trace ? RunTraced(ctx, args) : RunTimed(ctx, args);
  std::remove(ctx.csv_path.c_str());
  return rc;
}

}  // namespace
}  // namespace scoded::e2e

int main(int argc, char** argv) { return scoded::e2e::Main(argc, argv); }
