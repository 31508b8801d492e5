#include "ops.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/parallel.h"
#include "constraints/sc.h"
#include "core/scoded.h"
#include "core/sharded_check.h"
#include "core/stream_monitor.h"
#include "distributed/coordinator.h"
#include "distributed/substrate.h"
#include "serve/client.h"
#include "stats/encoding_cache.h"
#include "stats/shard_stats.h"
#include "table/csv.h"
#include "table/csv_stream.h"

namespace scoded::e2e {

namespace {

double Ms(Clock::time_point start) { return SecondsSince(start) * 1000.0; }

std::string StateLine(const std::string& constraint, double statistic, double p_value,
                      bool violated, double records) {
  char line[512];
  std::snprintf(line, sizeof(line), "%s|%.17g|%.17g|%d|%.0f", constraint.c_str(), statistic,
                p_value, violated ? 1 : 0, records);
  return line;
}

std::vector<std::string> LocalStateLines(const StreamMonitor& monitor) {
  std::vector<std::string> lines;
  for (const StreamMonitor::ConstraintState& state : monitor.States()) {
    lines.push_back(StateLine(state.constraint, state.statistic, state.p_value, state.violated,
                              static_cast<double>(state.records)));
  }
  return lines;
}

std::vector<std::string> RemoteStateLines(const JsonValue& response) {
  std::vector<std::string> lines;
  const JsonValue* states = response.Find("states");
  if (states == nullptr || !states->is_array()) {
    return lines;
  }
  for (const JsonValue& state : states->array) {
    const JsonValue* constraint = state.Find("constraint");
    const JsonValue* statistic = state.Find("statistic");
    const JsonValue* p_value = state.Find("p_value");
    const JsonValue* violated = state.Find("violated");
    const JsonValue* records = state.Find("records");
    if (constraint == nullptr || statistic == nullptr || p_value == nullptr ||
        violated == nullptr || records == nullptr) {
      lines.push_back("<malformed state>");
      continue;
    }
    lines.push_back(StateLine(constraint->string_value, statistic->number, p_value->number,
                              violated->bool_value, records->number));
  }
  return lines;
}

Result<StreamMonitor> MakeMonitor(const Context& ctx) {
  StreamMonitorOptions options;
  options.monitor.window = ctx.spec.stream.window;
  return StreamMonitor::Create(ctx.table, ctx.stream_scs, options);
}

std::vector<Table> SliceBatches(const Table& table, size_t batch_rows, size_t batches) {
  std::vector<Table> out;
  size_t n = table.NumRows();
  for (size_t b = 0; b < batches; ++b) {
    std::vector<size_t> rows;
    rows.reserve(batch_rows);
    for (size_t i = 0; i < batch_rows; ++i) {
      rows.push_back((b * batch_rows + i) % n);
    }
    out.push_back(table.Gather(rows));
  }
  return out;
}

std::vector<size_t> FirstRows(size_t limit, size_t n) {
  size_t count = limit == 0 ? n : std::min(limit, n);
  std::vector<size_t> rows(count);
  for (size_t i = 0; i < count; ++i) {
    rows[i] = i;
  }
  return rows;
}

Result<ApproximateSc> ParseOne(const std::string& text, double alpha) {
  SCODED_ASSIGN_OR_RETURN(std::vector<ApproximateSc> parsed, ParseBatch({{text, alpha}}));
  return parsed.front();
}

void CheckLines(Checks& checks, const char* what, std::vector<std::string>& reference,
                const std::vector<std::string>& lines) {
  if (reference.empty()) {
    reference = lines;
  }
  checks.Record(lines == reference, what);
}

// ---- operations -----------------------------------------------------------

OpSample CheckInmem(Context& ctx, Checks& checks, const TraceHook& hook) {
  OpSample sample;
  bool have_peak = ResetPeakRss();
  double base_mb = StatusMb(0, "VmHWM:");
  double cpu0 = SelfCpuSeconds();
  auto start = Clock::now();
  Result<Table> table = [&] {
    Span span(hook.log, "table.read", hook.lane, hook.parent);
    return csv::ReadFile(ctx.csv_path);
  }();
  sample.read_s = SecondsSince(start);
  if (!table.ok()) {
    checks.Record(false, "check_inmem: ReadFile: " + table.status().ToString());
    return sample;
  }
  auto check_start = Clock::now();
  Span span(hook.log, "core.checkall", hook.lane, hook.parent);
  Scoded system(std::move(table).value());
  Result<Scoded::BatchCheckResult> result = system.CheckAll(ctx.batch);
  span.End();
  sample.checkall_s = SecondsSince(check_start);
  sample.wall_s = SecondsSince(start);
  sample.cpu_s = SelfCpuSeconds() - cpu0;
  sample.peak_mb = have_peak && base_mb >= 0.0 ? StatusMb(0, "VmHWM:") - base_mb : -1.0;
  if (!result.ok()) {
    checks.Record(false, "check_inmem: CheckAll: " + result.status().ToString());
    return sample;
  }
  sample.lines = RenderReports(result->reports);
  sample.ok = true;
  CheckLines(checks, "check_inmem reports differ between repeats", ctx.check_reference,
             sample.lines);
  return sample;
}

OpSample CheckSharded(Context& ctx, Checks& checks) {
  OpSample sample;
  ShardedCheckOptions options;
  options.reader.shard_rows = ctx.spec.shard_rows;
  bool have_peak = ResetPeakRss();
  double base_mb = StatusMb(0, "VmHWM:");
  double cpu0 = SelfCpuSeconds();
  auto start = Clock::now();
  Result<ShardedCheckResult> result = ShardedCheckAll(ctx.csv_path, ctx.batch, options);
  sample.wall_s = SecondsSince(start);
  sample.cpu_s = SelfCpuSeconds() - cpu0;
  sample.peak_mb = have_peak && base_mb >= 0.0 ? StatusMb(0, "VmHWM:") - base_mb : -1.0;
  if (!result.ok()) {
    checks.Record(false, "check_sharded: " + result.status().ToString());
    return sample;
  }
  sample.lines = RenderReports(result->reports);
  sample.ok = true;
  CheckLines(checks, "check_sharded reports differ from the in-memory reports",
             ctx.check_reference, sample.lines);
  return sample;
}

// Fork/exec substrate that records what the coordinator does at the worker
// boundary: spawn intervals and pids, every request/response exchange, and
// (when tracing) each worker's VmHWM after every response, while the child
// is still alive. Pumps run on coordinator threads, hence the mutex.
class ObservedSubstrate : public dist::Substrate {
 public:
  ObservedSubstrate(const std::string& cli, const TraceHook& hook)
      : inner_(cli, {"worker"}), hook_(hook) {}

  Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t worker_index) override {
    auto start = Clock::now();
    SCODED_ASSIGN_OR_RETURN(std::unique_ptr<dist::WorkerChannel> channel,
                            inner_.Spawn(worker_index));
    auto end = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_spawn_) {
      first_spawn_ = start;
    }
    spawn_s += std::chrono::duration<double>(end - start).count();
    pids.push_back(static_cast<pid_t>(channel->pid()));
    if (hook_.log != nullptr) {
      hook_.log->Add("distributed.spawn", hook_.lane, hook_.parent, start, end);
    }
    return std::unique_ptr<dist::WorkerChannel>(
        new Channel(std::move(channel), this, static_cast<int>(worker_index)));
  }

  std::optional<Clock::time_point> first_spawn() const { return first_spawn_; }
  std::optional<Clock::time_point> last_receive() const { return last_receive_; }

  double spawn_s = 0.0;
  double worker_peak_mb = -1.0;
  std::vector<pid_t> pids;

 private:
  class Channel : public dist::WorkerChannel {
   public:
    Channel(std::unique_ptr<dist::WorkerChannel> inner, ObservedSubstrate* owner, int index)
        : inner_(std::move(inner)), owner_(owner), index_(index) {}
    Status Send(std::string_view payload) override {
      sent_ = Clock::now();
      return inner_->Send(payload);
    }
    Result<std::string> Receive(int deadline_millis) override {
      Result<std::string> payload = inner_->Receive(deadline_millis);
      owner_->NoteExchange(index_, sent_, Clock::now(), payload.ok() ? inner_->pid() : -1);
      return payload;
    }
    void Kill() override { inner_->Kill(); }
    int64_t pid() const override { return inner_->pid(); }

   private:
    std::unique_ptr<dist::WorkerChannel> inner_;
    ObservedSubstrate* owner_;
    int index_;
    Clock::time_point sent_;
  };

  void NoteExchange(int index, Clock::time_point sent, Clock::time_point received, int64_t pid) {
    double peak = -1.0;
    if (hook_.log != nullptr && pid > 0) {
      peak = StatusMb(static_cast<pid_t>(pid), "VmHWM:");
    }
    std::lock_guard<std::mutex> lock(mu_);
    last_receive_ = received;
    worker_peak_mb = std::max(worker_peak_mb, peak);
    if (hook_.log != nullptr) {
      hook_.log->Add("distributed.worker_request", hook_.lane * 10 + 1 + index, hook_.parent,
                     sent, received);
    }
  }

  dist::ForkExecSubstrate inner_;
  TraceHook hook_;
  std::mutex mu_;
  std::optional<Clock::time_point> first_spawn_;
  std::optional<Clock::time_point> last_receive_;
};

OpSample Drill(int op, Context& ctx, Checks& checks) {
  OpSample sample;
  bool direct = op == kDrillK;
  const DrillSpec& spec = direct ? ctx.spec.drill_k : ctx.spec.drill_kc;
  DrillDownOptions options;
  options.strategy = direct ? Strategy::kDirect : Strategy::kComplement;
  double cpu0 = SelfCpuSeconds();
  auto start = Clock::now();
  Result<DrillDownResult> result =
      DrillDown(ctx.table, direct ? ctx.drill_k_sc : ctx.drill_kc_sc, spec.k,
                direct ? ctx.drill_k_rows : ctx.drill_kc_rows, options);
  sample.wall_s = SecondsSince(start);
  sample.cpu_s = SelfCpuSeconds() - cpu0;
  if (!result.ok()) {
    checks.Record(false, std::string(OpName(op)) + ": " + result.status().ToString());
    return sample;
  }
  sample.drill_rows = result->rows;
  sample.ok = true;
  const std::vector<size_t>& reference =
      direct ? ctx.drill_k_reference : ctx.drill_kc_reference;
  checks.Record(reference.empty() || sample.drill_rows == reference,
                std::string(OpName(op)) + " rows differ from the pool-1 reference");
  return sample;
}

OpSample Stream(Context& ctx, Checks& checks, const TraceHook& hook) {
  OpSample sample;
  Result<StreamMonitor> monitor = MakeMonitor(ctx);
  if (!monitor.ok()) {
    checks.Record(false, "stream: Create: " + monitor.status().ToString());
    return sample;
  }
  const StreamSpec& spec = ctx.spec.stream;
  double cpu0 = SelfCpuSeconds();
  auto start = Clock::now();
  Status status = OkStatus();
  std::vector<StreamMonitor::ConstraintState> states;
  for (size_t b = 0; b < ctx.stream_batches.size() && status.ok(); ++b) {
    auto append_start = Clock::now();
    {
      Span span(hook.log, "core.monitor_append", hook.lane, hook.parent);
      status = monitor->Append(ctx.stream_batches[b]);
    }
    sample.append_ms.push_back(Ms(append_start));
    sample.rows += ctx.stream_batches[b].NumRows();
    bool last = b + 1 == ctx.stream_batches.size();
    if (last || (spec.query_every > 0 && (b + 1) % spec.query_every == 0)) {
      auto query_start = Clock::now();
      Span span(hook.log, "core.monitor_query", hook.lane, hook.parent);
      states = monitor->States();
      span.End();
      sample.query_ms.push_back(Ms(query_start));
    }
  }
  sample.wall_s = SecondsSince(start);
  sample.cpu_s = SelfCpuSeconds() - cpu0;
  if (!status.ok()) {
    checks.Record(false, "stream: Append: " + status.ToString());
    return sample;
  }
  sample.lines = LocalStateLines(*monitor);
  sample.ok = true;
  CheckLines(checks, "stream states differ between repeats", ctx.stream_reference,
             sample.lines);
  return sample;
}

// One serve client's closed loop: open, append with periodic queries, a
// final query checked against the local reference, close.
struct ClientRun {
  std::vector<double> append_ms;
  std::vector<double> query_ms;
  std::vector<std::string> final_lines;
  size_t rows = 0;
  int64_t errors = 0;
  std::string first_error;
};

void RunClient(serve::Client& client, const Context& ctx, const TraceHook& hook, int lane,
               ClientRun* run) {
  auto fail = [&](const Status& status) {
    ++run->errors;
    if (run->first_error.empty()) {
      run->first_error = status.ToString();
    }
  };
  Result<std::string> session = [&] {
    Span span(hook.log, "serve.open_session", lane, hook.parent);
    return client.OpenSession(ctx.table.schema(), ctx.stream_scs, ctx.spec.stream.window);
  }();
  if (!session.ok()) {
    fail(session.status());
    return;
  }
  const ServeSpec& spec = ctx.spec.serve;
  for (size_t b = 0; b < ctx.serve_batches.size(); ++b) {
    auto start = Clock::now();
    Result<size_t> appended = [&] {
      Span span(hook.log, "serve.append_batch", lane, hook.parent);
      return client.AppendBatch(*session, ctx.serve_batches[b]);
    }();
    run->append_ms.push_back(Ms(start));
    if (!appended.ok()) {
      fail(appended.status());
      continue;
    }
    run->rows += ctx.serve_batches[b].NumRows();
    bool last = b + 1 == ctx.serve_batches.size();
    if (last || (spec.query_every > 0 && (b + 1) % spec.query_every == 0)) {
      auto query_start = Clock::now();
      Result<JsonValue> response = [&] {
        Span span(hook.log, "serve.query", lane, hook.parent);
        return client.Query(*session);
      }();
      run->query_ms.push_back(Ms(query_start));
      if (!response.ok()) {
        fail(response.status());
      } else if (last) {
        run->final_lines = RemoteStateLines(*response);
      }
    }
  }
  Span span(hook.log, "serve.close_session", lane, hook.parent);
  if (Status closed = client.CloseSession(*session); !closed.ok()) {
    fail(closed);
  }
}

OpSample Serve(Context& ctx, Checks& checks, const TraceHook& hook) {
  constexpr int kClients = 2;
  OpSample sample;
  std::vector<serve::Client> clients;
  for (int c = 0; c < kClients; ++c) {
    Result<serve::Client> client = serve::Client::Connect(ctx.serve_port);
    if (!client.ok()) {
      checks.Record(false, "serve: Connect: " + client.status().ToString());
      return sample;
    }
    clients.push_back(std::move(client).value());
  }
  std::vector<ClientRun> runs(kClients);
  double cpu0 = SelfCpuSeconds();
  auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] { RunClient(clients[c], ctx, hook, hook.lane * 10 + 1 + c, &runs[c]); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  sample.wall_s = SecondsSince(start);
  sample.cpu_s = SelfCpuSeconds() - cpu0;
  bool ok = true;
  for (int c = 0; c < kClients; ++c) {
    const ClientRun& run = runs[c];
    sample.append_ms.insert(sample.append_ms.end(), run.append_ms.begin(), run.append_ms.end());
    sample.query_ms.insert(sample.query_ms.end(), run.query_ms.begin(), run.query_ms.end());
    sample.rows += run.rows;
    sample.request_errors += run.errors;
    if (run.errors > 0) {
      checks.Record(false, "serve client " + std::to_string(c) + ": " + run.first_error);
      ok = false;
      continue;
    }
    bool same = run.final_lines == ctx.serve_reference;
    checks.Record(same, "serve client " + std::to_string(c) +
                            ": final query differs from local StreamMonitor::States()");
    ok = ok && same;
  }
  sample.ok = ok;
  return sample;
}

}  // namespace

const char* OpName(int op) {
  static const char* const kNames[kNumOps] = {"check_inmem", "check_sharded", "check_workers4",
                                              "drill_k",     "drill_kc",      "stream",
                                              "serve"};
  return kNames[op];
}

void Checks::Record(bool pass, const std::string& what) {
  if (pass) {
    return;
  }
  ++failed_checks_;
  if (std::find(failures_.begin(), failures_.end(), what) == failures_.end()) {
    failures_.push_back(what);
    std::fprintf(stderr, "FAILED CHECK: %s\n", what.c_str());
  }
}

std::vector<std::string> RenderReports(const std::vector<ViolationReport>& reports) {
  std::vector<std::string> lines;
  for (const ViolationReport& report : reports) {
    char line[160];
    std::snprintf(line, sizeof(line), "%d p=%.17g stat=%.17g n=%lld", report.violated ? 1 : 0,
                  report.p_value, report.test.statistic, static_cast<long long>(report.test.n));
    lines.push_back(line);
  }
  return lines;
}

Status PrepareContext(Context& ctx) {
  SCODED_ASSIGN_OR_RETURN(ctx.batch, ParseBatch(ctx.spec.batch));
  SCODED_ASSIGN_OR_RETURN(ctx.stream_scs, ParseBatch(ctx.spec.stream.constraints));
  SCODED_ASSIGN_OR_RETURN(ctx.drill_k_sc, ParseOne(ctx.spec.drill_k.constraint, ctx.spec.drill_k.alpha));
  SCODED_ASSIGN_OR_RETURN(ctx.drill_kc_sc,
                          ParseOne(ctx.spec.drill_kc.constraint, ctx.spec.drill_kc.alpha));
  size_t n = ctx.table.NumRows();
  ctx.drill_k_rows = FirstRows(ctx.spec.drill_k.rows, n);
  ctx.drill_kc_rows = FirstRows(ctx.spec.drill_kc.rows, n);
  ctx.stream_batches = SliceBatches(ctx.table, ctx.spec.stream.batch_rows, ctx.spec.stream.batches);
  ctx.serve_batches = SliceBatches(ctx.table, ctx.spec.serve.batch_rows, ctx.spec.serve.batches);
  SCODED_ASSIGN_OR_RETURN(StreamMonitor monitor, MakeMonitor(ctx));
  for (const Table& batch : ctx.serve_batches) {
    SCODED_RETURN_IF_ERROR(monitor.Append(batch));
  }
  ctx.serve_reference = LocalStateLines(monitor);
  return OkStatus();
}

Status ComputeDrillReferences(Context& ctx) {
  int threads = parallel::Threads();
  parallel::SetThreads(1);
  DrillDownOptions options;
  options.strategy = Strategy::kDirect;
  Result<DrillDownResult> k =
      DrillDown(ctx.table, ctx.drill_k_sc, ctx.spec.drill_k.k, ctx.drill_k_rows, options);
  options.strategy = Strategy::kComplement;
  Result<DrillDownResult> kc =
      DrillDown(ctx.table, ctx.drill_kc_sc, ctx.spec.drill_kc.k, ctx.drill_kc_rows, options);
  parallel::SetThreads(threads);
  SCODED_RETURN_IF_ERROR(k.status());
  SCODED_RETURN_IF_ERROR(kc.status());
  ctx.drill_k_reference = k->rows;
  ctx.drill_kc_reference = kc->rows;
  return OkStatus();
}

OpSample RunDistributed(Context& ctx, int workers, Checks& checks, const TraceHook& hook) {
  OpSample sample;
  ObservedSubstrate substrate(ctx.cli, hook);
  dist::DistributedCheckOptions options;
  options.base.reader.shard_rows = ctx.spec.shard_rows;
  options.workers = workers;
  double cpu0 = SelfCpuSeconds();
  double child0 = ChildrenCpuSeconds();
  auto start = Clock::now();
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(ctx.csv_path, ctx.batch, substrate, options);
  auto end = Clock::now();
  sample.wall_s = std::chrono::duration<double>(end - start).count();
  sample.cpu_s = SelfCpuSeconds() - cpu0;
  sample.child_cpu_s = ChildrenCpuSeconds() - child0;
  sample.spawn_s = substrate.spawn_s;
  sample.worker_peak_mb = substrate.worker_peak_mb;
  if (hook.log != nullptr && substrate.first_spawn() && substrate.last_receive()) {
    hook.log->Add("distributed.coordinator_prepare", hook.lane, hook.parent, start,
                  *substrate.first_spawn());
    hook.log->Add("distributed.coordinator_finish", hook.lane, hook.parent,
                  *substrate.last_receive(), end);
  }
  std::string name = "check_workers" + std::to_string(workers);
  if (!result.ok()) {
    checks.Record(false, name + ": " + result.status().ToString());
    return sample;
  }
  bool reaped = true;
  bool no_report = true;
  for (pid_t pid : substrate.pids) {
    reaped = reaped && ProcessGone(pid);
    no_report = no_report &&
                FilesWithPrefix(ctx.workdir, "scoded-crash-" + std::to_string(pid) + ".").empty();
  }
  checks.Record(reaped, name + ": a worker process outlived the check");
  checks.Record(no_report, name + ": a worker left a scoded-crash report");
  sample.lines = RenderReports(result->reports);
  sample.ok = reaped;
  CheckLines(checks, (name + " reports differ from the in-memory reports").c_str(),
             ctx.check_reference, sample.lines);
  return sample;
}

OpSample RunOp(int op, Context& ctx, Checks& checks, const TraceHook& hook) {
  checks.BeginOp();
  OpSample sample;
  switch (op) {
    case kCheckInmem:
      sample = CheckInmem(ctx, checks, hook);
      break;
    case kCheckSharded:
      sample = CheckSharded(ctx, checks);
      break;
    case kCheckWorkers4:
      sample = RunDistributed(ctx, 4, checks, hook);
      break;
    case kDrillK:
    case kDrillKc:
      sample = Drill(op, ctx, checks);
      break;
    case kStream:
      sample = Stream(ctx, checks, hook);
      break;
    default:
      sample = Serve(ctx, checks, hook);
      break;
  }
  checks.EndOp();
  return sample;
}

ShardedReplay ReplaySharded(Context& ctx, Checks& checks, SpanLog& log, int lane) {
  ShardedReplay replay;
  ShardedCheckOptions options;
  options.reader.shard_rows = ctx.spec.shard_rows;
  Span root(&log, "check_sharded.replay", lane, -1);
  replay.span = root.id();
  int parent = root.id();
  auto fail = [&](const Status& status) {
    checks.Record(false, "check_sharded replay: " + status.ToString());
    replay.span = -1;
    return replay;
  };
  Result<csv::ShardReader> reader = [&] {
    Span span(&log, "table.shard_open", lane, parent);
    return csv::ShardReader::Open(ctx.csv_path, options.reader);
  }();
  if (!reader.ok()) {
    return fail(reader.status());
  }
  Result<ShardedCheckPlan> plan = [&]() -> Result<ShardedCheckPlan> {
    Span span(&log, "core.prepare_sharded", lane, parent);
    SCODED_ASSIGN_OR_RETURN(Table schema, reader->EmptyTable());
    return PrepareShardedCheck(schema, ctx.batch, options.test);
  }();
  if (!plan.ok()) {
    return fail(plan.status());
  }
  uint64_t row_offset = 0;
  size_t shards = 0;
  while (true) {
    Result<std::optional<Table>> shard = [&] {
      Span span(&log, "table.shard_next", lane, parent);
      return reader->Next();
    }();
    if (!shard.ok()) {
      return fail(shard.status());
    }
    if (!shard->has_value()) {
      break;
    }
    Span span(&log, "stats.summary_accumulate", lane, parent);
    for (ShardedComponent& component : plan->components) {
      component.summary.Merge(
          PairwiseShardSummary::FromShard(**shard, component.spec, row_offset));
    }
    row_offset += (*shard)->NumRows();
    ++shards;
  }
  for (const ShardedComponent& component : plan->components) {
    replay.summary_cells += component.summary.num_cells();
  }
  Result<ShardedCheckResult> result = [&] {
    Span span(&log, "stats.summary_finish", lane, parent);
    return FinishShardedCheck(ctx.csv_path, ctx.batch, options, std::move(plan).value(), shards,
                              row_offset);
  }();
  if (!result.ok()) {
    return fail(result.status());
  }
  checks.Record(RenderReports(result->reports) == ctx.check_reference,
                "check_sharded replay reports differ from the in-memory reports");
  return replay;
}

int ReplayDrill(int op, Context& ctx, Checks& checks, SpanLog& log, int lane) {
  bool direct = op == kDrillK;
  const ApproximateSc& asc = direct ? ctx.drill_k_sc : ctx.drill_kc_sc;
  const std::vector<size_t>& rows = direct ? ctx.drill_k_rows : ctx.drill_kc_rows;
  size_t k = direct ? ctx.spec.drill_k.k : ctx.spec.drill_kc.k;
  std::string name = OpName(op);
  Span root(&log, name + ".replay", lane, -1);
  auto fail = [&](const Status& status) {
    checks.Record(false, name + " replay: " + status.ToString());
    return -1;
  };
  // The drill constraints are singletons, so DrillDown's component choice
  // is a plain bind; the engine then sees exactly the rows DrillDown gives it.
  Result<BoundConstraint> bound = BindConstraint(DecomposeToSingletons(asc.sc).front(), ctx.table);
  if (!bound.ok()) {
    return fail(bound.status());
  }
  ColumnEncodingCache cache;
  TestOptions test;
  test.encoding_cache = &cache;
  Result<std::unique_ptr<internal::DrilldownEngine>> engine = [&] {
    Span span(&log, "core.drill_engine", lane, root.id());
    return internal::MakeEngine(ctx.table, bound->x[0], bound->y[0], bound->z, rows, test);
  }();
  if (!engine.ok()) {
    return fail(engine.status());
  }
  using internal::RemovalGoal;
  RemovalGoal toward = asc.sc.is_independence() ? RemovalGoal::kReduceDependence
                                                : RemovalGoal::kIncreaseDependence;
  RemovalGoal away = toward == RemovalGoal::kReduceDependence ? RemovalGoal::kIncreaseDependence
                                                              : RemovalGoal::kReduceDependence;
  std::vector<size_t> order;
  k = std::min(k, (*engine)->AliveCount());
  while (direct ? order.size() < k : (*engine)->AliveCount() > 0) {
    size_t removed = 0;
    Span span(&log, "core.drill_step", lane, root.id());
    if (!(*engine)->SelectAndRemove(direct ? toward : away, &removed)) {
      break;
    }
    order.push_back(removed);
  }
  std::vector<size_t> result = order;
  if (!direct) {
    result.assign(order.rbegin(), order.rbegin() + static_cast<ptrdiff_t>(k));
  }
  const std::vector<size_t>& reference = direct ? ctx.drill_k_reference : ctx.drill_kc_reference;
  checks.Record(result == reference, name + " replay rows differ from the pool-1 reference");
  return root.id();
}

}  // namespace scoded::e2e
