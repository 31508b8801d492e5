#include "core/sharded_check.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/parallel.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/shard_stats.h"

namespace scoded {

namespace {

// Dispatch granularity: the shard range is cut into about this many
// contiguous tasks per lane, so a lost lane forfeits at most ~1/4 of its
// share, and a single lane folds each task's summaries before it reads
// the next task's shards.
constexpr uint64_t kTasksPerLane = 4;

// Column-bound checks the PairwiseShardSummary constructor would enforce
// with a process-fatal SCODED_CHECK; a spec that arrived over the wire
// must fail with an error instead.
Status ValidateSpec(const PairwiseShardSummary::Spec& spec, const Table& schema) {
  auto ok = [&](int col) { return col >= 0 && static_cast<size_t>(col) < schema.NumColumns(); };
  if (!ok(spec.x_col) || !ok(spec.y_col) || spec.x_col == spec.y_col) {
    return InvalidArgumentError("component spec has invalid x/y columns");
  }
  for (int z : spec.z_cols) {
    if (!ok(z) || z == spec.x_col || z == spec.y_col) {
      return InvalidArgumentError("component spec has invalid conditioning columns");
    }
  }
  return OkStatus();
}

// Runs tasks in this process, each through the same range reader a worker
// uses, and hands summaries to the fold as objects. A file error would
// recur on any lane, so it is fatal.
class InProcessLane : public ShardLane {
 public:
  InProcessLane(ShardSource source, std::vector<PairwiseShardSummary::Spec> specs)
      : source_(std::move(source)), specs_(std::move(specs)) {}

  LaneResult Summarize(const csv::ShardRange& range) override {
    Result<ShardRangeSummary> summary = SummarizeShardRange(source_, specs_, range);
    if (!summary.ok()) {
      return {LaneResult::Kind::kFatal, summary.status()};
    }
    return {LaneResult::Kind::kOk, OkStatus(), std::move(*summary)};
  }

 private:
  ShardSource source_;
  std::vector<PairwiseShardSummary::Spec> specs_;
};

obs::Gauge* LaneGauge(size_t lane, const char* what) {
  return obs::Metrics::Global().FindOrCreateGauge("dist.worker" + std::to_string(lane) + "." +
                                                  what);
}

}  // namespace

void SummaryFold::Add(PairwiseShardSummary summary) {
  stack_.push_back({std::move(summary), 1});
  while (stack_.size() >= 2 && stack_[stack_.size() - 2].runs == stack_.back().runs) {
    MergeTop();
  }
}

void SummaryFold::MergeTop() {
  Pending& left = stack_[stack_.size() - 2];
  left.summary.Merge(stack_.back().summary);
  left.runs += stack_.back().runs;
  stack_.pop_back();
}

std::optional<PairwiseShardSummary> SummaryFold::Take() && {
  if (stack_.empty()) {
    return std::nullopt;
  }
  while (stack_.size() >= 2) {
    MergeTop();
  }
  return std::move(stack_.front().summary);
}

Result<ShardRangeSummary> SummarizeShardRange(const ShardSource& source,
                                              const std::vector<PairwiseShardSummary::Spec>& specs,
                                              const csv::ShardRange& range) {
  static obs::Counter* const shard_rows_counter =
      obs::Metrics::Global().FindOrCreateCounter("shard.rows");
  static obs::Counter* const shard_merges_counter =
      obs::Metrics::Global().FindOrCreateCounter("shard.merges");
  // Opening validates the range before anything is sized from it.
  SCODED_ASSIGN_OR_RETURN(
      csv::ShardRangeReader reader,
      csv::ShardRangeReader::Open(source.path, source.reader, source.names, source.numeric, range));
  SCODED_ASSIGN_OR_RETURN(Table schema, csv::SchemaTable(source.names, source.numeric));
  ShardRangeSummary out;
  out.summaries.reserve(specs.size());
  for (const PairwiseShardSummary::Spec& spec : specs) {
    SCODED_RETURN_IF_ERROR(ValidateSpec(spec, schema));
    out.summaries.emplace_back(schema, spec);
  }
  std::vector<SummaryFold> folds(specs.size());
  // Read the range in waves: `wave` shards serially, every (shard, spec)
  // pair summarised on the pool, the partials folded serially in (shard,
  // spec) order — the fold order, and hence every result, is thread-count
  // independent. A wave's shards are held at once, so a wave is only as
  // many shards (at most 4) as it takes to give every thread a pair: one
  // shard whenever there are at least as many specs as threads.
  const size_t threads = std::max(1, parallel::Threads());
  const size_t num_specs = std::max<size_t>(1, specs.size());
  const size_t wave = std::clamp<size_t>((threads + num_specs - 1) / num_specs, 1, 4);
  const uint64_t shard_rows = source.reader.shard_rows;  // the reader rejects 0
  uint64_t row_offset = range.first_row;
  bool more = true;
  while (more) {
    std::vector<Table> shards;
    std::vector<uint64_t> offsets;
    const uint64_t first_index = row_offset / shard_rows;
    shards.reserve(wave);
    while (shards.size() < wave) {
      obs::ScopedSpan read_span("core/shard_read");
      SCODED_ASSIGN_OR_RETURN(std::optional<Table> shard, reader.Next());
      if (!shard.has_value()) {
        more = false;
        break;
      }
      if (read_span.active()) {
        read_span.Arg("shard_index", static_cast<int64_t>(row_offset / shard_rows))
            .Arg("rows", static_cast<int64_t>(shard->NumRows()))
            .Arg("row_offset", static_cast<int64_t>(row_offset));
      }
      offsets.push_back(row_offset);
      row_offset += shard->NumRows();
      obs::Heartbeat("core.shard_read", static_cast<int64_t>(row_offset / shard_rows));
      shards.push_back(std::move(*shard));
    }
    if (shards.empty()) {
      break;
    }
    obs::ScopedSpan wave_span("core/shard_summarize");
    if (wave_span.active()) {
      wave_span.Arg("shards", static_cast<int64_t>(shards.size()))
          .Arg("components", static_cast<int64_t>(specs.size()))
          .Arg("first_shard_index", static_cast<int64_t>(first_index))
          .Arg("rows_read", static_cast<int64_t>(row_offset - offsets.front()));
    }
    size_t tasks = shards.size() * specs.size();
    std::vector<PairwiseShardSummary> partials =
        parallel::ParallelMap<PairwiseShardSummary>(tasks, /*grain=*/1, [&](size_t t) {
          size_t s = t / specs.size();
          size_t c = t % specs.size();
          // Per-(shard, component) span: --trace-out on an out-of-core
          // run shows which shard and component each task covered.
          obs::ScopedSpan task_span("core/shard_summarize_one");
          if (task_span.active()) {
            task_span.Arg("shard_index", static_cast<int64_t>(first_index + s))
                .Arg("component", static_cast<int64_t>(c))
                .Arg("rows", static_cast<int64_t>(shards[s].NumRows()))
                .Arg("row_offset", static_cast<int64_t>(offsets[s]));
          }
          return PairwiseShardSummary::FromShard(shards[s], specs[c], offsets[s]);
        });
    for (size_t t = 0; t < tasks; ++t) {
      folds[t % specs.size()].Add(std::move(partials[t]));
    }
    for (const Table& shard : shards) {
      shard_rows_counter->Add(static_cast<int64_t>(shard.NumRows()));
      out.rows += shard.NumRows();
    }
    shard_merges_counter->Add(static_cast<int64_t>(tasks));
  }
  for (size_t c = 0; c < specs.size(); ++c) {
    if (std::optional<PairwiseShardSummary> folded = std::move(folds[c]).Take()) {
      out.summaries[c] = std::move(*folded);
    }
  }
  return out;
}

Result<ShardedCheckPlan> PrepareShardedCheck(const Table& schema,
                                             const std::vector<ApproximateSc>& constraints,
                                             const TestOptions& test) {
  ShardedCheckPlan plan;
  // Consistency first, exactly as Scoded::CheckAll.
  SCODED_ASSIGN_OR_RETURN(plan.consistency, CheckEnforceable(constraints));

  // Decompose and bind every component up front, preserving the error
  // order of the in-memory path: per constraint, the alpha check precedes
  // the component bindings.
  plan.component_range.resize(constraints.size());
  for (size_t i = 0; i < constraints.size(); ++i) {
    const ApproximateSc& asc = constraints[i];
    if (asc.alpha < 0.0 || asc.alpha > 1.0) {
      return InvalidArgumentError("alpha must lie in [0, 1]");
    }
    std::vector<StatisticalConstraint> singles = DecomposeToSingletons(asc.sc);
    plan.component_range[i] = {plan.components.size(),
                               plan.components.size() + singles.size()};
    for (StatisticalConstraint& single : singles) {
      SCODED_ASSIGN_OR_RETURN(BoundConstraint bound, BindConstraint(single, schema));
      ShardedComponent state;
      state.component = std::move(single);
      state.spec = {bound.x[0], bound.y[0], bound.z};
      if (test.numeric_method == NumericMethod::kSpearman && bound.z.empty() &&
          schema.column(static_cast<size_t>(bound.x[0])).type() == ColumnType::kNumeric &&
          schema.column(static_cast<size_t>(bound.y[0])).type() == ColumnType::kNumeric) {
        // Fail before streaming anything; PairwiseShardSummary::Finish
        // would refuse this component anyway.
        return UnimplementedError(
            "sharded checking does not support numeric_method=Spearman; "
            "use Kendall's tau or the in-memory path");
      }
      state.summary = PairwiseShardSummary(schema, state.spec);
      plan.components.push_back(std::move(state));
    }
  }
  return plan;
}

Result<ShardedCheckResult> FinishShardedCheck(const std::string& path,
                                              const std::vector<ApproximateSc>& constraints,
                                              const ShardedCheckOptions& options,
                                              ShardedCheckPlan plan, size_t shards,
                                              uint64_t rows) {
  static obs::Gauge* const progress_constraints =
      obs::Metrics::Global().FindOrCreateGauge("progress.constraints_checked");
  static obs::Gauge* const progress_min_p =
      obs::Metrics::Global().FindOrCreateGauge("progress.current_min_p");

  ShardedCheckResult out;
  out.consistency = std::move(plan.consistency);
  out.shards = shards;
  out.rows = rows;
  std::vector<ShardedComponent>& components = plan.components;

  // Finish every component, one per pool task as CheckAll runs one
  // constraint per task: each writes only its own component, and the first
  // error in component order wins. Components whose G-test needs the
  // permutation fallback get their row-order code vectors from a second
  // pass.
  SCODED_RETURN_IF_ERROR(
      parallel::ParallelForStatus(0, components.size(), /*grain=*/1, [&](size_t c) -> Status {
        ShardedComponent& state = components[c];
        SCODED_ASSIGN_OR_RETURN(PairwiseShardSummary::FinishOutcome outcome,
                                state.summary.Finish(options.test));
        state.result = outcome.result;
        state.needs_row_pass = outcome.needs_row_pass;
        if (state.needs_row_pass) {
          state.permutation_strata.resize(state.summary.NumPermutationStrata());
        }
        return OkStatus();
      }));
  const bool any_row_pass = std::any_of(components.begin(), components.end(),
                                         [](const ShardedComponent& c) { return c.needs_row_pass; });
  if (any_row_pass) {
    obs::ScopedSpan pass_span("core/shard_permutation_pass");
    SCODED_ASSIGN_OR_RETURN(csv::ShardReader second,
                            csv::ShardReader::Open(path, options.reader));
    while (true) {
      SCODED_ASSIGN_OR_RETURN(std::optional<Table> shard, second.Next());
      if (!shard.has_value()) {
        break;
      }
      for (ShardedComponent& state : components) {
        if (state.needs_row_pass) {
          state.summary.CollectPermutationCodes(*shard, &state.permutation_strata);
        }
      }
    }
    // One fallback per pool task, as CheckAll runs one constraint per
    // task: each seeds its own Rng and writes only its own component, so
    // the p-values do not depend on the thread count.
    parallel::ParallelFor(0, components.size(), /*grain=*/1, [&](size_t c) {
      ShardedComponent& state = components[c];
      if (!state.needs_row_pass) {
        return;
      }
      state.result.p_value = GPermutationFallbackPValue(
          state.permutation_strata, options.test.permutation_fallback_iterations,
          options.test.permutation_seed);
      state.result.used_exact = true;
      state.permutation_strata.clear();
      state.permutation_strata.shrink_to_fit();
    });
  }

  out.reports.reserve(constraints.size());
  for (size_t i = 0; i < constraints.size(); ++i) {
    const ApproximateSc& asc = constraints[i];
    ViolationReport report;
    report.alpha = asc.alpha;
    obs::ScopedSpan span("core/detect_violation");
    auto [begin, end] = plan.component_range[i];
    for (size_t c = begin; c < end; ++c) {
      ShardedComponent& state = components[c];
      RecordTestMetrics(state.result);
      report.components.push_back(ComponentResult{std::move(state.component), state.result});
    }
    DecideViolation(asc, report);
    out.violations += report.violated ? 1 : 0;
    progress_constraints->MaxWith(static_cast<double>(i + 1));
    progress_min_p->MinWith(report.p_value);
    obs::Heartbeat("core.constraint_checked", static_cast<int64_t>(i + 1));
    out.reports.push_back(std::move(report));
  }
  return out;
}

Result<ShardedCheckResult> RunShardedCheck(const std::string& path,
                                           const std::vector<ApproximateSc>& constraints,
                                           const ShardedCheckOptions& options,
                                           const ShardLaneFactory& make_lanes) {
  // Live progress for the /metrics endpoint: a scrape mid-run answers
  // "how far along" without touching the streaming state. MaxWith keeps
  // each gauge monotone per run even if stores race a scrape.
  static obs::Gauge* const progress_shards_total =
      obs::Metrics::Global().FindOrCreateGauge("progress.shards_total");
  static obs::Gauge* const progress_shards_done =
      obs::Metrics::Global().FindOrCreateGauge("progress.shards_done");
  static obs::Gauge* const progress_rows_total =
      obs::Metrics::Global().FindOrCreateGauge("progress.rows_total");
  static obs::Gauge* const progress_rows =
      obs::Metrics::Global().FindOrCreateGauge("progress.rows_ingested");
  static obs::Gauge* const progress_constraints_total =
      obs::Metrics::Global().FindOrCreateGauge("progress.constraints_total");
  static obs::Gauge* const progress_constraints =
      obs::Metrics::Global().FindOrCreateGauge("progress.constraints_checked");
  static obs::Gauge* const progress_min_p =
      obs::Metrics::Global().FindOrCreateGauge("progress.current_min_p");
  static obs::Gauge* const lanes_live_gauge =
      obs::Metrics::Global().FindOrCreateGauge("dist.workers_live");
  static obs::Counter* const tasks_retried =
      obs::Metrics::Global().FindOrCreateCounter("dist.tasks_retried");
  static obs::Counter* const lanes_lost =
      obs::Metrics::Global().FindOrCreateCounter("dist.workers_lost");

  // The first pass: the schema binds the constraints, the index cuts the
  // tasks' byte ranges, and every lane's range reader checks its bytes
  // against it.
  SCODED_ASSIGN_OR_RETURN(csv::ShardReader reader, csv::ShardReader::Open(path, options.reader));
  SCODED_ASSIGN_OR_RETURN(Table schema, reader.EmptyTable());
  const uint64_t num_rows = reader.num_data_rows();
  const uint64_t num_shards = reader.index().num_shards();
  progress_shards_total->Set(static_cast<double>(num_shards));
  progress_rows_total->Set(static_cast<double>(num_rows));
  progress_shards_done->Set(0.0);
  progress_rows->Set(0.0);
  progress_constraints_total->Set(static_cast<double>(constraints.size()));
  progress_constraints->Set(0.0);
  progress_min_p->Set(1.0);

  SCODED_ASSIGN_OR_RETURN(ShardedCheckPlan plan,
                          PrepareShardedCheck(schema, constraints, options.test));
  if (plan.components.empty() || num_shards == 0) {
    // Nothing to summarise; no lanes needed.
    return FinishShardedCheck(path, constraints, options, std::move(plan),
                              static_cast<size_t>(num_shards), num_rows);
  }

  std::vector<PairwiseShardSummary::Spec> specs;
  specs.reserve(plan.components.size());
  for (const ShardedComponent& component : plan.components) {
    specs.push_back(component.spec);
  }
  SCODED_ASSIGN_OR_RETURN(ShardLanes lanes, make_lanes(reader, schema, specs));
  const size_t num_lanes = lanes.size();
  lanes_live_gauge->Set(static_cast<double>(num_lanes));

  // Contiguous tasks, several per lane, in file order.
  const uint64_t num_tasks = std::min<uint64_t>(num_shards, num_lanes * kTasksPerLane);
  std::vector<std::pair<uint64_t, uint64_t>> tasks(num_tasks);
  for (uint64_t t = 0; t < num_tasks; ++t) {
    tasks[t] = {t * num_shards / num_tasks, (t + 1) * num_shards / num_tasks};
  }

  // Dispatch state. Completed results are folded by this thread strictly
  // in task order — contiguous ascending ranges, so fold order equals
  // file order and the result cannot depend on scheduling.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<uint64_t> queue;
  for (uint64_t t = 0; t < num_tasks; ++t) {
    queue.push_back(t);
  }
  std::vector<std::optional<LaneResult>> results(num_tasks);
  uint64_t completed = 0;
  size_t live_lanes = num_lanes;
  bool aborted = false;
  Status abort_status;

  // Per-lane tallies behind the dist.worker<w>.* gauges.
  struct LaneProgress {
    obs::Gauge* assigned_gauge;
    obs::Gauge* done_gauge;
    obs::Gauge* bytes_gauge;
    obs::Gauge* rows_gauge;
    uint64_t assigned = 0;
    uint64_t done = 0;
    uint64_t bytes = 0;
    uint64_t rows = 0;
  };
  std::vector<LaneProgress> progress;
  progress.reserve(num_lanes);
  for (size_t w = 0; w < num_lanes; ++w) {
    progress.push_back({LaneGauge(w, "shards_assigned"), LaneGauge(w, "shards_done"),
                        LaneGauge(w, "bytes"), LaneGauge(w, "rows")});
  }

  // Takes one task for lane `w`, waiting while other lanes hold the rest,
  // runs it and files the outcome. Returns false once the lane is done:
  // no task is left, the run aborted, or this task failed.
  auto pump_one = [&](size_t w) -> bool {
    ShardLane& lane = *lanes[w];
    LaneProgress& tally = progress[w];
    uint64_t task;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !queue.empty() || completed == num_tasks || aborted; });
      if (completed == num_tasks || aborted) {
        return false;
      }
      // The queue head: every task seeks to its own bytes, so any lane runs
      // any task at the same cost, and taking them in order lets the fold
      // below keep pace with the replies.
      task = queue.front();
      queue.pop_front();
    }
    const auto [begin, end] = tasks[task];
    tally.assigned += end - begin;
    tally.assigned_gauge->Set(static_cast<double>(tally.assigned));
    LaneResult result;
    {
      obs::ScopedSpan dispatch_span("dist/dispatch");
      if (dispatch_span.active()) {
        dispatch_span.Arg("worker", static_cast<int64_t>(w))
            .Arg("task", static_cast<int64_t>(task))
            .Arg("begin", static_cast<int64_t>(begin))
            .Arg("end", static_cast<int64_t>(end));
      }
      try {
        result = lane.Summarize(reader.index().Range(begin, end));
      } catch (const std::exception& e) {
        // Nothing may escape a pump thread; the run fails instead.
        result = {LaneResult::Kind::kFatal,
                  InternalError(std::string("shard lane failed: ") + e.what())};
      }
      if (dispatch_span.active()) {
        dispatch_span.Arg("bytes", static_cast<int64_t>(result.bytes));
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    if (result.kind == LaneResult::Kind::kOk) {
      tally.done += end - begin;
      tally.bytes += result.bytes;
      tally.rows += result.range.rows;
      tally.done_gauge->Set(static_cast<double>(tally.done));
      tally.bytes_gauge->Set(static_cast<double>(tally.bytes));
      tally.rows_gauge->Set(static_cast<double>(tally.rows));
      results[task] = std::move(result);
      ++completed;
      obs::Heartbeat("dist.task_done", static_cast<int64_t>(completed));
      cv.notify_all();
      return true;
    }
    // Retry earliest-first so the in-order fold unblocks soonest.
    queue.push_front(task);
    if (result.kind == LaneResult::Kind::kLost) {
      tasks_retried->Add();
      lanes_lost->Add();
      lanes_live_gauge->Set(static_cast<double>(--live_lanes));
      lane.Kill();
      result.status = UnavailableError("all workers lost with work outstanding; last failure: " +
                                       result.status.ToString());
    }
    if (!aborted && (result.kind == LaneResult::Kind::kFatal || live_lanes == 0)) {
      aborted = true;
      abort_status = result.status;
    }
    cv.notify_all();
    return false;
  };

  // A single lane runs on this thread, one task before each fold. A pump
  // thread would only hand it the tasks and wait, and a thread started per
  // run takes its heap from whichever malloc arena an exited thread left
  // behind, so the pages a run touches would vary with what ran before it.
  const bool inline_lane = num_lanes == 1;
  std::vector<std::thread> pumps;
  if (!inline_lane) {
    pumps.reserve(num_lanes);
    for (size_t w = 0; w < num_lanes; ++w) {
      pumps.emplace_back([&, w] {
        while (pump_one(w)) {
        }
      });
    }
  }

  // Fold in task order as results land. Every lane checked its rows
  // against the index, so the folded total is the first pass's.
  std::vector<SummaryFold> folds(plan.components.size());
  uint64_t folded_rows = 0;
  for (uint64_t t = 0; t < num_tasks; ++t) {
    if (inline_lane) {
      pump_one(0);  // the queue head is task t
    }
    std::optional<LaneResult> result;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return results[t].has_value() || aborted; });
      if (!results[t].has_value()) {
        break;  // aborted
      }
      result = std::move(results[t]);
      results[t].reset();  // folded summaries free as we go
    }
    obs::ScopedSpan fold_span("dist/fold");
    if (fold_span.active()) {
      fold_span.Arg("task", static_cast<int64_t>(t))
          .Arg("rows", static_cast<int64_t>(result->range.rows));
    }
    for (size_t c = 0; c < plan.components.size(); ++c) {
      folds[c].Add(std::move(result->range.summaries[c]));
    }
    folded_rows += result->range.rows;
    // Tasks are contiguous from shard 0, so task t ends the folded prefix.
    progress_shards_done->MaxWith(static_cast<double>(tasks[t].second));
    progress_rows->MaxWith(static_cast<double>(folded_rows));
    obs::Heartbeat("core.shards_done", static_cast<int64_t>(tasks[t].second));
  }

  bool failed;
  {
    // Wake every pump that is still waiting for work.
    std::lock_guard<std::mutex> lock(mu);
    failed = aborted;
    cv.notify_all();
  }
  if (failed) {
    for (std::unique_ptr<ShardLane>& lane : lanes) {
      lane->Kill();  // unblocks pumps waiting on a response
    }
  }
  for (std::thread& pump : pumps) {
    pump.join();
  }
  lanes.clear();
  lanes_live_gauge->Set(0.0);
  if (failed) {
    return abort_status;
  }
  for (size_t c = 0; c < plan.components.size(); ++c) {
    if (std::optional<PairwiseShardSummary> folded = std::move(folds[c]).Take()) {
      plan.components[c].summary = std::move(*folded);
    }
  }
  return FinishShardedCheck(path, constraints, options, std::move(plan),
                            static_cast<size_t>(num_shards), folded_rows);
}

Result<ShardedCheckResult> ShardedCheckAll(const std::string& path,
                                           const std::vector<ApproximateSc>& constraints,
                                           const ShardedCheckOptions& options) {
  obs::ScopedSpan span("core/sharded_check_all");
  if (span.active()) {
    span.Arg("constraints", static_cast<int64_t>(constraints.size()))
        .Arg("shard_rows", static_cast<int64_t>(options.reader.shard_rows));
  }
  return RunShardedCheck(
      path, constraints, options,
      [&](const csv::ShardReader& pass1, const Table&,
          const std::vector<PairwiseShardSummary::Spec>& specs) -> Result<ShardLanes> {
        ShardLanes lanes;
        lanes.push_back(std::make_unique<InProcessLane>(
            ShardSource{path, options.reader, pass1.column_names(), pass1.numeric()}, specs));
        return lanes;
      });
}

}  // namespace scoded
