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
// share, and one in-process lane folds a finished task while it reads the
// next.
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

// Runs tasks in this process: the second pass streams from the driver's
// first-pass reader, and summaries reach the fold as objects. A file error
// would recur on any lane, so it is fatal.
class InProcessLane : public ShardLane {
 public:
  InProcessLane(ShardCursor cursor, std::vector<PairwiseShardSummary::Spec> specs)
      : cursor_(std::move(cursor)), specs_(std::move(specs)) {}

  LaneResult Summarize(uint64_t begin, uint64_t end) override {
    Result<ShardRangeSummary> range = SummarizeShardRange(cursor_, specs_, begin, end);
    if (!range.ok()) {
      return {LaneResult::Kind::kFatal, range.status()};
    }
    return {LaneResult::Kind::kOk, OkStatus(), std::move(*range)};
  }

 private:
  ShardCursor cursor_;
  std::vector<PairwiseShardSummary::Spec> specs_;
};

obs::Gauge* LaneGauge(size_t lane, const char* what) {
  return obs::Metrics::Global().FindOrCreateGauge("dist.worker" + std::to_string(lane) + "." +
                                                  what);
}

}  // namespace

Result<ShardRangeSummary> SummarizeShardRange(ShardCursor& cursor,
                                              const std::vector<PairwiseShardSummary::Spec>& specs,
                                              uint64_t begin, uint64_t end) {
  static obs::Counter* const shard_rows_counter =
      obs::Metrics::Global().FindOrCreateCounter("shard.rows");
  static obs::Counter* const shard_merges_counter =
      obs::Metrics::Global().FindOrCreateCounter("shard.merges");
  // The reader stays out of the cursor until the range succeeds, so a
  // failed range leaves none behind: its position would be unknown.
  std::optional<csv::ShardReader> open = std::move(cursor.reader);
  cursor.reader.reset();
  // Advancing an open reader costs only the range's own bytes; re-opening
  // re-runs the whole first pass and re-skips from row 0.
  if (!open.has_value() || cursor.next_shard > begin) {
    SCODED_ASSIGN_OR_RETURN(csv::ShardReader fresh,
                            csv::ShardReader::Open(cursor.path, cursor.options));
    open.emplace(std::move(fresh));
    cursor.next_shard = 0;
    cursor.row_offset = 0;
  }
  csv::ShardReader& reader = *open;
  SCODED_ASSIGN_OR_RETURN(Table schema, reader.EmptyTable());
  const uint64_t num_shards =
      (reader.num_data_rows() + cursor.options.shard_rows - 1) / cursor.options.shard_rows;
  if (end > num_shards) {
    return InvalidArgumentError("summarize range ends at shard " + std::to_string(end) +
                                " but the file has " + std::to_string(num_shards) +
                                " shards — changed since the coordinator read it?");
  }
  ShardRangeSummary out;
  out.summaries.reserve(specs.size());
  for (const PairwiseShardSummary::Spec& spec : specs) {
    SCODED_RETURN_IF_ERROR(ValidateSpec(spec, schema));
    out.summaries.emplace_back(schema, spec);
  }
  // Skip to the range start, tracking the true global row offset (every
  // shard before the last is full, but counting is cheaper to trust than
  // to assume).
  while (cursor.next_shard < begin) {
    SCODED_ASSIGN_OR_RETURN(std::optional<Table> shard, reader.Next());
    if (!shard.has_value()) {
      return DataLossError("file ran out before shard " + std::to_string(begin));
    }
    cursor.row_offset += shard->NumRows();
    ++cursor.next_shard;
  }
  // Read the range in waves: up to `wave` shards serially, every (shard,
  // spec) pair summarised on the pool, the partials folded serially in
  // (shard, spec) order — the fold order, and hence every result, is
  // thread-count independent.
  const size_t wave = std::max<size_t>(1, std::min<size_t>(parallel::Threads(), 4));
  while (cursor.next_shard < end) {
    std::vector<Table> shards;
    std::vector<uint64_t> offsets;
    const uint64_t first_index = cursor.next_shard;
    shards.reserve(wave);
    while (shards.size() < wave && cursor.next_shard < end) {
      obs::ScopedSpan read_span("core/shard_read");
      SCODED_ASSIGN_OR_RETURN(std::optional<Table> shard, reader.Next());
      if (!shard.has_value()) {
        return DataLossError("file ran out at shard " + std::to_string(cursor.next_shard));
      }
      if (read_span.active()) {
        read_span.Arg("shard_index", static_cast<int64_t>(cursor.next_shard))
            .Arg("rows", static_cast<int64_t>(shard->NumRows()))
            .Arg("row_offset", static_cast<int64_t>(cursor.row_offset));
      }
      offsets.push_back(cursor.row_offset);
      cursor.row_offset += shard->NumRows();
      ++cursor.next_shard;
      obs::Heartbeat("core.shard_read", static_cast<int64_t>(cursor.next_shard));
      shards.push_back(std::move(*shard));
    }
    obs::ScopedSpan wave_span("core/shard_summarize");
    if (wave_span.active()) {
      wave_span.Arg("shards", static_cast<int64_t>(shards.size()))
          .Arg("components", static_cast<int64_t>(specs.size()))
          .Arg("first_shard_index", static_cast<int64_t>(first_index))
          .Arg("rows_read", static_cast<int64_t>(cursor.row_offset - offsets.front()));
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
      out.summaries[t % specs.size()].Merge(partials[t]);
    }
    for (const Table& shard : shards) {
      shard_rows_counter->Add(static_cast<int64_t>(shard.NumRows()));
      out.rows += shard.NumRows();
    }
    shard_merges_counter->Add(static_cast<int64_t>(tasks));
  }
  if (cursor.next_shard == num_shards) {
    // The range reached the end of the file: drain the reader so its
    // second-pass byte/row accounting runs — a file rewritten mid-run
    // surfaces as kDataLoss here instead of a silently wrong summary.
    SCODED_ASSIGN_OR_RETURN(std::optional<Table> extra, reader.Next());
    if (extra.has_value()) {
      return DataLossError("file has more shards than the first pass saw");
    }
  } else {
    cursor.reader.emplace(std::move(*open));
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

  // Finish every component; components whose G-test needs the permutation
  // fallback get their row-order code vectors from a second pass.
  bool any_row_pass = false;
  for (ShardedComponent& state : components) {
    SCODED_ASSIGN_OR_RETURN(PairwiseShardSummary::FinishOutcome outcome,
                            state.summary.Finish(options.test));
    state.result = outcome.result;
    state.needs_row_pass = outcome.needs_row_pass;
    if (state.needs_row_pass) {
      state.permutation_strata.resize(state.summary.NumPermutationStrata());
      any_row_pass = true;
    }
  }
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

  // The first pass: the schema binds the constraints, the row count cuts
  // the shard range, and its validation is the reference every lane's
  // second pass must agree with.
  SCODED_ASSIGN_OR_RETURN(csv::ShardReader reader, csv::ShardReader::Open(path, options.reader));
  SCODED_ASSIGN_OR_RETURN(Table schema, reader.EmptyTable());
  const uint64_t num_rows = reader.num_data_rows();
  const uint64_t shard_rows = options.reader.shard_rows;  // Open rejects 0
  const uint64_t num_shards = (num_rows + shard_rows - 1) / shard_rows;
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

  std::vector<std::thread> pumps;
  pumps.reserve(num_lanes);
  for (size_t w = 0; w < num_lanes; ++w) {
    pumps.emplace_back([&, w] {
      ShardLane& lane = *lanes[w];
      obs::Gauge* const assigned_gauge = LaneGauge(w, "shards_assigned");
      obs::Gauge* const done_gauge = LaneGauge(w, "shards_done");
      obs::Gauge* const bytes_gauge = LaneGauge(w, "bytes");
      obs::Gauge* const rows_gauge = LaneGauge(w, "rows");
      uint64_t assigned = 0;
      uint64_t done = 0;
      uint64_t bytes = 0;
      uint64_t rows = 0;
      for (;;) {
        uint64_t task;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !queue.empty() || completed == num_tasks || aborted; });
          if (completed == num_tasks || aborted) {
            return;
          }
          // Prefer this lane's own contiguous block of tasks: a lane that
          // only ever advances through adjacent ranges streams the file
          // forward once, while interleaved pulls would make every lane
          // skip-read the gaps between its tasks. Falling back to the
          // queue head (stealing) keeps retries and stragglers moving.
          auto it = std::find_if(queue.begin(), queue.end(), [&](uint64_t t) {
            return t * num_lanes / num_tasks == w;
          });
          if (it == queue.end()) {
            it = queue.begin();
          }
          task = *it;
          queue.erase(it);
        }
        const auto [begin, end] = tasks[task];
        assigned += end - begin;
        assigned_gauge->Set(static_cast<double>(assigned));
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
            result = lane.Summarize(begin, end);
          } catch (const std::exception& e) {
            // Nothing may escape a pump thread; the run fails instead.
            result = {LaneResult::Kind::kFatal,
                      InternalError(std::string("shard lane failed: ") + e.what())};
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        if (result.kind == LaneResult::Kind::kOk) {
          done += end - begin;
          bytes += result.bytes;
          rows += result.range.rows;
          done_gauge->Set(static_cast<double>(done));
          bytes_gauge->Set(static_cast<double>(bytes));
          rows_gauge->Set(static_cast<double>(rows));
          results[task] = std::move(result);
          ++completed;
          obs::Heartbeat("dist.task_done", static_cast<int64_t>(completed));
          cv.notify_all();
          continue;
        }
        // Retry earliest-first so the in-order fold unblocks soonest.
        queue.push_front(task);
        if (result.kind == LaneResult::Kind::kLost) {
          tasks_retried->Add();
          lanes_lost->Add();
          lanes_live_gauge->Set(static_cast<double>(--live_lanes));
          lane.Kill();
          result.status = UnavailableError(
              "all workers lost with work outstanding; last failure: " +
              result.status.ToString());
        }
        if (!aborted && (result.kind == LaneResult::Kind::kFatal || live_lanes == 0)) {
          aborted = true;
          abort_status = result.status;
        }
        cv.notify_all();
        return;
      }
    });
  }

  // Fold in task order as results land.
  uint64_t folded_rows = 0;
  for (uint64_t t = 0; t < num_tasks; ++t) {
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
      plan.components[c].summary.Merge(result->range.summaries[c]);
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
  if (folded_rows != num_rows) {
    return DataLossError("folded " + std::to_string(folded_rows) + " rows but the file has " +
                         std::to_string(num_rows) + " — changed during the run?");
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
      [&](csv::ShardReader& reader, const Table&,
          const std::vector<PairwiseShardSummary::Spec>& specs) -> Result<ShardLanes> {
        ShardLanes lanes;
        lanes.push_back(std::make_unique<InProcessLane>(
            ShardCursor{path, options.reader, std::move(reader)}, specs));
        return lanes;
      });
}

}  // namespace scoded
