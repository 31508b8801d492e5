#include "core/sharded_check.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/parallel.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/shard_stats.h"

namespace scoded {

namespace {

// Mirrors the per-test counter updates of the IndependenceTest wrapper so
// global metrics look the same whichever execution path ran the test.
void RecordTestMetrics(const TestResult& test) {
  static obs::Counter* const tests_executed =
      obs::Metrics::Global().FindOrCreateCounter("stats.tests_executed");
  static obs::Counter* const tests_g =
      obs::Metrics::Global().FindOrCreateCounter("stats.tests_g");
  static obs::Counter* const tests_tau =
      obs::Metrics::Global().FindOrCreateCounter("stats.tests_tau");
  static obs::Counter* const tests_exact =
      obs::Metrics::Global().FindOrCreateCounter("stats.tests_exact");
  static obs::Counter* const tests_asymptotic =
      obs::Metrics::Global().FindOrCreateCounter("stats.tests_asymptotic");
  static obs::Counter* const rows_scanned =
      obs::Metrics::Global().FindOrCreateCounter("stats.rows_scanned");
  static obs::Counter* const strata_used =
      obs::Metrics::Global().FindOrCreateCounter("stats.strata_used");
  static obs::Counter* const strata_skipped =
      obs::Metrics::Global().FindOrCreateCounter("stats.strata_skipped");
  tests_executed->Add();
  rows_scanned->Add(test.n);
  strata_used->Add(static_cast<int64_t>(test.strata_used));
  strata_skipped->Add(static_cast<int64_t>(test.strata_skipped));
  (test.used_exact ? tests_exact : tests_asymptotic)->Add();
  (test.method == TestMethod::kTauTest ? tests_tau : tests_g)->Add();
}

}  // namespace

Result<ShardedCheckPlan> PrepareShardedCheck(const Table& schema,
                                             const std::vector<ApproximateSc>& constraints,
                                             const TestOptions& test) {
  ShardedCheckPlan plan;
  // Consistency first, exactly as Scoded::CheckAll.
  std::vector<const StatisticalConstraint*> scs;
  scs.reserve(constraints.size());
  for (const ApproximateSc& asc : constraints) {
    scs.push_back(&asc.sc);
  }
  SCODED_ASSIGN_OR_RETURN(plan.consistency, CheckConsistency(scs));
  if (!plan.consistency.consistent) {
    return InvalidArgumentError(
        "constraint set is inconsistent; resolve the conflicts before enforcement: " +
        (plan.consistency.conflicts.empty() ? std::string() : plan.consistency.conflicts[0]));
  }

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
      state.constraint_index = i;
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

  // Assemble one ViolationReport per constraint exactly as DetectViolation
  // does from its per-component test results.
  out.reports.reserve(constraints.size());
  for (size_t i = 0; i < constraints.size(); ++i) {
    const ApproximateSc& asc = constraints[i];
    ViolationReport report;
    report.alpha = asc.alpha;
    obs::PhaseTimer timer(&report.telemetry, "core/detect_violation");
    bool is_independence = asc.sc.is_independence();
    double decision_p = 1.0;
    bool have_component = false;
    auto [begin, end] = plan.component_range[i];
    for (size_t c = begin; c < end; ++c) {
      ShardedComponent& state = components[c];
      const TestResult& test = state.result;
      if (!have_component || test.p_value < decision_p) {
        decision_p = test.p_value;
        report.test = test;
        have_component = true;
      }
      ++report.telemetry.tests_executed;
      report.telemetry.rows_scanned += test.n;
      (test.used_exact ? report.telemetry.exact_tests : report.telemetry.asymptotic_tests) += 1;
      report.telemetry.strata_used += static_cast<int64_t>(test.strata_used);
      report.telemetry.strata_skipped += static_cast<int64_t>(test.strata_skipped);
      report.components.push_back(ComponentResult{state.component, test});
      RecordTestMetrics(test);
    }
    report.telemetry.AddCount("components", static_cast<int64_t>(end - begin));
    report.p_value = decision_p;
    report.violated = is_independence ? (decision_p < asc.alpha) : (decision_p > asc.alpha);
    timer.Stop();
    out.violations += report.violated ? 1 : 0;
    out.telemetry.Merge(report.telemetry);
    out.reports.push_back(std::move(report));
    progress_constraints->MaxWith(static_cast<double>(i + 1));
    progress_min_p->MinWith(decision_p);
    obs::Heartbeat("core.constraint_checked", static_cast<int64_t>(i + 1));
  }
  return out;
}

Result<ShardedCheckResult> ShardedCheckAll(const std::string& path,
                                           const std::vector<ApproximateSc>& constraints,
                                           const ShardedCheckOptions& options) {
  obs::ScopedSpan span("core/sharded_check_all");
  if (span.active()) {
    span.Arg("constraints", static_cast<int64_t>(constraints.size()))
        .Arg("shard_rows", static_cast<int64_t>(options.reader.shard_rows));
  }
  if (options.threads > 0) {
    parallel::SetThreads(options.threads);
  }
  static obs::Counter* const shard_rows_counter =
      obs::Metrics::Global().FindOrCreateCounter("shard.rows");
  static obs::Counter* const shard_merges_counter =
      obs::Metrics::Global().FindOrCreateCounter("shard.merges");
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

  SCODED_ASSIGN_OR_RETURN(csv::ShardReader reader,
                          csv::ShardReader::Open(path, options.reader));
  SCODED_ASSIGN_OR_RETURN(Table schema, reader.EmptyTable());
  size_t shard_rows_limit = std::max<size_t>(1, options.reader.shard_rows);
  progress_shards_total->Set(static_cast<double>(
      (reader.num_data_rows() + shard_rows_limit - 1) / shard_rows_limit));
  progress_rows_total->Set(static_cast<double>(reader.num_data_rows()));
  progress_shards_done->Set(0.0);
  progress_rows->Set(0.0);
  progress_constraints_total->Set(static_cast<double>(constraints.size()));
  progress_constraints->Set(0.0);
  progress_min_p->Set(1.0);

  SCODED_ASSIGN_OR_RETURN(ShardedCheckPlan plan,
                          PrepareShardedCheck(schema, constraints, options.test));
  std::vector<ShardedComponent>& components = plan.components;

  // Stream the file in waves: read up to `wave` shards serially, summarise
  // every (shard, component) pair on the pool, then fold the partial
  // summaries serially in (shard, component) order — the fold order, and
  // hence every result, is thread-count independent.
  const size_t wave = std::max<size_t>(1, std::min<size_t>(parallel::Threads(), 4));
  uint64_t row_offset = 0;
  size_t shards_read = 0;
  size_t shards_done = 0;
  while (true) {
    std::vector<Table> shards;
    std::vector<uint64_t> offsets;
    std::vector<size_t> indices;
    shards.reserve(wave);
    while (shards.size() < wave) {
      obs::ScopedSpan read_span("core/shard_read");
      SCODED_ASSIGN_OR_RETURN(std::optional<Table> shard, reader.Next());
      if (!shard.has_value()) {
        break;
      }
      if (read_span.active()) {
        read_span.Arg("shard_index", static_cast<int64_t>(shards_read))
            .Arg("rows", static_cast<int64_t>(shard->NumRows()))
            .Arg("row_offset", static_cast<int64_t>(row_offset));
      }
      offsets.push_back(row_offset);
      indices.push_back(shards_read);
      row_offset += shard->NumRows();
      ++shards_read;
      obs::Heartbeat("core.shard_read", static_cast<int64_t>(shards_read));
      shards.push_back(std::move(*shard));
    }
    if (shards.empty()) {
      break;
    }
    obs::ScopedSpan wave_span("core/shard_summarize");
    if (wave_span.active()) {
      wave_span.Arg("shards", static_cast<int64_t>(shards.size()))
          .Arg("components", static_cast<int64_t>(components.size()))
          .Arg("first_shard_index", static_cast<int64_t>(indices.front()))
          .Arg("rows_read",
               static_cast<int64_t>(row_offset - offsets.front()));
    }
    size_t tasks = shards.size() * components.size();
    std::vector<PairwiseShardSummary> partials =
        parallel::ParallelMap<PairwiseShardSummary>(tasks, /*grain=*/1, [&](size_t t) {
          size_t s = t / components.size();
          size_t c = t % components.size();
          // Per-(shard, component) span: --trace-out on an out-of-core
          // run shows which shard and component each task covered.
          obs::ScopedSpan task_span("core/shard_summarize_one");
          if (task_span.active()) {
            task_span.Arg("shard_index", static_cast<int64_t>(indices[s]))
                .Arg("component", static_cast<int64_t>(c))
                .Arg("rows", static_cast<int64_t>(shards[s].NumRows()))
                .Arg("row_offset", static_cast<int64_t>(offsets[s]));
          }
          return PairwiseShardSummary::FromShard(shards[s], components[c].spec, offsets[s]);
        });
    for (size_t t = 0; t < tasks; ++t) {
      components[t % components.size()].summary.Merge(partials[t]);
    }
    for (const Table& shard : shards) {
      shard_rows_counter->Add(static_cast<int64_t>(shard.NumRows()));
    }
    shard_merges_counter->Add(static_cast<int64_t>(tasks));
    shards_done += shards.size();
    progress_shards_done->MaxWith(static_cast<double>(shards_done));
    progress_rows->MaxWith(static_cast<double>(row_offset));
    obs::Heartbeat("core.shards_done", static_cast<int64_t>(shards_done));
  }

  return FinishShardedCheck(path, constraints, options, std::move(plan), shards_done,
                            row_offset);
}

}  // namespace scoded
