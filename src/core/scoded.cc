#include "core/scoded.h"

#include <atomic>
#include <optional>

#include "common/parallel.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/encoding_cache.h"

namespace scoded {

Scoded::Scoded(Table table, const ScodedOptions& options)
    : table_(std::move(table)), options_(options.test) {
  if (options.threads > 0) {
    parallel::SetThreads(options.threads);
  }
}

Result<StatisticalConstraint> Scoded::Parse(const std::string& text) const {
  SCODED_ASSIGN_OR_RETURN(StatisticalConstraint sc, ParseConstraint(text));
  // Validate against the schema eagerly so errors surface at parse time.
  SCODED_ASSIGN_OR_RETURN(BoundConstraint bound, BindConstraint(sc, table_));
  (void)bound;
  return sc;
}

Result<ViolationReport> Scoded::CheckViolation(const ApproximateSc& asc) const {
  return DetectViolation(table_, asc, options_);
}

Result<DrillDownResult> Scoded::DrillDown(const ApproximateSc& asc, size_t k,
                                          Strategy strategy) const {
  DrillDownOptions options;
  options.strategy = strategy;
  options.test = options_;
  return ::scoded::DrillDown(table_, asc, k, options);
}

Result<std::vector<size_t>> Scoded::RankRecords(const ApproximateSc& asc, size_t max_rank,
                                                Strategy strategy) const {
  DrillDownOptions options;
  options.strategy = strategy;
  options.test = options_;
  return RankSuspiciousRecords(table_, asc, max_rank, options);
}

Result<PartitionResult> Scoded::Partition(const ApproximateSc& asc,
                                          double max_removal_fraction) const {
  PartitionOptions options;
  options.max_removal_fraction = max_removal_fraction;
  options.test = options_;
  return PartitionDataset(table_, asc, options);
}

Result<ConsistencyReport> Scoded::CheckConstraintConsistency(
    const std::vector<StatisticalConstraint>& constraints) {
  return CheckConsistency(constraints);
}

Result<Scoded::BatchCheckResult> Scoded::CheckAll(
    const std::vector<ApproximateSc>& constraints) const {
  obs::ScopedSpan span("core/check_all");
  if (span.active()) {
    span.Arg("constraints", static_cast<int64_t>(constraints.size()));
  }
  // Live progress for the /metrics endpoint. constraints_checked is bumped
  // from pool workers, so MaxWith keeps it monotone under races; min-p is
  // folded serially below, in input order.
  static obs::Gauge* const progress_constraints_total =
      obs::Metrics::Global().FindOrCreateGauge("progress.constraints_total");
  static obs::Gauge* const progress_constraints =
      obs::Metrics::Global().FindOrCreateGauge("progress.constraints_checked");
  static obs::Gauge* const progress_min_p =
      obs::Metrics::Global().FindOrCreateGauge("progress.current_min_p");
  progress_constraints_total->Set(static_cast<double>(constraints.size()));
  progress_constraints->Set(0.0);
  progress_min_p->Set(1.0);
  BatchCheckResult out;
  SCODED_ASSIGN_OR_RETURN(out.consistency, CheckEnforceable(constraints));
  // One encoding cache for the whole batch: constraints referencing the
  // same columns (the common case — discovery emits overlapping SCs)
  // encode each (column, row set) once instead of once per constraint.
  ColumnEncodingCache cache;
  TestOptions batch_options = options_;
  batch_options.encoding_cache = &cache;
  // Check constraints in parallel; each writes its own slot, and the
  // fold below consumes the slots in input order, so reports, violation
  // counts and error selection match the serial run exactly.
  std::atomic<int64_t> checked{0};
  std::vector<std::optional<Result<ViolationReport>>> slots =
      parallel::ParallelMap<std::optional<Result<ViolationReport>>>(
          constraints.size(), /*grain=*/1, [&](size_t i) {
            std::optional<Result<ViolationReport>> slot(
                DetectViolation(table_, constraints[i], batch_options));
            int64_t done = checked.fetch_add(1, std::memory_order_relaxed) + 1;
            progress_constraints->MaxWith(static_cast<double>(done));
            obs::Heartbeat("core.constraint_checked", done);
            return slot;
          });
  out.reports.reserve(constraints.size());
  for (std::optional<Result<ViolationReport>>& slot : slots) {
    if (!slot->ok()) {
      return slot->status();
    }
    ViolationReport& report = slot->value();
    out.violations += report.violated ? 1 : 0;
    progress_min_p->MinWith(report.p_value);
    out.reports.push_back(std::move(report));
  }
  return out;
}

}  // namespace scoded
