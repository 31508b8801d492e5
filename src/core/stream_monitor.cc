#include "core/stream_monitor.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scoded {

Result<StreamMonitor> StreamMonitor::Create(const Table& prototype,
                                            const std::vector<ApproximateSc>& constraints,
                                            StreamMonitorOptions options) {
  StreamMonitor stream;
  stream.monitors_.reserve(constraints.size());
  for (const ApproximateSc& asc : constraints) {
    SCODED_ASSIGN_OR_RETURN(ScMonitor monitor,
                            ScMonitor::Create(prototype, asc, options.test, options.monitor));
    stream.monitors_.push_back(std::move(monitor));
  }
  return stream;
}

Status StreamMonitor::Append(const Table& batch) {
  static obs::Counter* const batches_counter =
      obs::Metrics::Global().FindOrCreateCounter("core.monitor_stream_batches");
  static obs::Counter* const rows_counter =
      obs::Metrics::Global().FindOrCreateCounter("core.monitor_stream_rows");
  // Live progress for the /metrics endpoint: rows ingested so far, the
  // monitor fan-out width, and the smallest current p-value across the
  // group — a mid-run scrape answers "how far along and how hot".
  static obs::Gauge* const progress_rows =
      obs::Metrics::Global().FindOrCreateGauge("progress.rows_ingested");
  static obs::Gauge* const progress_monitors =
      obs::Metrics::Global().FindOrCreateGauge("progress.monitors");
  static obs::Gauge* const progress_min_p =
      obs::Metrics::Global().FindOrCreateGauge("progress.current_min_p");
  // All-or-nothing across the group: every monitor validates the batch
  // before any monitor ingests it (each ScMonitor::Append additionally
  // validates before mutating, so the fan-out below cannot half-apply).
  for (const ScMonitor& monitor : monitors_) {
    SCODED_RETURN_IF_ERROR(monitor.ValidateBatch(batch));
  }
  obs::ScopedSpan span("core/stream/append");
  if (span.active()) {
    span.Arg("rows", static_cast<int64_t>(batch.NumRows()));
    span.Arg("monitors", static_cast<int64_t>(monitors_.size()));
  }
  batches_counter->Add();
  rows_counter->Add(static_cast<int64_t>(batch.NumRows()));
  records_ += batch.NumRows();
  // Deterministic fan-out: monitors are independent, each processes the
  // whole batch serially, so any thread count gives bit-identical state.
  Status status = parallel::ParallelForStatus(
      0, monitors_.size(), 1, [&](size_t i) { return monitors_[i].Append(batch); });
  progress_rows->Set(static_cast<double>(records_));
  progress_monitors->Set(static_cast<double>(monitors_.size()));
  double min_p = 1.0;
  for (const ScMonitor& monitor : monitors_) {
    min_p = std::min(min_p, monitor.CurrentPValue());
  }
  progress_min_p->Set(min_p);
  obs::Heartbeat("core.stream_append", static_cast<int64_t>(records_));
  return status;
}

std::vector<StreamMonitor::ConstraintState> StreamMonitor::States() const {
  std::vector<ConstraintState> states;
  states.reserve(monitors_.size());
  for (const ScMonitor& monitor : monitors_) {
    ConstraintState state;
    state.constraint = monitor.constraint().sc.ToString();
    state.statistic = monitor.CurrentStatistic();
    state.p_value = monitor.CurrentPValue();
    state.violated = monitor.Violated();
    state.records = monitor.NumRecords();
    states.push_back(std::move(state));
  }
  return states;
}

bool StreamMonitor::AnyViolated() const {
  for (const ScMonitor& monitor : monitors_) {
    if (monitor.Violated()) {
      return true;
    }
  }
  return false;
}

}  // namespace scoded
