#ifndef SCODED_CORE_STREAM_MONITOR_H_
#define SCODED_CORE_STREAM_MONITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/approximate_sc.h"
#include "core/sc_monitor.h"
#include "stats/hypothesis.h"
#include "table/table.h"

namespace scoded {

/// Options shared by every monitor a StreamMonitor owns.
struct StreamMonitorOptions {
  TestOptions test;
  MonitorOptions monitor;
};

/// The streaming front door: one StreamMonitor owns an ScMonitor per
/// enforced constraint and fans each appended batch across all of them on
/// the worker pool (monitors are independent, so results are bit-identical
/// at any thread count). Batches are validated against every monitor
/// before any monitor mutates, so a rejected batch is a no-op for the
/// whole group — the batch either enters the stream state everywhere or
/// nowhere.
class StreamMonitor {
 public:
  /// Validates every constraint against the prototype schema; all-or-
  /// nothing (one invalid constraint fails the whole group).
  static Result<StreamMonitor> Create(const Table& prototype,
                                      const std::vector<ApproximateSc>& constraints,
                                      StreamMonitorOptions options = {});

  StreamMonitor(StreamMonitor&&) = default;
  StreamMonitor& operator=(StreamMonitor&&) = default;

  /// Appends all rows of `batch` to every monitor. Validation runs first
  /// against every monitor; on failure no monitor is mutated.
  Status Append(const Table& batch);

  size_t NumMonitors() const { return monitors_.size(); }
  /// Rows ingested (per batch, not per monitor).
  size_t NumRecords() const { return records_; }

  const ScMonitor& monitor(size_t i) const { return monitors_[i]; }

  /// Point-in-time snapshot of one constraint's stream state.
  struct ConstraintState {
    std::string constraint;
    double statistic = 0.0;
    double p_value = 1.0;
    bool violated = false;
    size_t records = 0;
  };
  std::vector<ConstraintState> States() const;

  /// True when any owned monitor currently reports a violation.
  bool AnyViolated() const;

 private:
  StreamMonitor() = default;

  std::vector<ScMonitor> monitors_;
  size_t records_ = 0;
};

}  // namespace scoded

#endif  // SCODED_CORE_STREAM_MONITOR_H_
