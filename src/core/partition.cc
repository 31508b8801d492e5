#include "core/partition.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scoded {

namespace {

using internal::DrilldownEngine;
using internal::RemovalGoal;

bool ConstraintRestored(const ApproximateSc& asc, double p) {
  // ISC violated when p < α; DSC violated when p > α (Definition 5 and the
  // Sec. 6.2 usage). Restoration is the complement.
  return asc.sc.is_independence() ? p >= asc.alpha : p <= asc.alpha;
}

}  // namespace

Result<PartitionResult> PartitionDataset(const Table& table, const ApproximateSc& asc,
                                         const PartitionOptions& options) {
  if (options.max_removal_fraction < 0.0 || options.max_removal_fraction > 1.0) {
    return InvalidArgumentError("max_removal_fraction must lie in [0, 1]");
  }
  std::vector<size_t> rows(table.NumRows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = i;
  }
  std::vector<StatisticalConstraint> components = DecomposeToSingletons(asc.sc);
  if (components.size() != 1) {
    return UnimplementedError(
        "PartitionDataset currently requires singleton X and Y; decompose the constraint and "
        "partition per component");
  }
  SCODED_ASSIGN_OR_RETURN(BoundConstraint bound, BindConstraint(components[0], table));

  obs::ScopedSpan span("core/partition");
  PartitionResult result;
  std::unique_ptr<DrilldownEngine> engine;
  {
    obs::ScopedSpan build("core/partition/build_engine");
    SCODED_ASSIGN_OR_RETURN(
        engine, internal::MakeEngine(table, bound.x[0], bound.y[0], bound.z, rows, options.test));
  }
  result.initial_p = engine->CurrentPValue();
  RemovalGoal goal = asc.sc.is_independence() ? RemovalGoal::kReduceDependence
                                              : RemovalGoal::kIncreaseDependence;
  size_t budget = static_cast<size_t>(
      std::floor(options.max_removal_fraction * static_cast<double>(engine->AliveCount())));
  double p = result.initial_p;
  if (ConstraintRestored(asc, p)) {
    result.final_p = p;
    result.satisfied = true;
    return result;  // nothing to remove
  }
  obs::ScopedSpan greedy("core/partition/greedy");
  while (result.removed_rows.size() < budget && engine->AliveCount() > 0) {
    size_t removed = 0;
    if (!engine->SelectAndRemove(goal, &removed)) {
      break;
    }
    result.removed_rows.push_back(removed);
    p = engine->CurrentPValue();
    if (ConstraintRestored(asc, p)) {
      result.satisfied = true;
      break;
    }
  }
  result.final_p = p;
  static obs::Counter* const removals_counter =
      obs::Metrics::Global().FindOrCreateCounter("core.partition_removals");
  removals_counter->Add(static_cast<int64_t>(result.removed_rows.size()));
  return result;
}

Result<DrillDownResult> TopKViaPartitionOracle(const Table& table, const ApproximateSc& asc,
                                               size_t k, const PartitionOptions& options) {
  if (!asc.sc.is_independence()) {
    return UnimplementedError("TopKViaPartitionOracle demonstrates the reduction for ISCs");
  }
  if (k > table.NumRows()) {
    return InvalidArgumentError("k exceeds the row count");
  }
  // Partition size is monotone non-decreasing in α' for an ISC (restoring
  // p >= α' needs at least as many removals for larger α'), so binary
  // search α' for a partition of size exactly k. Floating-point α' values
  // between the achievable partition sizes are resolved by taking the
  // largest partition with size <= k and topping it up from the k-step
  // greedy (the prefix property of the K strategy makes this exact).
  double lo = 0.0;
  double hi = 1.0;
  PartitionOptions oracle = options;
  oracle.max_removal_fraction = 1.0;
  std::vector<size_t> best_rows;
  // Early-exit bookkeeping: the size function of α' is a step function, so
  // once probes on both sides of the interval keep reproducing the same
  // sizes the interval sits inside a single step boundary and no further
  // midpoint can reach k. A partition with size s < k is flat on
  // (α', final_p] (the greedy prefix achieves exactly p = final_p after s
  // removals), so the lower bound jumps straight to that step edge instead
  // of creeping toward it by halving.
  size_t prev_lo_size = SIZE_MAX;
  size_t prev_hi_size = SIZE_MAX;
  int stalled = 0;
  for (int iter = 0; iter < 40 && lo < hi && stalled < 2; ++iter) {
    double alpha = (lo + hi) / 2.0;
    SCODED_ASSIGN_OR_RETURN(PartitionResult part,
                            PartitionDataset(table, {asc.sc, alpha}, oracle));
    size_t size = part.removed_rows.size();
    if (size == k) {
      best_rows = part.removed_rows;
      break;
    }
    bool size_changed;
    if (size < k) {
      if (size > best_rows.size()) {
        best_rows = part.removed_rows;
      }
      if (!part.satisfied) {
        break;  // even the unbounded budget cannot remove k rows at any level
      }
      size_changed = size != prev_lo_size;
      prev_lo_size = size;
      lo = std::min(hi, std::max(alpha, part.final_p));
    } else {
      size_changed = size != prev_hi_size;
      prev_hi_size = size;
      hi = alpha;
    }
    stalled = size_changed ? 0 : stalled + 1;
  }
  DrillDownResult result;
  result.strategy_used = Strategy::kDirect;
  if (best_rows.size() < k) {
    // Top up via the greedy prefix (identical ordering to the oracle),
    // under the caller's α and test options — the oracle and the top-up
    // must share thread/cache configuration to stay prefix-consistent.
    DrillDownOptions drill;
    drill.strategy = Strategy::kDirect;
    drill.test = options.test;
    SCODED_ASSIGN_OR_RETURN(DrillDownResult direct, DrillDown(table, asc, k, drill));
    result.rows = std::move(direct.rows);
    result.initial_statistic = direct.initial_statistic;
    result.final_statistic = direct.final_statistic;
    result.initial_p = direct.initial_p;
    result.final_p = direct.final_p;
    return result;
  }
  result.rows = std::move(best_rows);
  return result;
}

}  // namespace scoded
