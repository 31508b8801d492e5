#ifndef SCODED_CORE_PARTITION_H_
#define SCODED_CORE_PARTITION_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "core/approximate_sc.h"
#include "core/drilldown.h"
#include "table/table.h"

namespace scoded {

/// Options for the dataset-partition search (Definition 6).
struct PartitionOptions {
  /// Upper bound on the removable fraction of the data. If the constraint
  /// cannot be restored within this budget, `satisfied` is false.
  double max_removal_fraction = 0.5;
  TestOptions test;
};

/// Result of the dataset-partition problem: a minimum-cardinality (greedy)
/// set of records whose removal restores the approximate SC.
struct PartitionResult {
  /// The dirty subset ΔD, in removal order.
  std::vector<size_t> removed_rows;
  /// p-value of D − ΔD under the engine's incremental approximation.
  double final_p = 1.0;
  /// Whether p(D − ΔD) reached the α side required by the constraint
  /// within the removal budget.
  bool satisfied = false;
  /// p-value before any removal.
  double initial_p = 1.0;
};

/// Solves the dataset-partition problem via its reduction to top-k
/// (Theorem 1): greedily remove best-to-remove records (the K strategy)
/// until the violation disappears — the removal count is the smallest k
/// whose top-k removal restores the constraint, because the K prefix for
/// k+1 extends the prefix for k.
Result<PartitionResult> PartitionDataset(const Table& table, const ApproximateSc& asc,
                                         const PartitionOptions& options = {});

/// The other direction of Theorem 1: solves the top-k contribution problem
/// using only a dataset-partition oracle. Binary-searches the significance
/// level α' until the partition removes exactly k records (the partition
/// size is monotone in α' for an ISC: a stricter level demands more
/// removals), then returns that removal set. The search exits early once
/// the α interval stops changing the partition size (the remaining
/// interval sits inside one step of the size function, so no further probe
/// can reach k); a greedy top-up under the caller's `asc` and
/// `options.test` completes the set when k is between achievable sizes.
/// Exists to demonstrate the mutual poly-time reduction; `DrillDown` is
/// the practical API. Requires a singleton, currently-independence SC.
Result<DrillDownResult> TopKViaPartitionOracle(const Table& table, const ApproximateSc& asc,
                                               size_t k, const PartitionOptions& options = {});

}  // namespace scoded

#endif  // SCODED_CORE_PARTITION_H_
