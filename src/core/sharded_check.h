#ifndef SCODED_CORE_SHARDED_CHECK_H_
#define SCODED_CORE_SHARDED_CHECK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "constraints/graphoid.h"
#include "core/approximate_sc.h"
#include "core/violation.h"
#include "stats/hypothesis.h"
#include "stats/shard_stats.h"
#include "table/csv_stream.h"

namespace scoded {

/// Options for the out-of-core batch checker.
struct ShardedCheckOptions {
  TestOptions test;
  /// CSV parsing, shard size, and read-buffer size (csv::ShardReader).
  csv::ShardReaderOptions reader;
};

/// Outcome of an out-of-core batch check; `reports` / `violations` /
/// `consistency` match Scoded::BatchCheckResult field for field.
struct ShardedCheckResult {
  ConsistencyReport consistency;
  std::vector<ViolationReport> reports;
  size_t violations = 0;
  /// Number of shards streamed and total data rows in the file.
  size_t shards = 0;
  uint64_t rows = 0;
};

/// Out-of-core equivalent of loading `path` with csv::ReadFile and running
/// Scoded::CheckAll: streams the file in bounded-size shards, folds one
/// mergeable PairwiseShardSummary per decomposed SC component
/// (stats/shard_stats.h), and finishes each summary into the exact test
/// result the in-memory path computes — same p-values bit for bit, same
/// reports, same violation decisions — with peak memory O(shard + cells)
/// instead of O(file). RunShardedCheck over one in-process lane on the
/// calling thread, which reads each task's range with SummarizeShardRange.
///
/// Unsupported in sharded form: `numeric_method = kSpearman` (row-order
/// float summation; returns Unimplemented).
Result<ShardedCheckResult> ShardedCheckAll(const std::string& path,
                                           const std::vector<ApproximateSc>& constraints,
                                           const ShardedCheckOptions& options = {});

/// One decomposed singleton component mid-stream: its summary accumulates
/// shard statistics until FinishShardedCheck turns it into a test result.
struct ShardedComponent {
  StatisticalConstraint component;
  PairwiseShardSummary::Spec spec;
  PairwiseShardSummary summary;
  TestResult result;
  bool needs_row_pass = false;
  std::vector<PermutationStratum> permutation_strata;
};

/// The summarisation-independent front half of a sharded check, shared by
/// the single-process and distributed (coordinator/worker) checkers:
/// consistency, alpha validation, decomposition to singletons, constraint
/// binding against `schema` (a zero-row table with the file's schema, e.g.
/// ShardReader::EmptyTable()), and the Spearman pre-refusal. Component i
/// of constraint j lives at components[component_range[j].first ...).
struct ShardedCheckPlan {
  ConsistencyReport consistency;
  std::vector<ShardedComponent> components;
  std::vector<std::pair<size_t, size_t>> component_range;
};

Result<ShardedCheckPlan> PrepareShardedCheck(const Table& schema,
                                             const std::vector<ApproximateSc>& constraints,
                                             const TestOptions& test);

/// The shared back half: finishes every component summary, one per pool
/// task (re-streaming `path` for components whose G-test fell back to the
/// permutation null),
/// assembles one ViolationReport per constraint exactly as DetectViolation
/// would, and publishes the per-constraint progress gauges. `shards` and
/// `rows` report how much input the caller streamed.
Result<ShardedCheckResult> FinishShardedCheck(const std::string& path,
                                              const std::vector<ApproximateSc>& constraints,
                                              const ShardedCheckOptions& options,
                                              ShardedCheckPlan plan, size_t shards,
                                              uint64_t rows);

/// What a lane needs to parse any indexed range of a file on its own: the
/// path, the reader options and the first pass's column names and types.
struct ShardSource {
  std::string path;
  csv::ShardReaderOptions reader;
  std::vector<std::string> names;
  std::vector<bool> numeric;
};

struct ShardRangeSummary {
  std::vector<PairwiseShardSummary> summaries;  // one per spec
  uint64_t rows = 0;
};

/// Folds summaries of consecutive row runs, oldest first, into one. Two
/// neighbours covering equally many runs merge, as in a binary counter, so
/// a cell is copied O(log runs) times rather than once per later run.
/// Merging is associative, so the result equals the left fold.
class SummaryFold {
 public:
  void Add(PairwiseShardSummary summary);
  /// The fold of everything added, or nullopt when nothing was.
  std::optional<PairwiseShardSummary> Take() &&;

 private:
  struct Pending {
    PairwiseShardSummary summary;
    uint64_t runs = 0;
  };
  void MergeTop();
  std::vector<Pending> stack_;
};

/// The one routine that turns shard bytes into summaries, for the
/// in-process lane and `scoded worker` alike: parses `range` of the source
/// file alone (csv::ShardRangeReader, which checks the range's rows and
/// end and fails kDataLoss on a file changed since its first pass) and
/// summarises it, one summary per spec. Shards are read in waves of
/// ceil(parallel::Threads() / specs), at most 4, each (shard, spec) pair
/// summarised on the pool, and each spec's partials folded in shard order
/// through a SummaryFold. The range, the types and the specs are
/// validated: they may come off the wire.
Result<ShardRangeSummary> SummarizeShardRange(const ShardSource& source,
                                              const std::vector<PairwiseShardSummary::Spec>& specs,
                                              const csv::ShardRange& range);

/// One task's outcome. kLost: the lane broke (dead or stalled worker, bad
/// response), so the task is retried elsewhere and the lane retires.
/// kFatal: an error no retry can cure; the run aborts with `status`.
struct LaneResult {
  enum class Kind { kOk, kLost, kFatal };
  LaneResult(Kind kind = Kind::kLost, Status status = {}, ShardRangeSummary range = {})
      : kind(kind), status(std::move(status)), range(std::move(range)) {}
  Kind kind;
  Status status;
  ShardRangeSummary range;  // kOk: one summary per plan component
  uint64_t bytes = 0;       // payload bytes that crossed a wire
};

/// Summarises shard-range tasks for RunShardedCheck, one at a time, on a
/// pump thread of its own, or on the calling thread when it is the run's
/// only lane. Kill() comes from another thread when the lane is lost or
/// the run aborts and must unblock a Summarize in flight.
class ShardLane {
 public:
  virtual ~ShardLane() = default;
  virtual LaneResult Summarize(const csv::ShardRange& range) = 0;
  virtual void Kill() {}
};

using ShardLanes = std::vector<std::unique_ptr<ShardLane>>;
/// Gets the driver's first-pass reader (its index, names and types), the
/// file's zero-row table and one spec per plan component.
using ShardLaneFactory = std::function<Result<ShardLanes>(
    const csv::ShardReader& pass1, const Table& schema,
    const std::vector<PairwiseShardSummary::Spec>& specs)>;

/// The one sharded-check driver, behind ShardedCheckAll and
/// dist::DistributedCheckAll: first pass (which indexes the shards),
/// `progress.*` gauges and plan, and only then the lanes. [0, num_shards)
/// is cut into about 4 contiguous tasks per lane, each handed over as the
/// indexed byte range of its shards; each lane's pump takes the queue
/// head, so tasks finish roughly in the order they fold, and a single
/// lane runs on the calling thread, one task before each fold. Results fold strictly in task order
/// through one SummaryFold per component, so every report bit is the same
/// at any lane count. A lost lane's task is retried on the survivors
/// (kUnavailable once none is left); a fatal result aborts.
Result<ShardedCheckResult> RunShardedCheck(const std::string& path,
                                           const std::vector<ApproximateSc>& constraints,
                                           const ShardedCheckOptions& options,
                                           const ShardLaneFactory& make_lanes);

}  // namespace scoded

#endif  // SCODED_CORE_SHARDED_CHECK_H_
