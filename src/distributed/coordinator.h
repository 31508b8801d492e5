#ifndef SCODED_DISTRIBUTED_COORDINATOR_H_
#define SCODED_DISTRIBUTED_COORDINATOR_H_

#include <string>
#include <vector>

#include "core/approximate_sc.h"
#include "core/sharded_check.h"
#include "distributed/substrate.h"

namespace scoded::dist {

/// Options for a coordinated multi-worker check. `base` carries the same
/// test/reader knobs as the single-process sharded checker — results are
/// bit-identical for any worker count, so everything that shapes the
/// statistics lives there, and only dispatch policy lives here.
struct DistributedCheckOptions {
  ShardedCheckOptions base;
  /// Worker channels to spawn. Must be >= 1.
  int workers = 2;
  /// Deadline for one worker response. A worker that exceeds it is killed
  /// and its task re-dispatched to a surviving worker. 0 waits forever.
  int deadline_millis = 600000;
};

/// The sharded-check driver (RunShardedCheck in core/sharded_check.h) over
/// one lane per worker spawned from `substrate`, after the driver's first
/// pass and plan succeed: each task travels as a summarize request, and
/// the summaries come back as exact integer binary frames
/// (serve::ReadShardSummaryFrames), so every report bit is identical to
/// ShardedCheckAll at any worker count.
///
/// A worker that dies (kUnavailable / kDataLoss), stalls past the deadline
/// (it is killed), or returns a response that fails validation (counts
/// past the task's row bound, spec match, row accounting, FromSnapshot's
/// invariants) is lost and its task retried;
/// nothing is folded before it validates. A well-formed error envelope
/// (bad file, Spearman refusal, file changed between passes) aborts the
/// run with that worker's status.
Result<ShardedCheckResult> DistributedCheckAll(const std::string& path,
                                               const std::vector<ApproximateSc>& constraints,
                                               Substrate& substrate,
                                               const DistributedCheckOptions& options = {});

}  // namespace scoded::dist

#endif  // SCODED_DISTRIBUTED_COORDINATOR_H_
