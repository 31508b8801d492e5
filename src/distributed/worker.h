#ifndef SCODED_DISTRIBUTED_WORKER_H_
#define SCODED_DISTRIBUTED_WORKER_H_

#include "common/net.h"
#include "common/result.h"

namespace scoded::dist {

/// Serves coordinator requests over `conn` until the peer departs (EOF:
/// the coordinator closed its end, exited or died). Requests are framed
/// JSON (serve/framing.h), one reply per request:
///
///  * {"op":"ping"} → {"ok":true} — liveness probe;
///  * {"op":"summarize", "path", "reader":{...}, "specs":[...],
///     "begin":B, "end":E} → summarises shards [B, E) with
///    SummarizeShardRange (core/sharded_check.h) on a reader of its own,
///    kept open across requests for the same file, and replies with the
///    frame {"ok":true, "shards":N, "summaries":K} followed by the K
///    summaries as binary frames (serve::WriteShardSummaryFrames).
///
/// Per-request failures reply {"ok":false, "code", "message"} and keep
/// serving; only transport errors and EOF end the loop. The worker holds
/// one wave of shards plus its range's summaries at a time, so its peak
/// RSS is bounded by shard size and distinct cells, not file size.
///
/// Returns OkStatus when the peer departs; a transport error otherwise.
Status ServeWorker(net::TcpConn& conn);

}  // namespace scoded::dist

#endif  // SCODED_DISTRIBUTED_WORKER_H_
