#ifndef SCODED_DISTRIBUTED_WORKER_H_
#define SCODED_DISTRIBUTED_WORKER_H_

#include "common/net.h"
#include "common/result.h"

namespace scoded::dist {

/// Serves coordinator requests over `conn` until the peer departs or asks
/// for shutdown. The protocol is framed JSON (serve/framing.h), one
/// response per request:
///
///  * {"op":"ping"} → {"ok":true} — liveness probe;
///  * {"op":"shutdown"} → {"ok":true}, then the loop returns — the clean
///    way a coordinator dismisses its fleet;
///  * {"op":"summarize", "path", "reader":{...}, "specs":[...],
///     "begin":B, "end":E} → summarises shards [B, E) with
///    SummarizeShardRange (core/sharded_check.h) on a reader of its own,
///    kept open across requests for the same file, and replies
///    {"ok":true, "shards":N, "rows":"R", "summaries":[...]} with each
///    summary in the exact integer wire form of WriteShardSummaryJson.
///
/// Per-request failures reply {"ok":false, "code", "message"} and keep
/// serving; only transport errors and shutdown end the loop. The worker
/// holds one wave of shards (plus its summaries) at a time, so its peak
/// RSS is bounded by shard size, not file size.
///
/// Returns OkStatus on clean shutdown or peer departure; a transport
/// error otherwise.
Status ServeWorker(net::TcpConn& conn);

}  // namespace scoded::dist

#endif  // SCODED_DISTRIBUTED_WORKER_H_
