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
///  * {"op":"summarize", "path", "reader":{"shard_rows", "buffer_bytes",
///     "delimiter"}, "types":[...], "file_bytes", "specs":[...],
///     "begin_byte", "end_byte", "first_row", "rows"} → summarises the
///    byte range the coordinator's first pass indexed with
///    SummarizeShardRange (core/sharded_check.h): no first pass of its
///    own, a seek, and a parse of only the range's bytes, checked against
///    its rows, its end and the record width. Replies with the frame
///    {"ok":true, "summaries":K} followed by the K summaries as binary
///    frames (serve::WriteShardSummaryFrames).
///
/// Every number is range-checked (JsonInteger), and a range of no rows or
/// one that cannot be — inverted, past file_bytes, more rows of the
/// types' width than its bytes could delimit
/// (csv::ShardRangeReader::Open) — is refused before anything is opened or
/// sized. Per-request failures reply {"ok":false, "code", "message"} and
/// keep serving; only transport errors and EOF end the loop. The worker
/// holds one wave of shards plus its range's summaries at a time, so its
/// peak RSS is bounded by shard size and distinct cells, not file size.
///
/// Returns OkStatus when the peer departs; a transport error otherwise.
Status ServeWorker(net::TcpConn& conn);

}  // namespace scoded::dist

#endif  // SCODED_DISTRIBUTED_WORKER_H_
