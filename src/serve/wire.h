#ifndef SCODED_SERVE_WIRE_H_
#define SCODED_SERVE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "stats/shard_stats.h"
#include "table/schema.h"
#include "table/table.h"

namespace scoded::serve {

/// JSON encoding of schemas and row batches for the serve protocol.
///
/// The encoding is exact, not approximate: a batch decoded on the server
/// is bit-identical to the one the client gathered, so a streamed
/// session's statistics match a local `scoded monitor` run to the last
/// bit. Concretely:
///  * numeric cells travel at %.17g (JsonWriter::DoubleFull), which
///    round-trips every finite double through strtod, and JsonReader
///    parses it back to the same bits; non-finite values
///    travel as the strings "nan"/"inf"/"-inf"; nulls as JSON null;
///  * categorical columns travel as dictionary codes plus the dictionary
///    itself, preserving code assignment and first-appearance order
///    (re-encoding the strings server-side could not preserve nulls).

/// Appends `schema` as a JSON array value: [{"name": ..., "type":
/// "numeric"|"categorical"}, ...].
void WriteSchemaJson(const Schema& schema, JsonWriter& json);

/// Parses the array produced by WriteSchemaJson.
Result<Schema> ParseSchemaJson(const JsonValue& value);

/// Builds a zero-row table with `schema` — the prototype a StreamMonitor
/// validates constraints against before any rows exist.
Result<Table> EmptyTableForSchema(const Schema& schema);

/// Appends `batch` as a JSON object value:
///   {"rows": N, "columns": [{"name", "type", ...payload}, ...]}
void WriteBatchJson(const Table& batch, JsonWriter& json);

/// Reads one batch value, as WriteBatchJson writes it, from `reader`
/// straight into column storage, with no DOM. The whole value is read in
/// one pass whatever it holds, in any member order; the first of a
/// repeated key counts (as with JsonValue::Find), and unknown members and
/// members a column's type does not use are read and ignored. A JSON
/// syntax error stops the read and is left in reader.status(), which the
/// caller checks first: the result means nothing then. Otherwise the
/// result is the table, or the first rule the batch breaks:
///  * the batch must be an object with a `columns` array;
///  * column by column, once each column object closes: string `name` and
///    `type`; a numeric column's `values` array of numbers, nulls and the
///    non-finite tokens; a categorical column's `codes` and `dict` arrays,
///    dictionary entries that are strings and codes that are integers in
///    [-1, dict size - 1] (JsonInteger's rule);
///  * equal column lengths, then a numeric `rows`, if there is one, equal
///    to them.
Result<Table> ReadBatchJson(JsonReader& reader);

/// One request as the daemon reads it, in one pass over its text.
struct RequestJson {
  /// The request with every top-level member but "batch", as ParseJson
  /// would give it.
  JsonValue envelope;
  /// The first top-level "batch" member, read by ReadBatchJson. Its error,
  /// or this one when the request has no batch, is for the append_batch
  /// handler to report; other ops ignore it.
  Result<Table> batch = InvalidArgumentError("append_batch needs a batch object");
};

/// Reads a request payload. Fails only on a JSON syntax error, with the
/// status ParseJson gives for the same text.
Result<RequestJson> ReadRequestJson(std::string_view payload);

/// Binary form of PairwiseShardSummary snapshots: the body of a worker's
/// summarize reply (distributed/worker.h). Every value is a fixed-width
/// 64-bit little-endian word — no decimal strings, no float folding on
/// either side:
///
///   u64 rows                               the range's data rows
///   per summary:
///     i64 x, i64 y, u64 nz, nz × i64 z     spec columns
///     (nz + 2) × u64 role type             0 numeric, 1 categorical
///     per role: u64 size, then per value u64 length + bytes
///     i64 rows, u64 cells
///     cells × (nz + 2) × i64 keys, cells × i64 counts, cells × u64 first rows
///
/// The byte stream is cut into frames of at most kSummaryFrameBytes (a
/// value may straddle two), so no frame nears kMaxFrameBytes whatever the
/// number of cells.
inline constexpr size_t kSummaryFrameBytes = size_t{1} << 20;

/// Encodes `snapshots` with the range's row total, handing each frame to
/// `emit` as it fills; returns the first error `emit` reports.
Status WriteShardSummaryFrames(uint64_t rows,
                               const std::vector<PairwiseShardSummary::Snapshot>& snapshots,
                               const std::function<Status(std::string_view)>& emit);

/// One decoded reply body.
struct ShardSummaryFrames {
  uint64_t rows = 0;
  std::vector<PairwiseShardSummary::Snapshot> snapshots;
};

/// Decodes a body written by WriteShardSummaryFrames, one summary per spec
/// in `specs`, pulling frames from `next_frame` as bytes are needed (its
/// errors pass through). Each summary must carry its spec's columns, and
/// every count is checked before anything is sized by it: row totals,
/// dictionary sizes and cell counts against `max_rows`, the most rows the
/// range can hold. Strings grow only as their bytes arrive. An empty frame
/// or bytes left over after the last summary are kInvalidArgument.
/// Structural checks only; PairwiseShardSummary::FromSnapshot revalidates
/// every cell against the schema.
Result<ShardSummaryFrames> ReadShardSummaryFrames(
    const std::function<Result<std::string>()>& next_frame,
    const std::vector<PairwiseShardSummary::Spec>& specs, uint64_t max_rows);

}  // namespace scoded::serve

#endif  // SCODED_SERVE_WIRE_H_
