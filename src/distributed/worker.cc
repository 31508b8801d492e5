#include "distributed/worker.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "core/sharded_check.h"
#include "obs/trace.h"
#include "serve/framing.h"
#include "serve/wire.h"
#include "stats/shard_stats.h"
#include "table/csv_stream.h"

namespace scoded::dist {

namespace {

struct SummarizeRequest {
  ShardSource source;
  std::vector<PairwiseShardSummary::Spec> specs;
  csv::ShardRange range;
};

Result<uint64_t> MemberUint(const JsonValue& parent, const std::string& name) {
  const JsonValue* value = parent.Find(name);
  if (value == nullptr) {
    return InvalidArgumentError("summarize request needs a non-negative integer '" + name + "'");
  }
  SCODED_ASSIGN_OR_RETURN(int64_t parsed,
                          JsonInteger(*value, 0, INT64_MAX, "summarize request '" + name + "'"));
  return static_cast<uint64_t>(parsed);
}

Result<SummarizeRequest> ParseSummarizeRequest(const JsonValue& request) {
  SummarizeRequest out;
  const JsonValue* path = request.Find("path");
  if (path == nullptr || !path->is_string()) {
    return InvalidArgumentError("summarize request needs a string 'path'");
  }
  out.source.path = path->string_value;
  const JsonValue* reader = request.Find("reader");
  if (reader == nullptr || !reader->is_object()) {
    return InvalidArgumentError("summarize request needs a 'reader' object");
  }
  SCODED_ASSIGN_OR_RETURN(uint64_t shard_rows, MemberUint(*reader, "shard_rows"));
  SCODED_ASSIGN_OR_RETURN(uint64_t buffer_bytes, MemberUint(*reader, "buffer_bytes"));
  out.source.reader.shard_rows = static_cast<size_t>(shard_rows);
  out.source.reader.buffer_bytes = static_cast<size_t>(buffer_bytes);
  const JsonValue* delimiter = reader->Find("delimiter");
  if (delimiter == nullptr || !delimiter->is_string() || delimiter->string_value.size() != 1) {
    return InvalidArgumentError("reader options need a one-character 'delimiter'");
  }
  out.source.reader.csv.delimiter = delimiter->string_value[0];
  SCODED_ASSIGN_OR_RETURN(out.range.begin_byte, MemberUint(request, "begin_byte"));
  SCODED_ASSIGN_OR_RETURN(out.range.end_byte, MemberUint(request, "end_byte"));
  SCODED_ASSIGN_OR_RETURN(out.range.first_row, MemberUint(request, "first_row"));
  SCODED_ASSIGN_OR_RETURN(out.range.rows, MemberUint(request, "rows"));
  SCODED_ASSIGN_OR_RETURN(out.range.file_bytes, MemberUint(request, "file_bytes"));
  // A range of no rows is no task. The range reader checks the rest of the
  // range, and the types' width, before it opens the file or sizes anything.
  if (out.range.rows == 0) {
    return InvalidArgumentError("summarize range must hold rows");
  }
  const JsonValue* types = request.Find("types");
  if (types == nullptr || !types->is_array()) {
    return InvalidArgumentError("summarize request needs a 'types' array");
  }
  for (const JsonValue& type : types->array) {
    if (!type.is_string() || (type.string_value != "numeric" && type.string_value != "categorical")) {
      return InvalidArgumentError("column types must be \"numeric\" or \"categorical\"");
    }
    out.source.names.push_back("c" + std::to_string(out.source.names.size()));
    out.source.numeric.push_back(type.string_value == "numeric");
  }
  const JsonValue* specs = request.Find("specs");
  if (specs == nullptr || !specs->is_array()) {
    return InvalidArgumentError("summarize request needs a 'specs' array");
  }
  out.specs.reserve(specs->array.size());
  for (const JsonValue& spec : specs->array) {
    const JsonValue* x = spec.Find("x");
    const JsonValue* y = spec.Find("y");
    const JsonValue* z = spec.Find("z");
    if (x == nullptr || !x->is_number() || y == nullptr || !y->is_number() || z == nullptr ||
        !z->is_array()) {
      return InvalidArgumentError("component specs need numeric x, y and a z array");
    }
    PairwiseShardSummary::Spec parsed;
    SCODED_ASSIGN_OR_RETURN(int64_t x_col, JsonInteger(*x, 0, INT32_MAX, "component spec x"));
    SCODED_ASSIGN_OR_RETURN(int64_t y_col, JsonInteger(*y, 0, INT32_MAX, "component spec y"));
    parsed.x_col = static_cast<int>(x_col);
    parsed.y_col = static_cast<int>(y_col);
    parsed.z_cols.reserve(z->array.size());
    for (const JsonValue& col : z->array) {
      SCODED_ASSIGN_OR_RETURN(int64_t z_col, JsonInteger(col, 0, INT32_MAX, "component spec z"));
      parsed.z_cols.push_back(static_cast<int>(z_col));
    }
    out.specs.push_back(std::move(parsed));
  }
  return out;
}

std::string ErrorEnvelope(const Status& status) {
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(false);
  json.Key("code").String(StatusCodeToString(status.code()));
  json.Key("message").String(status.message());
  json.EndObject();
  return json.str();
}

// A failed range is answered with an error envelope; only a transport
// error is returned.
Status HandleSummarize(const JsonValue& request, net::TcpConn& conn) {
  Result<SummarizeRequest> req = ParseSummarizeRequest(request);
  if (!req.ok()) {
    return serve::WriteFrame(conn, ErrorEnvelope(req.status()));
  }
  obs::ScopedSpan span("dist/worker_summarize");
  if (span.active()) {
    span.Arg("begin_byte", static_cast<int64_t>(req->range.begin_byte))
        .Arg("end_byte", static_cast<int64_t>(req->range.end_byte))
        .Arg("rows", static_cast<int64_t>(req->range.rows))
        .Arg("specs", static_cast<int64_t>(req->specs.size()));
  }
  Result<ShardRangeSummary> range = SummarizeShardRange(req->source, req->specs, req->range);
  if (!range.ok()) {
    return serve::WriteFrame(conn, ErrorEnvelope(range.status()));
  }
  std::vector<PairwiseShardSummary::Snapshot> snapshots;
  snapshots.reserve(range->summaries.size());
  for (PairwiseShardSummary& summary : range->summaries) {
    snapshots.push_back(std::move(summary).ToSnapshot());
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  json.Key("summaries").Uint(snapshots.size());
  json.EndObject();
  SCODED_RETURN_IF_ERROR(serve::WriteFrame(conn, json.str()));
  return serve::WriteShardSummaryFrames(
      range->rows, snapshots, [&](std::string_view frame) { return serve::WriteFrame(conn, frame); });
}

}  // namespace

Status ServeWorker(net::TcpConn& conn) {
  for (;;) {
    Result<std::string> frame = serve::ReadFrame(conn);
    if (!frame.ok()) {
      // A departed coordinator is the normal end of a worker's life.
      return frame.status().code() == StatusCode::kUnavailable ? OkStatus() : frame.status();
    }
    Result<JsonValue> request = ParseJson(*frame);
    std::string op;
    if (request.ok()) {
      const JsonValue* op_value = request->Find("op");
      if (op_value != nullptr && op_value->is_string()) {
        op = op_value->string_value;
      }
    }
    if (request.ok() && op == "summarize") {
      SCODED_RETURN_IF_ERROR(HandleSummarize(*request, conn));
      continue;
    }
    std::string reply;
    if (!request.ok()) {
      reply = ErrorEnvelope(request.status());
    } else if (op == "ping") {
      reply = R"({"ok":true})";
    } else {
      reply = ErrorEnvelope(InvalidArgumentError("unknown op '" + op + "'"));
    }
    SCODED_RETURN_IF_ERROR(serve::WriteFrame(conn, reply));
  }
}

}  // namespace scoded::dist
