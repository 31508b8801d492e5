#include "distributed/coordinator.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "serve/wire.h"
#include "table/csv_stream.h"

namespace scoded::dist {

namespace {

// The request prefix every task of one run shares: the file, the reader
// options and the component specs; Summarize appends the range.
std::string SummarizeRequestHead(const std::string& path, const csv::ShardReaderOptions& reader,
                                 const std::vector<PairwiseShardSummary::Spec>& specs) {
  JsonWriter json;
  json.BeginObject();
  json.Key("op").String("summarize");
  json.Key("path").String(path);
  json.Key("reader").BeginObject();
  json.Key("shard_rows").Uint(std::max<size_t>(1, reader.shard_rows));
  json.Key("buffer_bytes").Uint(std::max<size_t>(1, reader.buffer_bytes));
  json.Key("delimiter").String(std::string(1, reader.csv.delimiter));
  json.Key("has_header").Bool(reader.csv.has_header);
  json.Key("infer_types").Bool(reader.csv.infer_types);
  json.EndObject();
  json.Key("specs").BeginArray();
  for (const PairwiseShardSummary::Spec& spec : specs) {
    json.BeginObject();
    json.Key("x").Int(spec.x_col);
    json.Key("y").Int(spec.y_col);
    json.Key("z").BeginArray();
    for (int z : spec.z_cols) {
      json.Int(z);
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  return json.str();
}

// A lane backed by one worker channel. Anything that smells like a broken
// worker or transport — dead channel, deadline, torn or malformed frame,
// summaries that fail restoration — is kLost; a well-formed error
// envelope is the worker correctly reporting a problem retrying elsewhere
// cannot cure, so it is kFatal.
class ChannelLane : public ShardLane {
 public:
  ChannelLane(std::unique_ptr<WorkerChannel> channel, std::string request_head,
              int deadline_millis, const Table& schema,
              const std::vector<PairwiseShardSummary::Spec>& specs)
      : channel_(std::move(channel)),
        request_head_(std::move(request_head)),
        deadline_millis_(deadline_millis),
        schema_(schema),
        specs_(specs) {}

  // Dismisses the worker before its channel closes: fork/exec workers
  // inherit the coordinator's end of their own socket and of every
  // earlier worker's, so closing ours alone does not reach the worker as
  // EOF. On a killed channel the send fails at once; failures are not
  // errors, since teardown still reaps the worker.
  ~ChannelLane() override {
    if (channel_->Send("{\"op\":\"shutdown\"}").ok()) {
      (void)channel_->Receive(/*deadline_millis=*/2000);
    }
  }

  LaneResult Summarize(uint64_t begin, uint64_t end) override {
    std::string request = request_head_ + ",\"begin\":" + std::to_string(begin) +
                          ",\"end\":" + std::to_string(end) + "}";
    Status sent = channel_->Send(request);
    if (!sent.ok()) {
      return Lost(sent);
    }
    Result<std::string> payload = channel_->Receive(deadline_millis_);
    if (!payload.ok()) {
      if (payload.status().code() == StatusCode::kDeadlineExceeded) {
        channel_->Kill();  // a stalled worker keeps the socket open; cut it
      }
      return Lost(payload.status());
    }
    Result<JsonValue> response = ParseJson(*payload);
    if (!response.ok()) {
      return Lost(response.status());
    }
    const JsonValue* ok = response->Find("ok");
    if (ok == nullptr || !ok->is_bool()) {
      return Lost(InternalError("worker response has no ok field"));
    }
    if (!ok->bool_value) {
      const JsonValue* code = response->Find("code");
      const JsonValue* message = response->Find("message");
      return {LaneResult::Kind::kFatal,
              Status(code != nullptr && code->is_string() ? StatusCodeFromString(code->string_value)
                                                          : StatusCode::kInternal,
                     "worker: " + (message != nullptr && message->is_string()
                                       ? message->string_value
                                       : std::string("unspecified error")))};
    }
    const JsonValue* rows = response->Find("rows");
    const JsonValue* summaries = response->Find("summaries");
    if (rows == nullptr || !rows->is_string() || summaries == nullptr || !summaries->is_array()) {
      return Lost(InternalError("worker response is missing rows or summaries"));
    }
    Result<int64_t> range_rows = ParseCheckedInt(rows->string_value, 0, INT64_MAX, "worker rows");
    if (!range_rows.ok()) {
      return Lost(range_rows.status());
    }
    if (summaries->array.size() != specs_.size()) {
      return Lost(InternalError("worker returned " + std::to_string(summaries->array.size()) +
                                " summaries, expected " + std::to_string(specs_.size())));
    }
    LaneResult result{LaneResult::Kind::kOk};
    result.range.rows = static_cast<uint64_t>(*range_rows);
    result.bytes = payload->size();
    result.range.summaries.reserve(specs_.size());
    for (size_t c = 0; c < specs_.size(); ++c) {
      Result<PairwiseShardSummary::Snapshot> snapshot =
          serve::ParseShardSummaryJson(summaries->array[c]);
      if (!snapshot.ok()) {
        return Lost(snapshot.status());
      }
      const PairwiseShardSummary::Spec& want = specs_[c];
      if (snapshot->spec.x_col != want.x_col || snapshot->spec.y_col != want.y_col ||
          snapshot->spec.z_cols != want.z_cols) {
        return Lost(InternalError("worker summary answers the wrong component"));
      }
      if (snapshot->rows != *range_rows) {
        return Lost(InternalError("worker summaries disagree on the row count"));
      }
      Result<PairwiseShardSummary> restored =
          PairwiseShardSummary::FromSnapshot(schema_, *snapshot);
      if (!restored.ok()) {
        return Lost(restored.status());
      }
      result.range.summaries.push_back(std::move(*restored));
    }
    return result;
  }

  void Kill() override { channel_->Kill(); }

 private:
  static LaneResult Lost(Status status) { return {LaneResult::Kind::kLost, std::move(status)}; }

  std::unique_ptr<WorkerChannel> channel_;
  std::string request_head_;
  int deadline_millis_;
  const Table& schema_;
  const std::vector<PairwiseShardSummary::Spec>& specs_;
};

}  // namespace

Result<ShardedCheckResult> DistributedCheckAll(const std::string& path,
                                               const std::vector<ApproximateSc>& constraints,
                                               Substrate& substrate,
                                               const DistributedCheckOptions& options) {
  obs::ScopedSpan span("dist/check_all");
  if (span.active()) {
    span.Arg("constraints", static_cast<int64_t>(constraints.size()))
        .Arg("workers", static_cast<int64_t>(options.workers));
  }
  if (options.workers < 1) {
    return InvalidArgumentError("distributed check needs at least one worker");
  }
  return RunShardedCheck(
      path, constraints, options.base,
      [&](csv::ShardReader&, const Table& schema,
          const std::vector<PairwiseShardSummary::Spec>& specs) -> Result<ShardLanes> {
        std::string head = SummarizeRequestHead(path, options.base.reader, specs);
        ShardLanes lanes;
        for (size_t w = 0; w < static_cast<size_t>(options.workers); ++w) {
          SCODED_ASSIGN_OR_RETURN(std::unique_ptr<WorkerChannel> channel, substrate.Spawn(w));
          lanes.push_back(std::make_unique<ChannelLane>(std::move(channel), head,
                                                        options.deadline_millis, schema, specs));
        }
        return lanes;
      });
}

}  // namespace scoded::dist
