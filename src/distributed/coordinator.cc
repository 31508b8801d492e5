#include "distributed/coordinator.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "obs/trace.h"
#include "serve/wire.h"
#include "table/csv_stream.h"

namespace scoded::dist {

namespace {

// The request prefix every task of one run shares: the file, the reader
// options, the first pass's column types and byte count, and the component
// specs; Summarize appends the task's byte range and rows.
std::string SummarizeRequestHead(const std::string& path, const csv::ShardReaderOptions& reader,
                                 const csv::ShardReader& pass1,
                                 const std::vector<PairwiseShardSummary::Spec>& specs) {
  JsonWriter json;
  json.BeginObject();
  json.Key("op").String("summarize");
  json.Key("path").String(path);
  json.Key("reader").BeginObject();
  json.Key("shard_rows").Uint(std::max<size_t>(1, reader.shard_rows));
  json.Key("buffer_bytes").Uint(std::max<size_t>(1, reader.buffer_bytes));
  json.Key("delimiter").String(std::string(1, reader.csv.delimiter));
  json.EndObject();
  json.Key("types").BeginArray();
  for (bool numeric : pass1.numeric()) {
    json.String(numeric ? "numeric" : "categorical");
  }
  json.EndArray();
  json.Key("file_bytes").Uint(pass1.index().file_bytes);
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
// cannot cure, so it is kFatal. Destroying the channel closes it, and the
// worker exits on the EOF: every socket is close-on-exec, so no other
// worker holds this one's coordinator end open.
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

  LaneResult Summarize(const csv::ShardRange& range) override {
    std::string request = request_head_ + ",\"begin_byte\":" + std::to_string(range.begin_byte) +
                          ",\"end_byte\":" + std::to_string(range.end_byte) +
                          ",\"first_row\":" + std::to_string(range.first_row) +
                          ",\"rows\":" + std::to_string(range.rows) + "}";
    Status sent = channel_->Send(request);
    if (!sent.ok()) {
      return Lost(sent);
    }
    uint64_t bytes = 0;
    auto receive = [&]() -> Result<std::string> {
      Result<std::string> payload = channel_->Receive(deadline_millis_);
      if (!payload.ok() && payload.status().code() == StatusCode::kDeadlineExceeded) {
        channel_->Kill();  // a stalled worker keeps the socket open; cut it
      }
      if (payload.ok()) {
        bytes += payload->size();
      }
      return payload;
    };
    Result<std::string> head = receive();
    if (!head.ok()) {
      return Lost(head.status());
    }
    Result<JsonValue> response = ParseJson(*head);
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
    const JsonValue* summaries = response->Find("summaries");
    if (summaries == nullptr) {
      return Lost(InternalError("worker response does not count its summaries"));
    }
    Result<int64_t> count = JsonInteger(*summaries, 0, INT64_MAX, "worker summaries");
    if (!count.ok()) {
      return Lost(count.status());
    }
    if (static_cast<uint64_t>(*count) != specs_.size()) {
      return Lost(InternalError("worker returned " + std::to_string(*count) +
                                " summaries, expected " + std::to_string(specs_.size())));
    }
    // The range's rows bound every count the body announces.
    Result<serve::ShardSummaryFrames> body =
        serve::ReadShardSummaryFrames(receive, specs_, range.rows);
    if (!body.ok()) {
      return Lost(body.status());
    }
    if (body->rows != range.rows) {
      return Lost(InternalError("worker summarised " + std::to_string(body->rows) +
                                " rows of a " + std::to_string(range.rows) + "-row range"));
    }
    LaneResult result{LaneResult::Kind::kOk};
    result.range.rows = body->rows;
    result.bytes = bytes;
    result.range.summaries.reserve(specs_.size());
    for (PairwiseShardSummary::Snapshot& snapshot : body->snapshots) {
      if (snapshot.rows != static_cast<int64_t>(body->rows)) {
        return Lost(InternalError("worker summaries disagree on the row count"));
      }
      Result<PairwiseShardSummary> restored =
          PairwiseShardSummary::FromSnapshot(schema_, std::move(snapshot));
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
      [&](const csv::ShardReader& pass1, const Table& schema,
          const std::vector<PairwiseShardSummary::Spec>& specs) -> Result<ShardLanes> {
        std::string head = SummarizeRequestHead(path, options.base.reader, pass1, specs);
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
