// Coordinator/worker distributed checking: report parity with the
// single-process sharded checker at any worker count and transport, and
// the fault matrix — workers that die mid-summary, return torn frames,
// or stall past the deadline are retried against survivors to a
// byte-identical report; runs with no survivors fail Unavailable (never
// hang, never fold a partial result); well-formed worker error envelopes
// abort with the worker's own status.

#include "distributed/coordinator.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "core/sharded_check.h"
#include "distributed/substrate.h"
#include "serve/wire.h"
#include "table/csv.h"
#include "table/csv_stream.h"

namespace scoded {
namespace {

// Renders the decision-relevant surface of a report the way `scoded check`
// prints it, so "identical reports" means the string a user would see.
std::string FormatReport(const ApproximateSc& asc, const ViolationReport& report) {
  char line[256];
  std::snprintf(line, sizeof(line), "%s: %s (p = %.17g, statistic = %.17g, method = %s, n = %lld)",
                asc.sc.ToString().c_str(), report.violated ? "VIOLATED" : "holds", report.p_value,
                report.test.statistic, std::string(TestMethodToString(report.test.method)).c_str(),
                static_cast<long long>(report.test.n));
  std::string out = line;
  for (const ComponentResult& part : report.components) {
    std::snprintf(line, sizeof(line), " | %s p=%.17g stat=%.17g dof=%lld n=%lld exact=%d",
                  part.component.ToString().c_str(), part.test.p_value, part.test.statistic,
                  static_cast<long long>(part.test.dof), static_cast<long long>(part.test.n),
                  part.test.used_exact ? 1 : 0);
    out += line;
  }
  return out;
}

// Wraps a real channel and injects one class of fault into the first
// `faults` summarize responses, after which it behaves perfectly — the
// shape of a worker that died or wedged partway through the run.
class FaultChannel : public dist::WorkerChannel {
 public:
  enum class Mode {
    kDie,       // response lost, connection reads as closed (kUnavailable)
    kTear,      // frame torn mid-payload (kDataLoss at the framing layer)
    kTruncate,  // frame delivered but the JSON payload is cut short
    kStall,     // no bytes until the deadline expires (kDeadlineExceeded)
    kBadOp,     // request corrupted; the worker answers an error envelope
  };

  FaultChannel(std::unique_ptr<dist::WorkerChannel> inner, Mode mode, int faults)
      : inner_(std::move(inner)), mode_(mode), faults_left_(faults) {}

  Status Send(std::string_view payload) override {
    if (mode_ == Mode::kBadOp && faults_left_ > 0 &&
        payload.find("summarize") != std::string_view::npos) {
      --faults_left_;
      return inner_->Send("{\"op\":\"frobnicate\"}");
    }
    return inner_->Send(payload);
  }

  Result<std::string> Receive(int deadline_millis) override {
    Result<std::string> payload = inner_->Receive(deadline_millis);
    if (faults_left_ <= 0 || !payload.ok() ||
        payload->find("summaries") == std::string::npos) {
      return payload;
    }
    --faults_left_;
    switch (mode_) {
      case Mode::kDie:
        return UnavailableError("injected: worker process died");
      case Mode::kTear:
        return DataLossError("injected: connection torn mid-frame");
      case Mode::kTruncate:
        return payload->substr(0, payload->size() / 2);
      case Mode::kStall:
        return DeadlineExceededError("injected: worker produced no bytes");
      case Mode::kBadOp:
        break;
    }
    return payload;
  }

  void Kill() override { inner_->Kill(); }
  int64_t pid() const override { return inner_->pid(); }

 private:
  std::unique_ptr<dist::WorkerChannel> inner_;
  Mode mode_;
  int faults_left_;
};

// In-process fleet where the listed worker indices are faulty.
class FaultSubstrate : public dist::Substrate {
 public:
  FaultSubstrate(FaultChannel::Mode mode, std::vector<size_t> faulty_workers, int faults = 1)
      : mode_(mode), faulty_(std::move(faulty_workers)), faults_(faults) {}

  Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t worker_index) override {
    SCODED_ASSIGN_OR_RETURN(std::unique_ptr<dist::WorkerChannel> channel,
                            inner_.Spawn(worker_index));
    for (size_t w : faulty_) {
      if (w == worker_index) {
        return std::unique_ptr<dist::WorkerChannel>(
            new FaultChannel(std::move(channel), mode_, faults_));
      }
    }
    return channel;
  }

 private:
  dist::InProcessSubstrate inner_;
  FaultChannel::Mode mode_;
  std::vector<size_t> faulty_;
  int faults_;
};

class DistributedCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/distributed_check_test.csv";
    Rng rng(97);
    std::ofstream out(path_);
    ASSERT_TRUE(out.good());
    out << "Model,Color,Price,Mileage\n";
    const char* models[] = {"civic", "corolla", "focus", "golf", "a4"};
    const char* colors[] = {"red", "blue", "white", "black"};
    for (int i = 0; i < 900; ++i) {
      int64_t m = rng.UniformInt(0, 4);
      int64_t c = rng.UniformInt(0, 9) < 4 ? m % 4 : rng.UniformInt(0, 3);
      if (rng.UniformInt(0, 49) == 0) {
        out << "";  // ~2% nulls keep the null-cell wire path honest
      } else {
        out << models[m];
      }
      out << ',' << colors[c] << ',';
      if (rng.UniformInt(0, 49) == 1) {
        out << "";
      } else {
        out << (1000 + m * 250 + rng.UniformInt(0, 400));
      }
      out << ',' << rng.UniformInt(0, 120000) << '\n';
    }
    out.close();

    constraints_.push_back({MustParse("Model _||_ Color"), 0.05});
    constraints_.push_back({MustParse("Model !_||_ Price"), 0.3});
    constraints_.push_back({MustParse("Price _||_ Mileage | Model"), 0.05});
  }

  void TearDown() override { std::remove(path_.c_str()); }

  static StatisticalConstraint MustParse(const std::string& text) {
    Result<StatisticalConstraint> sc = ParseConstraint(text);
    EXPECT_TRUE(sc.ok()) << sc.status().message();
    return std::move(sc).value();
  }

  ShardedCheckOptions BaseOptions() const {
    ShardedCheckOptions options;
    options.reader.shard_rows = 64;
    return options;
  }

  std::vector<std::string> Lines(const ShardedCheckResult& result) const {
    std::vector<std::string> lines;
    for (size_t i = 0; i < result.reports.size(); ++i) {
      lines.push_back(FormatReport(constraints_[i], result.reports[i]));
    }
    return lines;
  }

  std::vector<std::string> SingleProcessLines() {
    Result<ShardedCheckResult> result = ShardedCheckAll(path_, constraints_, BaseOptions());
    EXPECT_TRUE(result.ok()) << result.status().message();
    return Lines(*result);
  }

  std::string path_;
  std::vector<ApproximateSc> constraints_;
};

TEST_F(DistributedCheckTest, MatchesSingleProcessAtAnyWorkerCount) {
  std::vector<std::string> expected = SingleProcessLines();
  for (int workers : {1, 2, 4}) {
    dist::InProcessSubstrate substrate;
    dist::DistributedCheckOptions options;
    options.base = BaseOptions();
    options.workers = workers;
    Result<ShardedCheckResult> result =
        dist::DistributedCheckAll(path_, constraints_, substrate, options);
    ASSERT_TRUE(result.ok()) << "workers=" << workers << ": " << result.status().message();
    EXPECT_EQ(result->rows, uint64_t{900});
    EXPECT_EQ(result->shards, size_t{(900 + 63) / 64});
    EXPECT_EQ(Lines(*result), expected) << "workers=" << workers;
  }
}

TEST_F(DistributedCheckTest, MoreWorkersThanTasksStillFolds) {
  std::vector<std::string> expected = SingleProcessLines();
  dist::InProcessSubstrate substrate;
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.base.reader.shard_rows = 900;  // one shard, one task
  options.workers = 4;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  // Different shard size, same data: decisions and p-values agree with the
  // 64-row sharding because summaries are exact.
  EXPECT_EQ(Lines(*result), expected);
}

TEST_F(DistributedCheckTest, RetriesWorkerDeathToIdenticalReport) {
  std::vector<std::string> expected = SingleProcessLines();
  for (FaultChannel::Mode mode : {FaultChannel::Mode::kDie, FaultChannel::Mode::kTear,
                                  FaultChannel::Mode::kTruncate}) {
    FaultSubstrate substrate(mode, {0});
    dist::DistributedCheckOptions options;
    options.base = BaseOptions();
    options.workers = 2;
    Result<ShardedCheckResult> result =
        dist::DistributedCheckAll(path_, constraints_, substrate, options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result->rows, uint64_t{900});
    EXPECT_EQ(Lines(*result), expected) << "mode=" << static_cast<int>(mode);
  }
}

TEST_F(DistributedCheckTest, RetriesStalledWorkerToIdenticalReport) {
  std::vector<std::string> expected = SingleProcessLines();
  FaultSubstrate substrate(FaultChannel::Mode::kStall, {0});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  options.deadline_millis = 30000;  // the stall is injected, not timed
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(Lines(*result), expected);
}

TEST_F(DistributedCheckTest, AllWorkersLostFailsUnavailableWithoutHanging) {
  // Every worker dies on its first summarize and the fleet never recovers:
  // the coordinator must give up with kUnavailable, not hang or return a
  // partial fold.
  FaultSubstrate substrate(FaultChannel::Mode::kDie, {0, 1, 2}, /*faults=*/1000);
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 3;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable) << result.status().ToString();
}

TEST_F(DistributedCheckTest, WorkerErrorEnvelopeAbortsWithItsStatus) {
  // A well-formed error envelope is the worker correctly reporting a
  // problem no retry can cure; the run aborts with the decoded status
  // instead of burning through the fleet.
  FaultSubstrate substrate(FaultChannel::Mode::kBadOp, {0, 1});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << result.status().ToString();
  EXPECT_NE(result.status().message().find("worker:"), std::string::npos)
      << result.status().ToString();
}

TEST_F(DistributedCheckTest, ZeroWorkersIsAUsageError) {
  dist::InProcessSubstrate substrate;
  dist::DistributedCheckOptions options;
  options.workers = 0;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DistributedCheckTest, MissingFileFailsBeforeSpawningWorkers) {
  // Substrate that refuses to spawn: proves the coordinator validates the
  // input before raising a fleet.
  class NoSpawn : public dist::Substrate {
   public:
    Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t) override {
      ADD_FAILURE() << "coordinator spawned a worker for a missing file";
      return InternalError("unreachable");
    }
  };
  NoSpawn substrate;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_ + ".nope", constraints_, substrate, {});
  EXPECT_FALSE(result.ok());
}

TEST_F(DistributedCheckTest, FileGrowingDuringTheRunIsDataLoss) {
  // Rows appended once the driver's first pass is done: the workers read
  // the longer file, so the folded row total disagrees with the driver's.
  class AppendOnFirstSpawn : public dist::Substrate {
   public:
    explicit AppendOnFirstSpawn(std::string path) : path_(std::move(path)) {}
    Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t worker_index) override {
      if (!appended_) {
        appended_ = true;
        std::ofstream out(path_, std::ios::app);
        for (int i = 0; i < 100; ++i) {
          out << "golf,red,1600,5000\n";
        }
      }
      return inner_.Spawn(worker_index);
    }

   private:
    std::string path_;
    bool appended_ = false;
    dist::InProcessSubstrate inner_;
  };
  AppendOnFirstSpawn substrate(path_);
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << result.status().ToString();
}

// A summarize request as ordered (member, raw JSON value) pairs, so a test
// can replace or drop one member.
using RequestMembers = std::vector<std::pair<std::string, std::string>>;

std::string RenderRequest(const RequestMembers& members) {
  std::string out = "{";
  for (const auto& [key, value] : members) {
    out += (out.size() > 1 ? ",\"" : "\"") + key + "\":" + value;
  }
  return out + "}";
}

void SetMember(RequestMembers& members, const std::string& key, const std::string& value) {
  for (auto& member : members) {
    if (member.first == key) {
      member.second = value;
      return;
    }
  }
  members.emplace_back(key, value);
}

// Sends one request on a fresh in-process worker and returns its parsed
// reply head. A summary body after an ok head is decoded against `specs`
// when given, and otherwise left unread.
JsonValue Exchange(const std::string& request,
                   const std::vector<PairwiseShardSummary::Spec>* specs = nullptr,
                   uint64_t max_rows = 0) {
  dist::InProcessSubstrate substrate;
  std::unique_ptr<dist::WorkerChannel> channel = substrate.Spawn(0).value();
  EXPECT_TRUE(channel->Send(request).ok());
  Result<std::string> reply = channel->Receive(10000);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString() << " for " << request;
  if (!reply.ok()) {
    return JsonValue();
  }
  Result<JsonValue> head = ParseJson(*reply);
  EXPECT_TRUE(head.ok()) << *reply;
  if (!head.ok()) {
    return JsonValue();
  }
  const JsonValue* ok = head->Find("ok");
  if (ok != nullptr && ok->is_bool() && ok->bool_value && specs != nullptr) {
    Result<serve::ShardSummaryFrames> body = serve::ReadShardSummaryFrames(
        [&]() { return channel->Receive(10000); }, *specs, max_rows);
    EXPECT_TRUE(body.ok()) << body.status().ToString() << " for " << request;
  }
  return std::move(*head);
}

// The error code of a reply head, "" for an ok reply; fails the test when
// the head is neither an ok reply nor a typed error envelope.
std::string ReplyCode(const JsonValue& head, const std::string& request) {
  const JsonValue* ok = head.Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    ADD_FAILURE() << "reply has no ok field for " << request;
    return "?";
  }
  if (ok->bool_value) {
    return "";
  }
  const JsonValue* code = head.Find("code");
  const JsonValue* message = head.Find("message");
  if (code == nullptr || !code->is_string() || message == nullptr || !message->is_string()) {
    ADD_FAILURE() << "error envelope without code and message for " << request;
    return "?";
  }
  return code->string_value;
}

RequestMembers ValidShapedRequest() {
  return {{"op", R"("summarize")"},
          {"path", R"("/nonexistent.csv")"},
          {"reader", R"({"shard_rows":64,"buffer_bytes":4096,"delimiter":","})"},
          {"types", R"(["categorical","categorical"])"},
          {"file_bytes", "1000"},
          {"specs", R"([{"x":0,"y":1,"z":[]}])"},
          {"begin_byte", "10"},
          {"end_byte", "100"},
          {"first_row", "0"},
          {"rows", "5"}};
}

TEST(DistributedWorkerTest, NonIntegralOrHugeRequestNumbersAreInvalidArgument) {
  // JSON numbers are doubles; a worker must reject 1.5 as a column and
  // 1e300 as a byte offset instead of casting them. Each request is valid
  // but for one member, and fails before the (missing) file is opened.
  const std::vector<std::pair<std::string, std::string>> breaks = {
      {"specs", R"([{"x":1.5,"y":0,"z":[]}])"},
      {"specs", R"([{"x":0,"y":1,"z":[2.5]}])"},
      {"begin_byte", "1e300"},
      {"end_byte", "-1"},
      {"first_row", "2.5"},
      {"rows", "1e19"},
      {"file_bytes", "-3"},
      {"reader", R"({"shard_rows":0.5,"buffer_bytes":4096,"delimiter":","})"},
      {"reader", R"({"shard_rows":64,"buffer_bytes":1e300,"delimiter":","})"},
      {"types", R"(["categorical","text"])"},
      {"types", "[]"},
      {"rows", "0"},
  };
  for (const auto& [key, value] : breaks) {
    RequestMembers members = ValidShapedRequest();
    SetMember(members, key, value);
    std::string request = RenderRequest(members);
    EXPECT_EQ(ReplyCode(Exchange(request), request), "InvalidArgument") << request;
  }
}

TEST(DistributedWorkerTest, RangesThatCannotBeAreInvalidArgument) {
  auto numeric_types = [](int columns) {
    std::string types = "[\"numeric\"";
    for (int i = 1; i < columns; ++i) {
      types += ",\"numeric\"";
    }
    return types + "]";
  };
  // The valid-shaped range is 90 bytes, which hold at most 91 / width
  // records of a width.
  const std::vector<std::vector<std::pair<std::string, std::string>>> breaks = {
      {{"begin_byte", "100"}, {"end_byte", "10"}},  // inverted
      {{"end_byte", "2000"}},                       // past the file's byte count
      {{"rows", "46"}},                             // 46 two-field rows need 91 bytes
      {{"first_row", "9223372036854775807"}},       // row indices past int64
      {{"types", numeric_types(100)}},              // 5 rows of 100 fields
      // Neither alone is too big for 90 bytes, their product is: a worker
      // that sized columns by both would reserve rows * width cells.
      {{"rows", "90"}, {"types", numeric_types(50)}},
  };
  for (const auto& members_break : breaks) {
    RequestMembers members = ValidShapedRequest();
    for (const auto& [key, value] : members_break) {
      SetMember(members, key, value);
    }
    std::string request = RenderRequest(members);
    EXPECT_EQ(ReplyCode(Exchange(request), request), "InvalidArgument") << request;
  }
}

class DistributedWorkerFileTest : public DistributedCheckTest {
 protected:
  // A valid request for shards [begin, end) of the fixture at 64 rows per
  // shard, with two components.
  RequestMembers ValidRequest(uint64_t begin, uint64_t end) {
    csv::ShardReaderOptions options;
    options.shard_rows = 64;
    csv::ShardReader reader = csv::ShardReader::Open(path_, options).value();
    csv::ShardRange range = reader.index().Range(begin, end);
    std::string types = "[";
    for (bool numeric : reader.numeric()) {
      types += std::string(types.size() > 1 ? "," : "") + (numeric ? "\"numeric\"" : "\"categorical\"");
    }
    return {{"op", R"("summarize")"},
            {"path", "\"" + path_ + "\""},
            {"reader", R"({"shard_rows":64,"buffer_bytes":4096,"delimiter":","})"},
            {"types", types + "]"},
            {"file_bytes", std::to_string(range.file_bytes)},
            {"specs", R"([{"x":0,"y":1,"z":[]},{"x":2,"y":3,"z":[0]}])"},
            {"begin_byte", std::to_string(range.begin_byte)},
            {"end_byte", std::to_string(range.end_byte)},
            {"first_row", std::to_string(range.first_row)},
            {"rows", std::to_string(range.rows)}};
  }

  const std::vector<PairwiseShardSummary::Spec> specs_ = {{0, 1, {}}, {2, 3, {0}}};
};

TEST_F(DistributedWorkerFileTest, RangesThatDoNotMatchTheFileAreDataLoss) {
  auto member = [](const RequestMembers& members, const std::string& key) {
    for (const auto& [k, v] : members) {
      if (k == key) {
        return std::stoull(v);
      }
    }
    return 0ull;
  };
  for (auto [begin, end] : {std::pair<uint64_t, uint64_t>{0, 3}, {5, 8}, {10, 15}}) {
    RequestMembers valid = ValidRequest(begin, end);
    std::string request = RenderRequest(valid);
    EXPECT_EQ(ReplyCode(Exchange(request, &specs_, 900), request), "") << request;
    const uint64_t end_byte = member(valid, "end_byte");
    const uint64_t rows = member(valid, "rows");
    const uint64_t file_bytes = member(valid, "file_bytes");
    const std::vector<std::pair<std::string, std::string>> breaks = {
        {"end_byte", std::to_string(end_byte - 1)},  // stops short of its last terminator
        {"rows", std::to_string(rows - 1)},          // fewer rows than its bytes hold
        {"rows", std::to_string(rows + 1)},          // more rows than its bytes hold
        // one column wider than the records
        {"types", R"(["categorical","categorical","numeric","numeric","numeric"])"},
        // Past the real end of file, though within the byte count it claims.
        {"file_bytes", std::to_string(file_bytes + 5000)},
    };
    for (const auto& [key, value] : breaks) {
      RequestMembers members = valid;
      SetMember(members, key, value);
      if (key == "file_bytes") {
        SetMember(members, "begin_byte", std::to_string(file_bytes + 10));
        SetMember(members, "end_byte", std::to_string(file_bytes + 4000));
      }
      std::string broken = RenderRequest(members);
      EXPECT_EQ(ReplyCode(Exchange(broken), broken), "DataLoss") << broken;
    }
  }
}

TEST_F(DistributedWorkerFileTest, MutatedSummarizeRequestsGetOkOrATypedError) {
  // A coordinator's request is untrusted input to a worker: every mutation
  // of a valid request is answered, with a summary or an error envelope,
  // and never crashes the worker or sizes anything past what the file holds
  // (the sanitizer job runs this loop too).
  const RequestMembers valid = ValidRequest(3, 9);
  const char* extremes[] = {"0",    "1",      "-1",   "1.5",  "1e300", "-1e300",
                            "9007199254740993",   "9223372036854775807",
                            "18446744073709551616", "null", "\"x\"", "[]", "{}", "true"};
  Rng rng(20261018);
  int answered_ok = 0;
  for (int iteration = 0; iteration < 300; ++iteration) {
    RequestMembers members = valid;
    size_t which = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(members.size()) - 1));
    std::string& value = members[which].second;
    int64_t kind = rng.UniformInt(0, 4);
    if (kind == 0) {  // an extreme or ill-typed value
      value = extremes[rng.UniformInt(0, static_cast<int64_t>(std::size(extremes)) - 1)];
    } else if (kind == 1 && !value.empty() && std::isdigit(static_cast<unsigned char>(value[0]))) {
      // a nearby integer: boundaries off by a little
      int64_t delta = rng.UniformInt(-64, 64);
      value = std::to_string(static_cast<int64_t>(std::stoull(value)) + delta);
    } else if (kind == 2 && !value.empty()) {  // a flipped bit
      size_t at = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(value.size()) - 1));
      value[at] = static_cast<char>(value[at] ^ (1 << rng.UniformInt(0, 6)));
    } else if (kind == 3) {  // a missing member
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(which));
    } else {  // a types array one column short or long
      SetMember(members, "types",
                rng.UniformInt(0, 1) == 0 ? R"(["categorical","categorical","numeric"])"
                                          : R"(["categorical","categorical","numeric","numeric","numeric"])");
    }
    bool specs_intact = false;
    for (const auto& [key, v] : members) {
      specs_intact = specs_intact || (key == "specs" && v == valid[5].second);
    }
    std::string request = RenderRequest(members);
    std::string code = ReplyCode(Exchange(request, specs_intact ? &specs_ : nullptr, 900), request);
    EXPECT_NE(code, "?") << request;
    answered_ok += code.empty() ? 1 : 0;
  }
  // Some mutations (a buffer size, say) leave the request valid; most do not.
  EXPECT_GT(answered_ok, 0);
  EXPECT_LT(answered_ok, 300);
}

// ---------------------------------------------------------------------------
// Real child processes: the fork/exec substrate against the installed-style
// binary, including a SIGKILL mid-run.
// ---------------------------------------------------------------------------

TEST(ProcessChannelTest, ChildIgnoringEofIsKilledAfterTheGracePeriod) {
  // The child never reads its socket, so closing the channel does not end
  // it: teardown must wait out the grace period, SIGKILL it, and reap it.
  dist::ForkExecSubstrate substrate("/bin/sh", {"-c", "exec sleep 30"});
  Result<std::unique_ptr<dist::WorkerChannel>> channel = substrate.Spawn(0);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  pid_t pid = static_cast<pid_t>((*channel)->pid());
  ASSERT_GT(pid, 0);
  auto start = std::chrono::steady_clock::now();
  channel->reset();
  double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GE(waited, 4.5) << "killed before the grace period ran out";
  EXPECT_LT(waited, 20.0) << "teardown waited for the child's own exit";
  // Reaped, so no zombie is left: the pid is no longer a child of ours.
  errno = 0;
  EXPECT_EQ(::waitpid(pid, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}


#ifdef SCODED_CLI_BIN

// Fork/exec substrate that SIGKILLs the chosen worker the moment it is
// spawned — by the time its first summarize lands, the process is gone and
// the coordinator sees the connection die mid-conversation.
class KillOnSpawnSubstrate : public dist::Substrate {
 public:
  explicit KillOnSpawnSubstrate(size_t victim)
      : inner_(SCODED_CLI_BIN, {"worker"}), victim_(victim) {}

  Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t worker_index) override {
    SCODED_ASSIGN_OR_RETURN(std::unique_ptr<dist::WorkerChannel> channel,
                            inner_.Spawn(worker_index));
    if (worker_index == victim_ && channel->pid() > 0) {
      ::kill(static_cast<pid_t>(channel->pid()), SIGKILL);
    }
    return channel;
  }

 private:
  dist::ForkExecSubstrate inner_;
  size_t victim_;
};

TEST_F(DistributedCheckTest, ForkWorkersMatchSingleProcess) {
  std::vector<std::string> expected = SingleProcessLines();
  dist::ForkExecSubstrate substrate(SCODED_CLI_BIN, {"worker"});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(Lines(*result), expected);
}

TEST_F(DistributedCheckTest, ForkWorkersAreDismissedWithoutWaitingOutTheGrace) {
  // Each worker is dismissed as soon as its lane is done, so teardown never
  // waits out the 5 s grace.
  dist::ForkExecSubstrate substrate(SCODED_CLI_BIN, {"worker"});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 3;
  auto start = std::chrono::steady_clock::now();
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_LT(waited, 4.0);
}

TEST_F(DistributedCheckTest, FailedSpawnDismissesTheWorkersAlreadyUp) {
  // A later spawn fails, so the run fails; the workers already up read EOF
  // when their channels close and are reaped at once, not after the 5 s
  // grace.
  class FailingSpawn : public dist::Substrate {
   public:
    explicit FailingSpawn(size_t fail_at) : fail_at_(fail_at) {}
    Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t worker_index) override {
      if (worker_index == fail_at_) {
        return UnavailableError("injected: spawn failed");
      }
      return inner_.Spawn(worker_index);
    }

   private:
    size_t fail_at_;
    dist::ForkExecSubstrate inner_{SCODED_CLI_BIN, {"worker"}};
  };
  for (size_t fail_at : {1, 2}) {
    FailingSpawn substrate(fail_at);
    dist::DistributedCheckOptions options;
    options.base = BaseOptions();
    options.workers = 3;
    auto start = std::chrono::steady_clock::now();
    Result<ShardedCheckResult> result =
        dist::DistributedCheckAll(path_, constraints_, substrate, options);
    double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    ASSERT_FALSE(result.ok()) << "fail_at=" << fail_at;
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable) << result.status().ToString();
    EXPECT_LT(waited, 4.0) << "fail_at=" << fail_at;
  }
}

TEST_F(DistributedCheckTest, TcpWorkersMatchSingleProcess) {
  std::vector<std::string> expected = SingleProcessLines();
  dist::TcpSubstrate substrate(SCODED_CLI_BIN, {"worker"});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(Lines(*result), expected);
}

TEST_F(DistributedCheckTest, SigkilledForkWorkerIsRetriedOnSurvivor) {
  std::vector<std::string> expected = SingleProcessLines();
  KillOnSpawnSubstrate substrate(/*victim=*/0);
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->rows, uint64_t{900});
  EXPECT_EQ(Lines(*result), expected);
}

TEST(DistributedContinuousTest, ForkWorkersMatchSingleProcessOnContinuousData) {
  // Continuous columns, where nearly every row is its own cell: negative
  // values, zeros of both signs and empty cells, a conditional τ on a
  // quantile-binned numeric z, and a numeric × categorical G.
  const std::string path = ::testing::TempDir() + "/distributed_continuous_test.csv";
  {
    Rng rng(33);
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << "D,N,Z,G\n";
    const char* groups[] = {"north", "south", "east"};
    for (int i = 0; i < 2400; ++i) {
      double d = rng.Uniform(-40.0, 40.0);
      double n = d * 0.25 + rng.Uniform(-12.0, 12.0);
      double z = rng.Uniform(-3.0, 3.0);
      int64_t pick = rng.UniformInt(0, 49);
      char line[160];
      std::snprintf(line, sizeof(line), "%s,%s,%.4f,%s\n",
                    pick == 0   ? "0"
                    : pick == 1 ? "-0"
                    : pick == 2 ? ""
                                : std::to_string(std::round(d * 1e4) / 1e4).c_str(),
                    pick == 3 ? "" : pick == 4 ? "-0.0" : std::to_string(n).c_str(), z,
                    pick == 5 ? "" : groups[rng.UniformInt(0, 2)]);
      out << line;
    }
  }
  std::vector<ApproximateSc> constraints;
  for (const char* text : {"D !_||_ N", "D _||_ N | Z", "G _||_ D", "N _||_ G | Z"}) {
    Result<StatisticalConstraint> sc = ParseConstraint(text);
    ASSERT_TRUE(sc.ok()) << sc.status().message();
    constraints.push_back({std::move(sc).value(), 0.05});
  }
  auto lines = [&](const ShardedCheckResult& result) {
    std::vector<std::string> out;
    for (size_t i = 0; i < result.reports.size(); ++i) {
      out.push_back(FormatReport(constraints[i], result.reports[i]));
    }
    return out;
  };
  ShardedCheckOptions base;
  base.reader.shard_rows = 128;
  Result<ShardedCheckResult> single = ShardedCheckAll(path, constraints, base);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  for (int workers : {1, 3}) {
    dist::ForkExecSubstrate substrate(SCODED_CLI_BIN, {"worker"});
    dist::DistributedCheckOptions options;
    options.base = base;
    options.workers = workers;
    Result<ShardedCheckResult> result =
        dist::DistributedCheckAll(path, constraints, substrate, options);
    ASSERT_TRUE(result.ok()) << "workers=" << workers << ": " << result.status().ToString();
    EXPECT_EQ(result->rows, uint64_t{2400});
    EXPECT_EQ(lines(*result), lines(*single)) << "workers=" << workers;
  }
  std::remove(path.c_str());
}

#ifndef SCODED_OBS_DISABLED
TEST(ProcessChannelTest, KilledWorkersLeaveNoUnwrittenReports) {
  // A worker pre-opens its flight-recorder reports in SCODED_CRASH_DIR; one
  // the coordinator SIGKILLs never disarms, so reaping it must unlink the
  // empty ones and keep any with content.
  std::string dir = ::testing::TempDir() + "/scoded_reap_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const char* old_dir = std::getenv("SCODED_CRASH_DIR");
  const std::string saved = old_dir != nullptr ? old_dir : "";
  ASSERT_EQ(::setenv("SCODED_CRASH_DIR", dir.c_str(), 1), 0);
  dist::ForkExecSubstrate substrate(SCODED_CLI_BIN, {"worker"});
  Result<std::unique_ptr<dist::WorkerChannel>> plain = substrate.Spawn(0);
  Result<std::unique_ptr<dist::WorkerChannel>> with_report = substrate.Spawn(1);
  if (old_dir != nullptr) {
    ::setenv("SCODED_CRASH_DIR", saved.c_str(), 1);
  } else {
    ::unsetenv("SCODED_CRASH_DIR");
  }
  ASSERT_TRUE(plain.ok() && with_report.ok());
  auto report = [&](const char* kind, const dist::WorkerChannel& channel) {
    return dir + "/scoded-" + kind + "-" + std::to_string(channel.pid()) + ".report";
  };
  auto exists = [](const std::string& file) { return ::access(file.c_str(), F_OK) == 0; };
  const std::vector<std::string> files = {
      report("crash", **plain), report("stall", **plain), report("crash", **with_report),
      report("stall", **with_report)};
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!std::all_of(files.begin(), files.end(), exists) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(std::all_of(files.begin(), files.end(), exists)) << "workers never armed";
  {
    std::ofstream evidence(files[2], std::ios::app);
    evidence << "kind: crash\n";
  }
  for (auto* channel : {&*plain, &*with_report}) {
    (*channel)->Kill();
    channel->reset();
  }
  EXPECT_FALSE(exists(files[0]));
  EXPECT_FALSE(exists(files[1]));
  EXPECT_TRUE(exists(files[2])) << "a report with content was unlinked";
  EXPECT_FALSE(exists(files[3]));
  for (const std::string& file : files) {
    std::remove(file.c_str());
  }
  ::rmdir(dir.c_str());
}
#endif  // SCODED_OBS_DISABLED

// Parsed /proc/<pid>/stat: the state letter and the parent pid, or
// state '\0' when the process is gone. Read with open/read, since a
// process that exits between the /proc scan and the read fails the read
// with ESRCH, which any failure here treats as "gone".
struct ProcStat {
  char state = '\0';
  pid_t ppid = 0;
};

ProcStat ReadProcStat(pid_t pid) {
  std::string text;
  int fd = ::open(("/proc/" + std::to_string(pid) + "/stat").c_str(), O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    char buf[512];
    ssize_t got = 0;
    while ((got = ::read(fd, buf, sizeof(buf))) > 0) {
      text.append(buf, static_cast<size_t>(got));
    }
    ::close(fd);
    if (got < 0) {
      text.clear();
    }
  }
  ProcStat stat;
  size_t paren = text.rfind(')');  // the command name may hold spaces
  if (paren != std::string::npos) {
    std::istringstream fields(text.substr(paren + 1));
    fields >> stat.state >> stat.ppid;
  }
  return stat;
}

// Live children of `parent`, from each process's parent pid (kernels built
// without CONFIG_PROC_CHILDREN have no /proc/<pid>/task/*/children).
std::vector<pid_t> ChildrenOf(pid_t parent) {
  std::vector<pid_t> children;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) {
    return children;
  }
  while (const dirent* entry = ::readdir(proc)) {
    pid_t pid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (pid > 0 && ReadProcStat(pid).ppid == parent) {
      children.push_back(pid);
    }
  }
  ::closedir(proc);
  return children;
}

// Running, as opposed to exited (gone) or exited but not yet reaped.
bool StillRunning(pid_t pid) {
  char state = ReadProcStat(pid).state;
  return state != '\0' && state != 'Z' && state != 'X';
}

std::vector<std::string> ReportFiles(const std::string& dir) {
  std::vector<std::string> reports;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name.rfind("scoded-", 0) == 0 && name.compare(name.size() - 7, 7, ".report") == 0) {
        reports.push_back(name);
      }
    }
    ::closedir(d);
  }
  return reports;
}

TEST(DistributedSignalTest, SigtermToCoordinatorLeavesNoWorkersAndNoReports) {
  // A coordinator killed mid-run must take its fleet with it: every worker
  // reads EOF on its channel and exits, and neither the coordinator nor a
  // worker leaves a pre-opened flight-recorder report behind.
  std::string dir = ::testing::TempDir() + "/scoded_sigterm_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string csv = dir + "/fleet.csv";
  {
    // Large enough that the run is still going once all four workers are up.
    Rng rng(7);
    std::ofstream out(csv);
    out << "zip,city,state\n";
    for (int i = 0; i < 400000; ++i) {
      int64_t zip = rng.UniformInt(10000, 10099);
      out << zip << ",city" << zip % 37 << ",st" << zip % 11 << '\n';
    }
    ASSERT_TRUE(out.good());
  }
  // Everything the child needs is built before the fork: it only makes
  // async-signal-safe calls before exec.
  std::vector<std::string> args = {SCODED_CLI_BIN, "check", "--csv", csv, "--sc", "zip !_||_ city",
                                   "--shard-rows", "5000", "--workers", "4"};
  std::vector<std::string> env = {"SCODED_CRASH_DIR=" + dir};
  for (char** var = environ; *var != nullptr; ++var) {
    if (std::string(*var).rfind("SCODED_CRASH_DIR=", 0) != 0) {
      env.push_back(*var);
    }
  }
  std::vector<char*> argv;
  std::vector<char*> envp;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  for (std::string& var : env) {
    envp.push_back(var.data());
  }
  argv.push_back(nullptr);
  envp.push_back(nullptr);
  pid_t coordinator = ::fork();
  ASSERT_GE(coordinator, 0);
  if (coordinator == 0) {
    int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  std::vector<pid_t> workers;
  int status = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (workers.size() < 4 && std::chrono::steady_clock::now() < deadline) {
    ASSERT_EQ(::waitpid(coordinator, &status, WNOHANG), 0)
        << "the check finished before its workers were all up";
    workers = ChildrenOf(coordinator);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (workers.size() != 4) {
    ::kill(coordinator, SIGKILL);
    ::waitpid(coordinator, &status, 0);
    FAIL() << "saw " << workers.size() << " workers in 30 s";
  }
  ASSERT_EQ(::kill(coordinator, SIGTERM), 0);
  ASSERT_EQ(::waitpid(coordinator, &status, 0), coordinator);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGTERM) << "wait status " << status;

  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto any_running = [&] {
    for (pid_t worker : workers) {
      if (StillRunning(worker)) {
        return true;
      }
    }
    return false;
  };
  while (any_running() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (pid_t worker : workers) {
    EXPECT_FALSE(StillRunning(worker)) << "worker " << worker << " outlived its coordinator";
    if (StillRunning(worker)) {
      ::kill(worker, SIGKILL);
    }
  }
  std::vector<std::string> reports = ReportFiles(dir);
  EXPECT_TRUE(reports.empty()) << reports.size() << " report file(s) left, first "
                               << (reports.empty() ? "" : reports[0]);
  for (const std::string& name : reports) {
    std::remove((dir + "/" + name).c_str());
  }
  std::remove(csv.c_str());
  ::rmdir(dir.c_str());
}

#endif  // SCODED_CLI_BIN

}  // namespace
}  // namespace scoded
