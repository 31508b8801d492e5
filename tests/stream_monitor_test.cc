#include "core/stream_monitor.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/violation.h"
#include "obs/metrics.h"
#include "table/table.h"

namespace scoded {
namespace {

Table Prototype() {
  TableBuilder builder;
  builder.AddNumeric("x", {});
  builder.AddNumeric("y", {});
  builder.AddNumeric("w", {});
  return std::move(builder).Build().value();
}

Table CorrelatedBatch(uint64_t seed, int rows) {
  Rng rng(seed);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> w;
  for (int i = 0; i < rows; ++i) {
    double v = rng.Normal();
    x.push_back(v);
    y.push_back(v + rng.Normal(0.0, 0.3));
    w.push_back(rng.Normal());
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  builder.AddNumeric("w", w);
  return std::move(builder).Build().value();
}

std::vector<ApproximateSc> TwoConstraints() {
  return {{ParseConstraint("x !_||_ y").value(), 0.3},
          {ParseConstraint("x _||_ w").value(), 0.01}};
}

TEST(StreamMonitorTest, CreateIsAllOrNothing) {
  std::vector<ApproximateSc> constraints = TwoConstraints();
  EXPECT_TRUE(StreamMonitor::Create(Prototype(), constraints).ok());
  constraints.push_back({ParseConstraint("x _||_ nope").value(), 0.05});
  EXPECT_FALSE(StreamMonitor::Create(Prototype(), constraints).ok());
  EXPECT_TRUE(StreamMonitor::Create(Prototype(), {}).ok());
}

TEST(StreamMonitorTest, FansBatchesToEveryMonitor) {
  StreamMonitor stream = StreamMonitor::Create(Prototype(), TwoConstraints()).value();
  EXPECT_EQ(stream.NumMonitors(), 2u);
  ASSERT_TRUE(stream.Append(CorrelatedBatch(11, 60)).ok());
  ASSERT_TRUE(stream.Append(CorrelatedBatch(12, 40)).ok());
  EXPECT_EQ(stream.NumRecords(), 100u);
  std::vector<StreamMonitor::ConstraintState> states = stream.States();
  ASSERT_EQ(states.size(), 2u);
  for (const StreamMonitor::ConstraintState& state : states) {
    EXPECT_EQ(state.records, 100u);
    EXPECT_FALSE(state.violated);
  }
  EXPECT_EQ(states[0].constraint, "x !_||_ y");
  // x !_||_ y genuinely is dependent, x _||_ w genuinely independent.
  EXPECT_LT(states[0].p_value, 0.01);
  EXPECT_GT(states[1].p_value, 0.01);
  EXPECT_FALSE(stream.AnyViolated());
}

TEST(StreamMonitorTest, StatesMatchSingleMonitorsExactly) {
  // Group fan-out must be pure bookkeeping: each owned monitor ends in the
  // same state as a standalone ScMonitor fed the same batches.
  StreamMonitor stream = StreamMonitor::Create(Prototype(), TwoConstraints()).value();
  std::vector<ScMonitor> solo;
  for (const ApproximateSc& asc : TwoConstraints()) {
    solo.push_back(ScMonitor::Create(Prototype(), asc).value());
  }
  for (uint64_t seed = 20; seed < 25; ++seed) {
    Table batch = CorrelatedBatch(seed, 30);
    ASSERT_TRUE(stream.Append(batch).ok());
    for (ScMonitor& monitor : solo) {
      ASSERT_TRUE(monitor.Append(batch).ok());
    }
  }
  for (size_t i = 0; i < solo.size(); ++i) {
    EXPECT_DOUBLE_EQ(stream.monitor(i).CurrentStatistic(), solo[i].CurrentStatistic());
    EXPECT_DOUBLE_EQ(stream.monitor(i).CurrentPValue(), solo[i].CurrentPValue());
  }
}

TEST(StreamMonitorTest, DeterministicAcrossThreadCounts) {
  std::vector<std::vector<StreamMonitor::ConstraintState>> runs;
  for (int threads : {1, 4}) {
    parallel::SetThreads(threads);
    StreamMonitor stream = StreamMonitor::Create(Prototype(), TwoConstraints()).value();
    for (uint64_t seed = 40; seed < 44; ++seed) {
      ASSERT_TRUE(stream.Append(CorrelatedBatch(seed, 50)).ok());
    }
    runs.push_back(stream.States());
  }
  parallel::SetThreads(0);  // restore default
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].statistic, runs[1][i].statistic);  // bit-identical
    EXPECT_EQ(runs[0][i].p_value, runs[1][i].p_value);
  }
}

TEST(StreamMonitorTest, RejectedBatchIsGroupNoOp) {
  StreamMonitor stream = StreamMonitor::Create(Prototype(), TwoConstraints()).value();
  ASSERT_TRUE(stream.Append(CorrelatedBatch(30, 50)).ok());
  std::vector<StreamMonitor::ConstraintState> before = stream.States();

  // The batch is ingestible by the first monitor (x, y present and
  // numeric) but not the second (w missing): the group must reject it
  // without mutating ANY monitor, including the one that could accept it.
  TableBuilder bad;
  bad.AddNumeric("x", {1.0, 2.0});
  bad.AddNumeric("y", {1.0, 2.0});
  EXPECT_FALSE(stream.Append(std::move(bad).Build().value()).ok());

  EXPECT_EQ(stream.NumRecords(), 50u);
  std::vector<StreamMonitor::ConstraintState> after = stream.States();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].records, before[i].records);
    EXPECT_DOUBLE_EQ(after[i].statistic, before[i].statistic);
    EXPECT_DOUBLE_EQ(after[i].p_value, before[i].p_value);
  }
}

TEST(StreamMonitorTest, WindowOptionAppliesToEveryMonitor) {
  StreamMonitorOptions options;
  options.monitor.window = 32;
  StreamMonitor stream = StreamMonitor::Create(Prototype(), TwoConstraints(), options).value();
  for (uint64_t seed = 50; seed < 53; ++seed) {
    ASSERT_TRUE(stream.Append(CorrelatedBatch(seed, 40)).ok());
  }
  EXPECT_EQ(stream.NumRecords(), 120u);
  for (size_t i = 0; i < stream.NumMonitors(); ++i) {
    EXPECT_EQ(stream.monitor(i).WindowOccupancy(), 32u);
  }
}

TEST(StreamMonitorTest, AnyViolatedAndTelemetry) {
  // One dependence constraint over independent columns: violated.
  std::vector<ApproximateSc> constraints = {{ParseConstraint("x !_||_ w").value(), 0.3}};
  StreamMonitor stream = StreamMonitor::Create(Prototype(), constraints).value();
  const obs::Counter* batches =
      obs::Metrics::Global().FindOrCreateCounter("core.monitor_stream_batches");
  const int64_t batches_before = batches->Value();
  ASSERT_TRUE(stream.Append(CorrelatedBatch(60, 120)).ok());
  EXPECT_TRUE(stream.AnyViolated());
  EXPECT_EQ(batches->Value() - batches_before, 1);
}

}  // namespace
}  // namespace scoded
