#include "core/sc_monitor.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/violation.h"
#include "obs/metrics.h"
#include "stats/hypothesis.h"
#include "stats/kendall.h"
#include "table/table.h"

namespace scoded {
namespace {

Table NumericPrototype() {
  TableBuilder builder;
  builder.AddNumeric("x", {});
  builder.AddNumeric("y", {});
  return std::move(builder).Build().value();
}

Table CategoricalPrototype() {
  TableBuilder builder;
  builder.AddCategorical("x", {});
  builder.AddCategorical("y", {});
  return std::move(builder).Build().value();
}

TEST(ScMonitorTest, CreateValidatesConstraint) {
  Table proto = NumericPrototype();
  ApproximateSc good{ParseConstraint("x !_||_ y").value(), 0.3};
  EXPECT_TRUE(ScMonitor::Create(proto, good).ok());
  ApproximateSc conditional{ParseConstraint("x _||_ y | x2").value(), 0.3};
  EXPECT_FALSE(ScMonitor::Create(proto, conditional).ok());
  ApproximateSc bad_alpha{good.sc, 2.0};
  EXPECT_FALSE(ScMonitor::Create(proto, bad_alpha).ok());
  TableBuilder mixed;
  mixed.AddNumeric("x", {});
  mixed.AddCategorical("y", {});
  Table mixed_proto = std::move(mixed).Build().value();
  EXPECT_FALSE(ScMonitor::Create(mixed_proto, good).ok());
}

TEST(ScMonitorTest, NumericMatchesBatchStatistic) {
  // Incremental S must equal the batch Kendall S after any prefix.
  Rng rng(1);
  std::vector<double> x;
  std::vector<double> y;
  ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.3};
  ScMonitor monitor = ScMonitor::Create(NumericPrototype(), asc).value();
  for (int i = 0; i < 120; ++i) {
    double xv = static_cast<double>(rng.UniformInt(0, 20));  // with ties
    double yv = static_cast<double>(rng.UniformInt(0, 20));
    x.push_back(xv);
    y.push_back(yv);
    ASSERT_TRUE(monitor.AppendNumeric(xv, yv).ok());
    if (i % 17 == 0 && i > 2) {
      KendallResult batch = KendallTauNaive(x, y);
      EXPECT_DOUBLE_EQ(monitor.CurrentStatistic(),
                       std::abs(static_cast<double>(batch.s)));
      EXPECT_NEAR(monitor.CurrentPValue(), batch.p_two_sided, 1e-9);
    }
  }
}

TEST(ScMonitorTest, CategoricalMatchesBatchG) {
  Rng rng(2);
  std::vector<std::string> x;
  std::vector<std::string> y;
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  ScMonitor monitor = ScMonitor::Create(CategoricalPrototype(), asc).value();
  for (int i = 0; i < 300; ++i) {
    std::string xv = std::string("a").append(std::to_string(rng.UniformInt(0, 3)));
    std::string yv = rng.Bernoulli(0.3)
                         ? xv + "_twin"
                         : std::string("b").append(std::to_string(rng.UniformInt(0, 3)));
    x.push_back(xv);
    y.push_back(yv);
    ASSERT_TRUE(monitor.AppendCategorical(xv, yv).ok());
  }
  TableBuilder builder;
  builder.AddCategorical("x", x);
  builder.AddCategorical("y", y);
  Table table = std::move(builder).Build().value();
  TestOptions options;
  options.allow_exact = false;  // compare against the pure asymptotic G path
  TestResult batch = IndependenceTest(table, 0, 1, {}, options).value();
  EXPECT_NEAR(monitor.CurrentStatistic(), batch.statistic, 1e-8);
  EXPECT_NEAR(monitor.CurrentPValue(), batch.p_value, 1e-8);
}

TEST(ScMonitorTest, DetectsDriftingBatch) {
  // Deployment scenario: a DSC holds while correlated batches arrive and
  // is violated after an imputed (constant-y) batch erases the dependence.
  ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.3};
  ScMonitor monitor = ScMonitor::Create(NumericPrototype(), asc).value();
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    double v = rng.Normal();
    ASSERT_TRUE(monitor.AppendNumeric(v, v + rng.Normal(0.0, 0.3)).ok());
  }
  EXPECT_FALSE(monitor.Violated());
  double p_before = monitor.CurrentPValue();
  // The bad batch: y is a constant fill-in, x arbitrary.
  ScMonitor fresh = ScMonitor::Create(NumericPrototype(), asc).value();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fresh.AppendNumeric(rng.Normal(), 1.2345).ok());
  }
  EXPECT_TRUE(fresh.Violated());
  EXPECT_GT(fresh.CurrentPValue(), p_before);
}

TEST(ScMonitorTest, AppendTableBatch) {
  ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.3};
  ScMonitor monitor = ScMonitor::Create(NumericPrototype(), asc).value();
  Rng rng(4);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 80; ++i) {
    double v = rng.Normal();
    x.push_back(v);
    y.push_back(v);
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  Table batch = std::move(builder).Build().value();
  ASSERT_TRUE(monitor.Append(batch).ok());
  EXPECT_EQ(monitor.NumRecords(), 80u);
  EXPECT_FALSE(monitor.Violated());
}

TEST(ScMonitorTest, NullsExcludedButCounted) {
  ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.3};
  ScMonitor monitor = ScMonitor::Create(NumericPrototype(), asc).value();
  TableBuilder builder;
  builder.AddNumericWithNulls("x", {1.0, 0.0, 2.0}, {true, false, true});
  builder.AddNumeric("y", {1.0, 5.0, 2.0});
  Table batch = std::move(builder).Build().value();
  ASSERT_TRUE(monitor.Append(batch).ok());
  EXPECT_EQ(monitor.NumRecords(), 3u);
  EXPECT_DOUBLE_EQ(monitor.CurrentStatistic(), 1.0);  // one concordant pair
}

TEST(ScMonitorTest, NullAndEvictionCountsReachTheRegistry) {
  // Skipped nulls and window evictions are added to the registry once per
  // append call, whether the call carries a batch or one observation.
  const obs::Counter* nulls =
      obs::Metrics::Global().FindOrCreateCounter("core.monitor_null_rows_skipped");
  const obs::Counter* evicted =
      obs::Metrics::Global().FindOrCreateCounter("core.monitor_rows_evicted");
  ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.3};
  MonitorOptions mopts;
  mopts.window = 5;
  ScMonitor monitor = ScMonitor::Create(NumericPrototype(), asc, {}, mopts).value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(monitor.AppendNumeric(i, i).ok());
  }
  const int64_t nulls_before = nulls->Value();
  const int64_t evicted_before = evicted->Value();
  TableBuilder builder;
  builder.AddNumericWithNulls("x", {1.0, 0.0, 2.0, 3.0, 0.0, 4.0, 5.0},
                              {true, false, true, true, false, true, true});
  builder.AddNumeric("y", {1.0, 5.0, 2.0, 3.0, 6.0, 4.0, 5.0});
  ASSERT_TRUE(monitor.Append(std::move(builder).Build().value()).ok());
  // Five non-null rows join four live ones in a window of five.
  EXPECT_EQ(nulls->Value() - nulls_before, 2);
  EXPECT_EQ(evicted->Value() - evicted_before, 4);
  EXPECT_EQ(monitor.WindowOccupancy(), 5u);
  ASSERT_TRUE(monitor.AppendNumeric(9.0, 9.0).ok());
  EXPECT_EQ(evicted->Value() - evicted_before, 5);
}

TEST(ScMonitorTest, TypeMismatchAppendRejected) {
  ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.3};
  ScMonitor numeric = ScMonitor::Create(NumericPrototype(), asc).value();
  EXPECT_FALSE(numeric.AppendCategorical("a", "b").ok());
  ScMonitor categorical = ScMonitor::Create(CategoricalPrototype(), asc).value();
  EXPECT_FALSE(categorical.AppendNumeric(1.0, 2.0).ok());
}

TEST(ScMonitorTest, ConditionalMonitorStratifies) {
  // Dependence holds within each z stratum; a confounded unconditional
  // view would see it too, but the point is the conditional state: the
  // stratified monitor matches the batch conditional test.
  TableBuilder proto;
  proto.AddNumeric("x", {});
  proto.AddNumeric("y", {});
  proto.AddCategorical("z", {});
  Table prototype = std::move(proto).Build().value();
  ApproximateSc asc{ParseConstraint("x !_||_ y | z").value(), 0.3};
  ScMonitor monitor = ScMonitor::Create(prototype, asc).value();

  Rng rng(21);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<std::string> z;
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 50; ++i) {
      double v = rng.Normal();
      x.push_back(v);
      y.push_back(100.0 * s + v + rng.Normal(0.0, 0.4));
      z.emplace_back("s").append(std::to_string(s));
    }
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  builder.AddCategorical("z", z);
  Table batch = std::move(builder).Build().value();
  ASSERT_TRUE(monitor.Append(batch).ok());
  EXPECT_EQ(monitor.NumStrata(), 3u);
  EXPECT_FALSE(monitor.Violated());

  // Match the batch conditional test (exact Z stratification, no binning).
  TestOptions options;
  TestResult reference = IndependenceTest(batch, 0, 1, {2}, options).value();
  EXPECT_NEAR(monitor.CurrentPValue(), reference.p_value, 1e-9);
}

TEST(ScMonitorTest, ConditionalRequiresCategoricalZ) {
  TableBuilder proto;
  proto.AddNumeric("x", {});
  proto.AddNumeric("y", {});
  proto.AddNumeric("year", {});
  Table prototype = std::move(proto).Build().value();
  ApproximateSc asc{ParseConstraint("x !_||_ y | year").value(), 0.3};
  EXPECT_FALSE(ScMonitor::Create(prototype, asc).ok());
}

TEST(ScMonitorTest, ConditionalRejectsScalarAppends) {
  TableBuilder proto;
  proto.AddNumeric("x", {});
  proto.AddNumeric("y", {});
  proto.AddCategorical("z", {});
  Table prototype = std::move(proto).Build().value();
  ApproximateSc asc{ParseConstraint("x !_||_ y | z").value(), 0.3};
  ScMonitor monitor = ScMonitor::Create(prototype, asc).value();
  EXPECT_FALSE(monitor.AppendNumeric(1.0, 2.0).ok());
}

TEST(ScMonitorTest, EmptyMonitorIsNotViolatedForIsc) {
  ApproximateSc isc{ParseConstraint("x _||_ y").value(), 0.05};
  ScMonitor monitor = ScMonitor::Create(NumericPrototype(), isc).value();
  EXPECT_FALSE(monitor.Violated());
  EXPECT_DOUBLE_EQ(monitor.CurrentPValue(), 1.0);
}

TEST(ScMonitorTest, LongTiedStreamMatchesBatchAcrossRebuilds) {
  // 2000 appends push the concordance index through many buffer
  // compactions and multi-level block merges; the monitor's p-value must
  // still equal the batch tau test to 1e-9 at every checkpoint.
  Rng rng(5);
  std::vector<double> x;
  std::vector<double> y;
  ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.3};
  ScMonitor monitor = ScMonitor::Create(NumericPrototype(), asc).value();
  for (int i = 0; i < 2000; ++i) {
    double xv = static_cast<double>(rng.UniformInt(0, 40));  // heavy ties
    double yv = xv + static_cast<double>(rng.UniformInt(0, 40));
    x.push_back(xv);
    y.push_back(yv);
    ASSERT_TRUE(monitor.AppendNumeric(xv, yv).ok());
    if (i % 257 == 0 && i > 2) {
      KendallResult batch = KendallTauNaive(x, y);
      ASSERT_DOUBLE_EQ(monitor.CurrentStatistic(),
                       std::abs(static_cast<double>(batch.s)));
      ASSERT_NEAR(monitor.CurrentPValue(), batch.p_two_sided, 1e-9) << "i=" << i;
    }
  }
  KendallResult batch = KendallTauNaive(x, y);
  EXPECT_NEAR(monitor.CurrentPValue(), batch.p_two_sided, 1e-9);
}

TEST(ScMonitorTest, FailedBatchAppendIsNoOp) {
  ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.3};
  ScMonitor monitor = ScMonitor::Create(NumericPrototype(), asc).value();
  TableBuilder good;
  good.AddNumeric("x", {1.0, 2.0, 3.0});
  good.AddNumeric("y", {1.0, 2.0, 3.0});
  ASSERT_TRUE(monitor.Append(std::move(good).Build().value()).ok());
  double statistic = monitor.CurrentStatistic();
  double p = monitor.CurrentPValue();

  // A batch whose y column has the wrong type: rows 0..n would have been
  // ingestible one by one, so a partial apply would corrupt state. The
  // whole batch must be rejected before any row is ingested.
  TableBuilder bad;
  bad.AddNumeric("x", {4.0, 5.0});
  bad.AddCategorical("y", {"a", "b"});
  EXPECT_FALSE(monitor.Append(std::move(bad).Build().value()).ok());

  EXPECT_EQ(monitor.NumRecords(), 3u);
  EXPECT_DOUBLE_EQ(monitor.CurrentStatistic(), statistic);
  EXPECT_DOUBLE_EQ(monitor.CurrentPValue(), p);
  // And the monitor still works after the rejected batch.
  ASSERT_TRUE(monitor.AppendNumeric(4.0, 4.0).ok());
  EXPECT_EQ(monitor.NumRecords(), 4u);
}

TEST(ScMonitorTest, FailedConditionalBatchAppendIsNoOp) {
  TableBuilder proto;
  proto.AddNumeric("x", {});
  proto.AddNumeric("y", {});
  proto.AddCategorical("z", {});
  Table prototype = std::move(proto).Build().value();
  ApproximateSc asc{ParseConstraint("x !_||_ y | z").value(), 0.3};
  ScMonitor monitor = ScMonitor::Create(prototype, asc).value();

  // Missing the conditioning column entirely.
  TableBuilder bad;
  bad.AddNumeric("x", {1.0});
  bad.AddNumeric("y", {1.0});
  EXPECT_FALSE(monitor.Append(std::move(bad).Build().value()).ok());
  EXPECT_EQ(monitor.NumRecords(), 0u);
  EXPECT_EQ(monitor.NumStrata(), 0u);
}

TEST(ScMonitorTest, WindowedNumericMatchesBatchOverWindow) {
  // Sliding-window mode: after eviction the monitor state must equal a
  // batch tau test over exactly the last `window` rows.
  const size_t window = 64;
  Rng rng(6);
  std::vector<double> x;
  std::vector<double> y;
  ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.3};
  MonitorOptions mopts;
  mopts.window = window;
  ScMonitor monitor = ScMonitor::Create(NumericPrototype(), asc, {}, mopts).value();
  for (int i = 0; i < 300; ++i) {
    double xv = static_cast<double>(rng.UniformInt(0, 12));  // with ties
    double yv = static_cast<double>(rng.UniformInt(0, 12));
    x.push_back(xv);
    y.push_back(yv);
    ASSERT_TRUE(monitor.AppendNumeric(xv, yv).ok());
    ASSERT_LE(monitor.WindowOccupancy(), window);
    if (i % 37 == 0 && i > 2) {
      size_t lo = x.size() > window ? x.size() - window : 0;
      std::vector<double> wx(x.begin() + static_cast<ptrdiff_t>(lo), x.end());
      std::vector<double> wy(y.begin() + static_cast<ptrdiff_t>(lo), y.end());
      KendallResult batch = KendallTauNaive(wx, wy);
      ASSERT_DOUBLE_EQ(monitor.CurrentStatistic(),
                       std::abs(static_cast<double>(batch.s)))
          << "i=" << i;
      ASSERT_NEAR(monitor.CurrentPValue(), batch.p_two_sided, 1e-9) << "i=" << i;
    }
  }
  // NumRecords counts lifetime appends; occupancy is capped by the window.
  EXPECT_EQ(monitor.NumRecords(), 300u);
  EXPECT_EQ(monitor.WindowOccupancy(), window);
}

TEST(ScMonitorTest, WindowedCategoricalMatchesBatchOverWindow) {
  const size_t window = 80;
  Rng rng(8);
  std::vector<std::string> x;
  std::vector<std::string> y;
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  MonitorOptions mopts;
  mopts.window = window;
  ScMonitor monitor = ScMonitor::Create(CategoricalPrototype(), asc, {}, mopts).value();
  for (int i = 0; i < 250; ++i) {
    std::string xv = std::string("a").append(std::to_string(rng.UniformInt(0, 2)));
    std::string yv = rng.Bernoulli(0.4)
                         ? xv + "!"
                         : std::string("b").append(std::to_string(rng.UniformInt(0, 2)));
    x.push_back(xv);
    y.push_back(yv);
    ASSERT_TRUE(monitor.AppendCategorical(xv, yv).ok());
  }
  size_t lo = x.size() - window;
  TableBuilder builder;
  builder.AddCategorical("x", std::vector<std::string>(x.begin() + static_cast<ptrdiff_t>(lo),
                                                       x.end()));
  builder.AddCategorical("y", std::vector<std::string>(y.begin() + static_cast<ptrdiff_t>(lo),
                                                       y.end()));
  Table tail = std::move(builder).Build().value();
  TestOptions options;
  options.allow_exact = false;
  TestResult batch = IndependenceTest(tail, 0, 1, {}, options).value();
  EXPECT_NEAR(monitor.CurrentStatistic(), batch.statistic, 1e-8);
  EXPECT_NEAR(monitor.CurrentPValue(), batch.p_value, 1e-8);
}

TEST(ScMonitorTest, WindowedConditionalEvictsAcrossStrata) {
  // Strata shrink (and may empty out) as their rows age out of the window;
  // the stratified p-value must keep matching the batch conditional test
  // over the surviving rows.
  TableBuilder proto;
  proto.AddNumeric("x", {});
  proto.AddNumeric("y", {});
  proto.AddCategorical("z", {});
  Table prototype = std::move(proto).Build().value();
  ApproximateSc asc{ParseConstraint("x !_||_ y | z").value(), 0.3};
  MonitorOptions mopts;
  mopts.window = 60;
  ScMonitor monitor = ScMonitor::Create(prototype, asc, {}, mopts).value();

  Rng rng(31);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<std::string> z;
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 50; ++i) {
      double v = rng.Normal();
      x.push_back(v);
      y.push_back(v + rng.Normal(0.0, 0.5));
      z.emplace_back("s").append(std::to_string(s));
    }
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  builder.AddCategorical("z", z);
  Table all = std::move(builder).Build().value();
  ASSERT_TRUE(monitor.Append(all).ok());
  EXPECT_EQ(monitor.WindowOccupancy(), 60u);

  // The window holds the last 60 rows: 10 of s1 and all 50 of s2.
  std::vector<size_t> tail_rows;
  for (size_t r = 90; r < 150; ++r) {
    tail_rows.push_back(r);
  }
  Table tail = all.Gather(tail_rows);
  TestResult reference = IndependenceTest(tail, 0, 1, {2}, TestOptions{}).value();
  EXPECT_NEAR(monitor.CurrentPValue(), reference.p_value, 1e-9);
}

}  // namespace
}  // namespace scoded
