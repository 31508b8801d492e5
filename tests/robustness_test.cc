// Adversarial-input robustness: extreme values, degenerate shapes, and
// pathological-but-legal inputs must produce defined results, not crashes
// or NaNs.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/drilldown.h"
#include "core/violation.h"
#include "datasets/errors.h"
#include "stats/hypothesis.h"
#include "stats/kendall.h"
#include "table/csv.h"
#include "table/table.h"

namespace scoded {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(RobustnessTest, KendallWithInfinities) {
  // ±inf are legal doubles with a total order; counts must stay exact.
  std::vector<double> x = {-kInf, 1.0, 2.0, kInf};
  std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
  KendallResult r = KendallTau(x, y);
  EXPECT_EQ(r.concordant, 6);
  EXPECT_EQ(r.discordant, 0);
  EXPECT_EQ(KendallTauNaive(x, y).s, r.s);
}

TEST(RobustnessTest, KendallWithDenormalsAndHugeMagnitudes) {
  std::vector<double> x = {1e-310, 2e-310, 1e300, 2e300};
  std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
  KendallResult r = KendallTau(x, y);
  EXPECT_DOUBLE_EQ(r.tau_a, 1.0);
  EXPECT_FALSE(std::isnan(r.p_two_sided));
}

TEST(RobustnessTest, SingleCategoryColumns) {
  TableBuilder builder;
  builder.AddCategorical("x", {"only", "only", "only", "only"});
  builder.AddCategorical("y", {"a", "b", "a", "b"});
  Table t = std::move(builder).Build().value();
  TestResult r = IndependenceTest(t, 0, 1, {}).value();
  EXPECT_FALSE(std::isnan(r.p_value));
  EXPECT_NEAR(r.statistic, 0.0, 1e-9);  // constant X carries no information
}

TEST(RobustnessTest, ConstantNumericColumns) {
  TableBuilder builder;
  builder.AddNumeric("x", std::vector<double>(50, 3.14));
  std::vector<double> y;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    y.push_back(rng.Normal());
  }
  builder.AddNumeric("y", y);
  Table t = std::move(builder).Build().value();
  TestResult r = IndependenceTest(t, 0, 1, {}).value();
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);  // all pairs tied on x: Var(S) = 0
}

TEST(RobustnessTest, AllRowsNullInOneColumn) {
  TableBuilder builder;
  builder.AddNumericWithNulls("x", std::vector<double>(10, 0.0), std::vector<bool>(10, false));
  std::vector<double> y;
  for (int i = 0; i < 10; ++i) {
    y.push_back(i);
  }
  builder.AddNumeric("y", y);
  Table t = std::move(builder).Build().value();
  TestResult r = IndependenceTest(t, 0, 1, {}).value();
  EXPECT_EQ(r.n, 0);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(RobustnessTest, DrillDownOnDegenerateData) {
  // Everything identical: the engines must still return k rows without
  // crashing or looping.
  TableBuilder builder;
  builder.AddCategorical("x", std::vector<std::string>(20, "same"));
  builder.AddCategorical("y", std::vector<std::string>(20, "same"));
  Table t = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  DrillDownResult result = DrillDown(t, asc, 5).value();
  EXPECT_EQ(result.rows.size(), 5u);
}

TEST(RobustnessTest, DrillDownOnTinyTables) {
  TableBuilder builder;
  builder.AddNumeric("x", {1.0, 2.0});
  builder.AddNumeric("y", {2.0, 1.0});
  Table t = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  EXPECT_EQ(DrillDown(t, asc, 10).value().rows.size(), 2u);
  TableBuilder one;
  one.AddNumeric("x", {1.0});
  one.AddNumeric("y", {1.0});
  Table t1 = std::move(one).Build().value();
  EXPECT_EQ(DrillDown(t1, asc, 3).value().rows.size(), 1u);
}

TEST(RobustnessTest, EmptyTableDetection) {
  TableBuilder builder;
  builder.AddNumeric("x", {});
  builder.AddNumeric("y", {});
  Table t = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.3};
  ViolationReport report = DetectViolation(t, asc).value();
  EXPECT_DOUBLE_EQ(report.p_value, 1.0);
  EXPECT_TRUE(report.violated);  // no evidence of the required dependence
  EXPECT_TRUE(DrillDown(t, asc, 5).value().rows.empty());
}

TEST(RobustnessTest, ExtremeCardinalityCategorical) {
  // Every cell unique: n categories on both sides.
  std::vector<std::string> x;
  std::vector<std::string> y;
  for (int i = 0; i < 300; ++i) {
    x.emplace_back("x").append(std::to_string(i));
    y.emplace_back("y").append(std::to_string(i));
  }
  TableBuilder builder;
  builder.AddCategorical("x", x);
  builder.AddCategorical("y", y);
  Table t = std::move(builder).Build().value();
  TestResult r = IndependenceTest(t, 0, 1, {}).value();
  // dof >> n: the permutation fallback must engage and return a sane p.
  EXPECT_TRUE(r.used_exact);
  EXPECT_GT(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
}

TEST(RobustnessTest, InjectionOnTinyTables) {
  TableBuilder builder;
  builder.AddNumeric("a", {1.0});
  Table t = std::move(builder).Build().value();
  InjectionOptions options;
  options.rate = 1.0;
  InjectionResult r = InjectSortingError(t, "a", options).value();
  EXPECT_EQ(r.dirty_rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.table.column(0).NumericAt(0), 1.0);
}

TEST(RobustnessTest, CsvWithOnlyHeader) {
  Table t = csv::ReadString("a,b\n").value();
  EXPECT_EQ(t.NumRows(), 0u);
  EXPECT_EQ(t.NumColumns(), 2u);
}

TEST(RobustnessTest, CsvWithExtremeNumericLiterals) {
  Table t = csv::ReadString("v\n1e308\n-1e308\n1e-300\n").value();
  EXPECT_EQ(t.schema().field(0).type, ColumnType::kNumeric);
  EXPECT_DOUBLE_EQ(t.column(0).NumericAt(0), 1e308);
}

TEST(RobustnessTest, ManyStrataWithSparseCells) {
  // 100 strata of 3 rows each: most strata skipped, combination stays sane.
  Rng rng(2);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<std::string> z;
  for (int s = 0; s < 100; ++s) {
    for (int i = 0; i < 3; ++i) {
      x.push_back(rng.Normal());
      y.push_back(rng.Normal());
      z.emplace_back("s").append(std::to_string(s));
    }
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  builder.AddCategorical("z", z);
  Table t = std::move(builder).Build().value();
  TestOptions options;
  options.min_stratum_size = 4;  // everything skipped
  TestResult r = IndependenceTest(t, 0, 1, {2}, options).value();
  EXPECT_EQ(r.strata_used, 0u);
  EXPECT_EQ(r.strata_skipped, 100u);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

}  // namespace
}  // namespace scoded
