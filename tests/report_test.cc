#include "eval/report.h"

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "stats/multiple_testing.h"
#include "table/table.h"

namespace scoded {
namespace {

TEST(BenjaminiHochbergTest, KnownExample) {
  // Classic worked example: m=6 at q=0.05.
  std::vector<double> p = {0.005, 0.009, 0.05, 0.1, 0.2, 0.3};
  MultipleTestingResult r = BenjaminiHochberg(p, 0.05);
  EXPECT_TRUE(r.rejected[0]);
  EXPECT_TRUE(r.rejected[1]);   // 0.009 <= 2*0.05/6
  EXPECT_FALSE(r.rejected[2]);  // 0.05 > 3*0.05/6
  EXPECT_FALSE(r.rejected[5]);
  EXPECT_EQ(r.num_rejected, 2u);
  // Adjusted p-values: p_adj(1) = min over j>=1 of m p(j)/j.
  EXPECT_NEAR(r.adjusted_p[0], 0.027, 1e-9);  // 6*0.009/2 = 0.027 beats 0.03
  EXPECT_NEAR(r.adjusted_p[1], 0.027, 1e-9);
  EXPECT_NEAR(r.adjusted_p[5], 0.3, 1e-9);
}

TEST(BenjaminiHochbergTest, MonotoneAdjustedValues) {
  Rng rng(1);
  std::vector<double> p;
  for (int i = 0; i < 30; ++i) {
    p.push_back(rng.Uniform());
  }
  MultipleTestingResult r = BenjaminiHochberg(p, 0.1);
  // Adjusted values preserve the input ordering.
  for (size_t i = 0; i < p.size(); ++i) {
    for (size_t j = 0; j < p.size(); ++j) {
      if (p[i] < p[j]) {
        EXPECT_LE(r.adjusted_p[i], r.adjusted_p[j] + 1e-12);
      }
    }
    EXPECT_GE(r.adjusted_p[i], p[i] - 1e-12);  // adjustment never shrinks p
  }
}

TEST(BenjaminiHochbergTest, EdgeCases) {
  EXPECT_EQ(BenjaminiHochberg({}, 0.05).num_rejected, 0u);
  MultipleTestingResult all = BenjaminiHochberg({0.0, 0.0}, 0.05);
  EXPECT_EQ(all.num_rejected, 2u);
  MultipleTestingResult single = BenjaminiHochberg({0.04}, 0.05);
  EXPECT_TRUE(single.rejected[0]);
  EXPECT_DOUBLE_EQ(single.adjusted_p[0], 0.04);  // m=1: unchanged
}

TEST(BonferroniTest, StricterThanBh) {
  std::vector<double> p = {0.005, 0.009, 0.05};
  MultipleTestingResult bonf = Bonferroni(p, 0.05);
  MultipleTestingResult bh = BenjaminiHochberg(p, 0.05);
  EXPECT_LE(bonf.num_rejected, bh.num_rejected);
  EXPECT_DOUBLE_EQ(bonf.adjusted_p[0], 0.015);
}

TEST(JsonWriterTest, StructuresAndEscaping) {
  JsonWriter json;
  json.BeginObject();
  json.Key("name").String("a\"b\\c\nd");
  json.Key("count").Int(-3);
  json.Key("pi").Double(3.25);
  json.Key("flag").Bool(true);
  json.Key("missing").Null();
  json.Key("list").BeginArray().Int(1).Int(2).BeginObject().Key("x").Int(9).EndObject().EndArray();
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"count\":-3,\"pi\":3.25,\"flag\":true,"
            "\"missing\":null,\"list\":[1,2,{\"x\":9}]}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter json;
  json.BeginArray().Double(std::numeric_limits<double>::infinity()).Double(0.5).EndArray();
  EXPECT_EQ(json.str(), "[null,0.5]");
}

Table PlantedTable(uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
  for (int i = 0; i < 150; ++i) {
    x.push_back(rng.Normal());
    y.push_back(rng.Normal());
    z.push_back(rng.Normal());
  }
  for (int i = 0; i < 40; ++i) {  // plant x-y dependence
    double v = 4.0 + 0.1 * i;
    x.push_back(v);
    y.push_back(2.0 * v);
    z.push_back(rng.Normal());
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  builder.AddNumeric("z", z);
  return std::move(builder).Build().value();
}

TEST(CleaningReportTest, ConfirmsRealViolationAndDrillsDown) {
  Table table = PlantedTable(2);
  std::vector<ApproximateSc> constraints = {
      {Independence({"x"}, {"y"}), 0.05},   // genuinely violated
      {Independence({"x"}, {"z"}), 0.05},   // holds
      {Dependence({"x"}, {"y"}), 0.3},      // holds (dependence present)
  };
  CleaningReport report = GenerateCleaningReport(table, constraints).value();
  ASSERT_EQ(report.findings.size(), 3u);
  EXPECT_TRUE(report.findings[0].confirmed);
  EXPECT_FALSE(report.findings[1].confirmed);
  EXPECT_FALSE(report.findings[2].confirmed);
  EXPECT_EQ(report.confirmed_violations, 1u);
  EXPECT_EQ(report.findings[0].suspicious_rows.size(), 20u);
  EXPECT_TRUE(report.findings[1].suspicious_rows.empty());
}

TEST(CleaningReportTest, FdrControlDemotesBorderlineViolations) {
  // 12 independent pairs: at alpha=0.2 a couple will "violate" by chance;
  // BH at q=0.05 must demote chance findings far more often than not.
  Rng rng(3);
  TableBuilder builder;
  for (int c = 0; c < 13; ++c) {
    std::vector<double> v;
    for (int i = 0; i < 80; ++i) {
      v.push_back(rng.Normal());
    }
    builder.AddNumeric(std::string("c").append(std::to_string(c)), v);
  }
  Table table = std::move(builder).Build().value();
  std::vector<ApproximateSc> constraints;
  for (int c = 1; c < 13; ++c) {
    constraints.push_back(
        {Independence({"c0"}, {std::string("c").append(std::to_string(c))}), 0.2});
  }
  ReportOptions options;
  options.fdr_q = 0.05;
  CleaningReport with_fdr = GenerateCleaningReport(table, constraints, options).value();
  options.fdr_control = false;
  CleaningReport without_fdr = GenerateCleaningReport(table, constraints, options).value();
  size_t raw = 0;
  for (const ConstraintFinding& finding : without_fdr.findings) {
    raw += finding.confirmed ? 1 : 0;
  }
  EXPECT_LE(with_fdr.confirmed_violations, raw);
  EXPECT_EQ(with_fdr.confirmed_violations, 0u);  // all null: FDR silences them
}

TEST(CleaningReportTest, RenderingsContainTheFindings) {
  Table table = PlantedTable(4);
  std::vector<ApproximateSc> constraints = {{Independence({"x"}, {"y"}), 0.05}};
  ReportOptions options;
  options.drilldown_k = 6;
  CleaningReport report = GenerateCleaningReport(table, constraints, options).value();
  std::string md = report.ToMarkdown(table, options);
  EXPECT_NE(md.find("x _||_ y"), std::string::npos);
  EXPECT_NE(md.find("**VIOLATED**"), std::string::npos);
  EXPECT_NE(md.find("Drill-down"), std::string::npos);
  std::string json = report.ToJson(table);
  EXPECT_NE(json.find("\"constraint\":\"x _||_ y\""), std::string::npos);
  EXPECT_NE(json.find("\"confirmed\":true"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace scoded
