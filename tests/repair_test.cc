#include "repair/cell_repair.h"

#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/violation.h"
#include "table/table.h"

namespace scoded {
namespace {

TEST(CategoricalRepairTest, FixesFdTyposTowardDependence) {
  // zip -> city with typo'd cities (two zips share each city, as in real
  // postal data — a city unique to its zip would make G invariant under
  // any rewrite of that zip's rows): the DSC repair should rewrite the
  // typos back to each zip's majority city.
  std::vector<std::string> zip;
  std::vector<std::string> city;
  std::set<size_t> dirty;
  for (int z = 0; z < 20; ++z) {
    for (int r = 0; r < 30; ++r) {
      zip.emplace_back("Z").append(std::to_string(z));
      if (r < 2) {
        dirty.insert(zip.size() - 1);
        city.push_back("TYPO_" + std::to_string(z) + "_" + std::to_string(r));
      } else {
        city.emplace_back("C").append(std::to_string(z / 2));
      }
    }
  }
  TableBuilder builder;
  builder.AddCategorical("zip", zip);
  builder.AddCategorical("city", city);
  Table table = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("zip !_||_ city").value(), 0.05};

  RepairPlan plan = SuggestCellRepairs(table, asc, 40).value();
  EXPECT_EQ(plan.repairs.size(), 40u);
  // Every repaired row is a typo row, and the new value is the zip's city.
  auto expected_city_of = [&](size_t row) {
    int z = std::stoi(table.ColumnByName("zip").CategoryAt(row).substr(1));
    return std::string("C").append(std::to_string(z / 2));
  };
  for (const CellRepair& repair : plan.repairs) {
    EXPECT_TRUE(dirty.count(repair.row)) << "repaired a clean row " << repair.row;
    const std::string& proposed =
        table.ColumnByName("city").dictionary()[static_cast<size_t>(repair.categorical_code)];
    EXPECT_EQ(proposed, expected_city_of(repair.row));
  }
  // Applying the repairs yields an exact FD again.
  Table fixed = ApplyRepairs(table, plan.repairs).value();
  for (size_t i = 0; i < fixed.NumRows(); ++i) {
    EXPECT_EQ(fixed.ColumnByName("city").CategoryAt(i), expected_city_of(i));
  }
}

TEST(CategoricalRepairTest, IndependenceRepairReducesG) {
  // Over-represented diagonal: ISC repair must spread records off it.
  Rng rng(1);
  std::vector<std::string> x;
  std::vector<std::string> y;
  for (int i = 0; i < 200; ++i) {
    x.emplace_back("a").append(std::to_string(rng.UniformInt(0, 2)));
    y.emplace_back("b").append(std::to_string(rng.UniformInt(0, 2)));
  }
  for (int i = 0; i < 80; ++i) {
    x.emplace_back("a").append(std::to_string(i % 3));
    y.emplace_back("b").append(std::to_string(i % 3));
  }
  TableBuilder builder;
  builder.AddCategorical("x", x);
  builder.AddCategorical("y", y);
  Table table = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  ASSERT_TRUE(DetectViolation(table, asc).value().violated);

  RepairPlan plan = SuggestCellRepairs(table, asc, 60).value();
  EXPECT_LT(plan.final_statistic, plan.initial_statistic);
  EXPECT_GT(plan.final_p, plan.initial_p);
  Table fixed = ApplyRepairs(table, plan.repairs).value();
  EXPECT_FALSE(DetectViolation(fixed, asc).value().violated);
}

TEST(NumericRepairTest, DependenceRepairTargetsImputedRows) {
  Rng rng(2);
  std::vector<double> x;
  std::vector<double> y;
  std::set<size_t> dirty;
  for (int i = 0; i < 150; ++i) {
    double v = rng.Normal();
    x.push_back(v);
    y.push_back(2.0 * v + rng.Normal(0.0, 0.05));
  }
  for (int i = 0; i < 25; ++i) {
    dirty.insert(x.size());
    x.push_back(rng.Normal());
    y.push_back(0.0);  // imputed constant
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  Table table = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.05};

  RepairPlan plan = SuggestCellRepairs(table, asc, 25).value();
  EXPECT_GT(plan.final_statistic, plan.initial_statistic);
  size_t hits = 0;
  for (const CellRepair& repair : plan.repairs) {
    hits += dirty.count(repair.row);
    EXPECT_EQ(repair.column, table.ColumnIndex("y").value());
  }
  EXPECT_GE(hits, plan.repairs.size() * 7 / 10);
}

TEST(NumericRepairTest, IndependenceRepairRestoresConstraint) {
  Rng rng(3);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 150; ++i) {
    x.push_back(rng.Normal());
    y.push_back(rng.Normal());
  }
  for (int i = 0; i < 30; ++i) {
    double v = 4.0 + 0.1 * i;
    x.push_back(v);
    y.push_back(2.0 * v);  // planted correlated cluster
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  Table table = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  ASSERT_TRUE(DetectViolation(table, asc).value().violated);

  RepairPlan plan = SuggestCellRepairs(table, asc, 40).value();
  EXPECT_LT(plan.final_statistic, plan.initial_statistic);
  Table fixed = ApplyRepairs(table, plan.repairs).value();
  EXPECT_FALSE(DetectViolation(fixed, asc).value().violated);
}

TEST(RepairTest, RepairPreservesRowCount) {
  Rng rng(4);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(rng.Normal());
    y.push_back(rng.Normal());
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  Table table = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.05};
  RepairPlan plan = SuggestCellRepairs(table, asc, 5).value();
  Table fixed = ApplyRepairs(table, plan.repairs).value();
  EXPECT_EQ(fixed.NumRows(), table.NumRows());
}

TEST(RepairTest, RejectsSetValuedConstraints) {
  TableBuilder builder;
  builder.AddNumeric("a", {1, 2, 3});
  builder.AddNumeric("b", {1, 2, 3});
  builder.AddNumeric("c", {1, 2, 3});
  Table table = std::move(builder).Build().value();
  ApproximateSc set_valued{ParseConstraint("a _||_ b, c").value(), 0.05};
  EXPECT_FALSE(SuggestCellRepairs(table, set_valued, 3).ok());
}

TEST(ConditionalRepairTest, RepairsWithinStrata) {
  // Two strata with the same x-y coupling but disjoint y ranges; 20
  // imputed rows per stratum weaken the conditional dependence.
  // Conditional repair must fix them using values from the record's own
  // stratum. (Opposite-direction strata would be adversarial to the
  // summed-S convention every stratified τ computation in the paper and
  // this library uses.)
  Rng rng(7);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<std::string> z;
  std::set<size_t> dirty;
  for (int s = 0; s < 2; ++s) {
    double offset = s == 0 ? 0.0 : 500.0;  // disjoint y ranges per stratum
    for (int i = 0; i < 80; ++i) {
      double v = rng.Normal();
      x.push_back(v);
      y.push_back(offset + 2.0 * v + rng.Normal(0.0, 0.05));
      z.emplace_back("s").append(std::to_string(s));
    }
    for (int i = 0; i < 20; ++i) {
      dirty.insert(x.size());
      x.push_back(rng.Normal());
      y.push_back(offset);  // imputed constant per stratum
      z.emplace_back("s").append(std::to_string(s));
    }
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  builder.AddCategorical("z", z);
  Table table = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x !_||_ y | z").value(), 0.05};
  RepairPlan plan = SuggestCellRepairs(table, asc, 40).value();
  EXPECT_GT(plan.final_statistic, plan.initial_statistic);
  size_t hits = 0;
  for (const CellRepair& repair : plan.repairs) {
    hits += dirty.count(repair.row);
    // The proposed value must come from the record's own stratum's range.
    double y_old = table.ColumnByName("y").NumericAt(repair.row);
    bool stratum1 = y_old >= 250.0;
    EXPECT_EQ(repair.numeric_value >= 250.0, stratum1)
        << "repair crossed strata at row " << repair.row;
  }
  EXPECT_GE(hits, plan.repairs.size() * 7 / 10);
}

TEST(RepairTest, MixedTypePairRejected) {
  TableBuilder builder;
  builder.AddNumeric("a", {1, 2, 3});
  builder.AddCategorical("b", {"x", "y", "z"});
  Table table = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("a !_||_ b").value(), 0.05};
  Result<RepairPlan> plan = SuggestCellRepairs(table, asc, 2);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnimplemented);
}

TEST(ApplyRepairsTest, Validation) {
  TableBuilder builder;
  builder.AddCategorical("c", {"a", "b"});
  Table table = std::move(builder).Build().value();
  CellRepair bad_row{5, 0, 0.0, 0, 0.0};
  EXPECT_FALSE(ApplyRepairs(table, {bad_row}).ok());
  CellRepair bad_code{0, 0, 0.0, 99, 0.0};
  EXPECT_FALSE(ApplyRepairs(table, {bad_code}).ok());
  CellRepair bad_col{0, 7, 0.0, 0, 0.0};
  EXPECT_FALSE(ApplyRepairs(table, {bad_col}).ok());
}

TEST(CellRepairTest, ToStringRendering) {
  TableBuilder builder;
  builder.AddCategorical("city", {"WRONG", "right"});
  Table table = std::move(builder).Build().value();
  CellRepair repair{0, 0, 0.0, 1, 3.5};
  std::string text = repair.ToString(table);
  EXPECT_NE(text.find("WRONG"), std::string::npos);
  EXPECT_NE(text.find("right"), std::string::npos);
}

}  // namespace
}  // namespace scoded
