// Cross-module property tests: invariants that must hold across random
// inputs and parameter sweeps, beyond the example-based unit tests.

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "constraints/graphoid.h"
#include "core/drilldown.h"
#include "core/violation.h"
#include "stats/hypothesis.h"
#include "table/csv.h"
#include "table/table.h"

namespace scoded {
namespace {

Table RandomMixedTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> num1;
  std::vector<double> num2;
  std::vector<std::string> cat1;
  std::vector<std::string> cat2;
  for (size_t i = 0; i < rows; ++i) {
    double shared = rng.Normal();
    num1.push_back(shared + rng.Normal(0.0, 0.7));
    num2.push_back(shared + rng.Normal(0.0, 0.7));
    cat1.emplace_back("c").append(std::to_string(rng.UniformInt(0, 3)));
    if (rng.Bernoulli(0.6)) {
      cat2.push_back(cat1.back());
    } else {
      cat2.emplace_back("c").append(std::to_string(rng.UniformInt(0, 3)));
    }
  }
  TableBuilder builder;
  builder.AddNumeric("n1", num1);
  builder.AddNumeric("n2", num2);
  builder.AddCategorical("c1", cat1);
  builder.AddCategorical("c2", cat2);
  return std::move(builder).Build().value();
}

// --- test symmetry: swapping X and Y must not change the p-value --------
class TestSymmetryProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TestSymmetryProperty, PValueSymmetricInArguments) {
  Table t = RandomMixedTable(150, GetParam());
  // numeric pair
  TestResult ab = IndependenceTest(t, 0, 1, {}).value();
  TestResult ba = IndependenceTest(t, 1, 0, {}).value();
  EXPECT_NEAR(ab.p_value, ba.p_value, 1e-12);
  // categorical pair
  TestResult cd = IndependenceTest(t, 2, 3, {}).value();
  TestResult dc = IndependenceTest(t, 3, 2, {}).value();
  EXPECT_NEAR(cd.p_value, dc.p_value, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TestSymmetryProperty, ::testing::Values(1, 2, 3, 4, 5));

// --- violation monotonicity in alpha -------------------------------------
class AlphaMonotonicityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlphaMonotonicityProperty, IscViolationMonotoneInAlpha) {
  Table t = RandomMixedTable(120, GetParam());
  StatisticalConstraint sc = Independence({"n1"}, {"n2"});
  bool previous = false;
  for (double alpha : {0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 0.999}) {
    bool violated = DetectViolation(t, {sc, alpha}).value().violated;
    // Once violated at some alpha, every larger alpha must also violate.
    EXPECT_TRUE(!previous || violated) << "alpha=" << alpha;
    previous = violated;
  }
}

TEST_P(AlphaMonotonicityProperty, DscViolationAntitoneInAlpha) {
  Table t = RandomMixedTable(120, GetParam() + 100);
  StatisticalConstraint sc = Dependence({"n1"}, {"c1"});
  bool previous = true;
  for (double alpha : {0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 0.999}) {
    bool violated = DetectViolation(t, {sc, alpha}).value().violated;
    // A DSC violated at some alpha cannot become violated again after
    // holding: violation is antitone in alpha.
    EXPECT_TRUE(previous || !violated) << "alpha=" << alpha;
    previous = violated;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlphaMonotonicityProperty, ::testing::Values(7, 8, 9));

// --- drill-down structural invariants ------------------------------------
class DrillDownInvariantProperty
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(DrillDownInvariantProperty, RowsUniqueInRangeAndPrefixConsistent) {
  auto [k, strategy_id] = GetParam();
  Table t = RandomMixedTable(90, 42);
  ApproximateSc asc{Independence({"n1"}, {"n2"}), 0.05};
  DrillDownOptions options;
  options.strategy = strategy_id == 0 ? Strategy::kDirect : Strategy::kComplement;
  DrillDownResult result = DrillDown(t, asc, k, options).value();
  EXPECT_EQ(result.rows.size(), std::min(k, t.NumRows()));
  std::set<size_t> unique(result.rows.begin(), result.rows.end());
  EXPECT_EQ(unique.size(), result.rows.size());
  for (size_t row : result.rows) {
    EXPECT_LT(row, t.NumRows());
  }
  // Prefix consistency with the full ranking.
  std::vector<size_t> ranking = RankSuspiciousRecords(t, asc, k, options).value();
  EXPECT_EQ(ranking, result.rows);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DrillDownInvariantProperty,
                         ::testing::Combine(::testing::Values<size_t>(1, 5, 20, 89, 90, 500),
                                            ::testing::Values(0, 1)));

// --- CSV round-trip property ----------------------------------------------
class CsvRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundTripProperty, WriteReadPreservesShapeAndCategoricals) {
  Table t = RandomMixedTable(60, GetParam());
  Table back = csv::ReadString(csv::WriteString(t)).value();
  ASSERT_EQ(back.NumRows(), t.NumRows());
  ASSERT_EQ(back.NumColumns(), t.NumColumns());
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    EXPECT_EQ(back.schema().field(c).name, t.schema().field(c).name);
    EXPECT_EQ(back.schema().field(c).type, t.schema().field(c).type);
  }
  // Categorical cells survive exactly; numeric cells up to printing noise.
  for (size_t r = 0; r < t.NumRows(); ++r) {
    EXPECT_EQ(back.column(2).CategoryAt(r), t.column(2).CategoryAt(r));
    EXPECT_NEAR(back.column(0).NumericAt(r), t.column(0).NumericAt(r),
                1e-4 * (1.0 + std::abs(t.column(0).NumericAt(r))));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripProperty, ::testing::Values(11, 12, 13, 14));

// --- permutation determinism ----------------------------------------------
TEST(PermutationDeterminismProperty, SameSeedSameP) {
  Table t = RandomMixedTable(80, 21);
  TestOptions options;
  Rng rng1(99);
  Rng rng2(99);
  TestResult a = PermutationIndependenceTest(t, 2, 3, {}, 150, rng1, options).value();
  TestResult b = PermutationIndependenceTest(t, 2, 3, {}, 150, rng2, options).value();
  EXPECT_DOUBLE_EQ(a.p_value, b.p_value);
  EXPECT_GT(a.p_value, 0.0);
  EXPECT_LE(a.p_value, 1.0);
}

// --- graphoid minimisation preserves semantics -----------------------------
class MinimizePreservationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinimizePreservationProperty, ClosureOfMinimalCoversOriginal) {
  // Random small ISC sets over 4 variables: the closure of the minimal
  // subset must contain every original triple.
  Rng rng(GetParam());
  std::vector<StatisticalConstraint> constraints;
  const std::vector<std::string> vars = {"A", "B", "C", "D"};
  for (int i = 0; i < 5; ++i) {
    // Draw two distinct variables plus an optional conditioning variable.
    std::vector<size_t> pick = rng.SampleWithoutReplacement(4, 3);
    StatisticalConstraint sc = Independence({vars[pick[0]]}, {vars[pick[1]]});
    if (rng.Bernoulli(0.5)) {
      sc.z.push_back(vars[pick[2]]);
    }
    constraints.push_back(sc);
  }
  std::vector<StatisticalConstraint> minimal = MinimizeConstraints(constraints).value();
  // Re-derive: every original constraint must either be in the minimal set
  // or in its closure. Verify via CheckConsistency: adding the negation of
  // an original constraint to the minimal set must be inconsistent.
  for (const StatisticalConstraint& sc : constraints) {
    std::vector<StatisticalConstraint> augmented = minimal;
    augmented.push_back(sc.Negated());
    EXPECT_FALSE(CheckConsistency(augmented).value().consistent)
        << "minimal set lost " << sc.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizePreservationProperty,
                         ::testing::Values(31, 32, 33, 34, 35, 36));

// --- stratification invariants ---------------------------------------------
TEST(StratifyRowsProperty, PartitionsInputExactly) {
  Table t = RandomMixedTable(200, 55);
  std::vector<size_t> rows;
  for (size_t i = 0; i < t.NumRows(); i += 2) {
    rows.push_back(i);
  }
  TestOptions options;
  Stratification strata = StratifyRows(t, {2, 3}, rows, options);
  size_t total = 0;
  std::set<size_t> seen;
  for (const std::vector<size_t>& group : strata.groups) {
    total += group.size();
    seen.insert(group.begin(), group.end());
  }
  EXPECT_EQ(total, rows.size());
  EXPECT_EQ(seen.size(), rows.size());
  EXPECT_EQ(strata.group_of_row.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const std::vector<size_t>& group = strata.groups[strata.group_of_row[i]];
    EXPECT_NE(std::find(group.begin(), group.end(), rows[i]), group.end());
  }
}

TEST(StratifyRowsProperty, ContinuousConditioningBinsRespectCap) {
  Table t = RandomMixedTable(500, 56);
  std::vector<size_t> rows(t.NumRows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = i;
  }
  TestOptions options;
  options.condition_bins = 6;
  Stratification strata = StratifyRows(t, {0}, rows, options);  // continuous column
  EXPECT_LE(strata.groups.size(), 6u);
  EXPECT_GE(strata.groups.size(), 2u);
}

}  // namespace
}  // namespace scoded
