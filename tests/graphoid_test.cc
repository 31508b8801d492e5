#include "constraints/graphoid.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace scoded {
namespace {

bool Contains(const std::vector<CiTriple>& closure, uint16_t x, uint16_t y, uint16_t z) {
  CiTriple t = NormalizeTriple(x, y, z);
  return std::find(closure.begin(), closure.end(), t) != closure.end();
}

TEST(NormalizeTripleTest, SymmetryCanonicalised) {
  CiTriple a = NormalizeTriple(0b01, 0b10, 0b100);
  CiTriple b = NormalizeTriple(0b10, 0b01, 0b100);
  EXPECT_EQ(a, b);
}

TEST(ClosureTest, DecompositionDerived) {
  // A ⊥ {B, C} gives A ⊥ B and A ⊥ C.
  std::vector<CiTriple> closure =
      SemiGraphoidClosure({NormalizeTriple(0b001, 0b110, 0)}, 3);
  EXPECT_TRUE(Contains(closure, 0b001, 0b010, 0));
  EXPECT_TRUE(Contains(closure, 0b001, 0b100, 0));
}

TEST(ClosureTest, WeakUnionDerived) {
  // A ⊥ {B, C} gives A ⊥ B | C.
  std::vector<CiTriple> closure =
      SemiGraphoidClosure({NormalizeTriple(0b001, 0b110, 0)}, 3);
  EXPECT_TRUE(Contains(closure, 0b001, 0b010, 0b100));
  EXPECT_TRUE(Contains(closure, 0b001, 0b100, 0b010));
}

TEST(ClosureTest, ContractionDerived) {
  // A ⊥ B  &  A ⊥ C | B  give  A ⊥ {B, C}.
  std::vector<CiTriple> closure = SemiGraphoidClosure(
      {NormalizeTriple(0b001, 0b010, 0), NormalizeTriple(0b001, 0b100, 0b010)}, 3);
  EXPECT_TRUE(Contains(closure, 0b001, 0b110, 0));
}

TEST(ClosureTest, SymmetricContraction) {
  // Same as above but with the statements' sides flipped; symmetry must
  // make contraction still fire.
  std::vector<CiTriple> closure = SemiGraphoidClosure(
      {NormalizeTriple(0b010, 0b001, 0), NormalizeTriple(0b100, 0b001, 0b010)}, 3);
  EXPECT_TRUE(Contains(closure, 0b001, 0b110, 0));
}

TEST(ClosureTest, NoSpuriousDerivation) {
  // A ⊥ B alone cannot yield anything about C.
  std::vector<CiTriple> closure = SemiGraphoidClosure({NormalizeTriple(0b001, 0b010, 0)}, 3);
  EXPECT_FALSE(Contains(closure, 0b001, 0b100, 0));
  EXPECT_FALSE(Contains(closure, 0b001, 0b010, 0b100));
  EXPECT_EQ(closure.size(), 1u);
}

TEST(ClosureTest, ClosureIsIdempotent) {
  std::vector<CiTriple> base = {NormalizeTriple(0b0001, 0b0110, 0b1000),
                                NormalizeTriple(0b0001, 0b1000, 0)};
  std::vector<CiTriple> once = SemiGraphoidClosure(base, 4);
  std::vector<CiTriple> twice = SemiGraphoidClosure(once, 4);
  std::set<CiTriple> a(once.begin(), once.end());
  std::set<CiTriple> b(twice.begin(), twice.end());
  EXPECT_EQ(a, b);
}

TEST(CheckConsistencyTest, DirectContradiction) {
  std::vector<StatisticalConstraint> constraints = {
      Independence({"X"}, {"Y"}),
      Dependence({"X"}, {"Y"}),
  };
  ConsistencyReport report = CheckConsistency(constraints).value();
  EXPECT_FALSE(report.consistent);
  ASSERT_EQ(report.conflicts.size(), 1u);
}

TEST(CheckConsistencyTest, SymmetricContradiction) {
  std::vector<StatisticalConstraint> constraints = {
      Independence({"X"}, {"Y"}),
      Dependence({"Y"}, {"X"}),
  };
  EXPECT_FALSE(CheckConsistency(constraints).value().consistent);
}

TEST(CheckConsistencyTest, DerivedContradictionViaDecomposition) {
  // X ⊥ {Y, W} entails X ⊥ Y, contradicting X ⊥̸ Y.
  std::vector<StatisticalConstraint> constraints = {
      Independence({"X"}, {"Y", "W"}),
      Dependence({"X"}, {"Y"}),
  };
  EXPECT_FALSE(CheckConsistency(constraints).value().consistent);
}

TEST(CheckConsistencyTest, DerivedContradictionViaContraction) {
  std::vector<StatisticalConstraint> constraints = {
      Independence({"A"}, {"B"}),
      Independence({"A"}, {"C"}, {"B"}),
      Dependence({"A"}, {"B", "C"}),
  };
  EXPECT_FALSE(CheckConsistency(constraints).value().consistent);
}

TEST(CheckConsistencyTest, ConsistentSetPasses) {
  std::vector<StatisticalConstraint> constraints = {
      Independence({"RowID"}, {"Price"}),
      Dependence({"Model"}, {"Price"}),
      Independence({"Color"}, {"Price"}, {"Model"}),
  };
  ConsistencyReport report = CheckConsistency(constraints).value();
  EXPECT_TRUE(report.consistent);
  EXPECT_TRUE(report.conflicts.empty());
}

TEST(CheckConsistencyTest, RejectsOverlappingSets) {
  std::vector<StatisticalConstraint> bad = {Independence({"X"}, {"Y"}, {"X"})};
  // Construct overlap manually (the parser would reject it too).
  bad[0].z = {"X"};
  EXPECT_FALSE(CheckConsistency(bad).ok());
}

TEST(CheckConsistencyTest, TooManyVariablesRejected) {
  std::vector<StatisticalConstraint> constraints;
  for (int i = 0; i < 9; ++i) {
    constraints.push_back(Independence({std::string("A").append(std::to_string(i))},
                                       {std::string("B").append(std::to_string(i))}));
  }
  Result<ConsistencyReport> r = CheckConsistency(constraints);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace scoded
