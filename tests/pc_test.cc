#include "discovery/pc.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "table/table.h"

namespace scoded {
namespace {

bool HasDirected(const PcResult& result, const std::string& from, const std::string& to) {
  auto index = [&](const std::string& name) {
    for (size_t i = 0; i < result.names.size(); ++i) {
      if (result.names[i] == name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  std::pair<int, int> edge{index(from), index(to)};
  return std::find(result.directed.begin(), result.directed.end(), edge) !=
         result.directed.end();
}

TEST(PcTest, ChainSkeletonAndSeparatingSet) {
  // a -> b -> c: skeleton a-b, b-c; a and c separated by {b}.
  Rng rng(1);
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> c;
  for (int i = 0; i < 600; ++i) {
    double av = rng.Normal();
    double bv = av + rng.Normal(0.0, 0.6);
    double cv = bv + rng.Normal(0.0, 0.6);
    a.push_back(av);
    b.push_back(bv);
    c.push_back(cv);
  }
  TableBuilder builder;
  builder.AddNumeric("a", a);
  builder.AddNumeric("b", b);
  builder.AddNumeric("c", c);
  Table table = std::move(builder).Build().value();
  PcResult result = LearnPcStructure(table).value();
  EXPECT_TRUE(result.IsAdjacent(0, 1));
  EXPECT_TRUE(result.IsAdjacent(1, 2));
  EXPECT_FALSE(result.IsAdjacent(0, 2));
  auto it = result.separating_sets.find({0, 2});
  ASSERT_NE(it, result.separating_sets.end());
  EXPECT_EQ(it->second, (std::vector<int>{1}));
  // No v-structure in a chain.
  EXPECT_TRUE(result.directed.empty());
}

TEST(PcTest, ColliderOriented) {
  // a -> c <- b with a, b independent: skeleton a-c, b-c; v-structure
  // oriented into c because the separating set of (a, b) is empty.
  Rng rng(2);
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> c;
  for (int i = 0; i < 600; ++i) {
    double av = rng.Normal();
    double bv = rng.Normal();
    a.push_back(av);
    b.push_back(bv);
    c.push_back(av + bv + rng.Normal(0.0, 0.4));
  }
  TableBuilder builder;
  builder.AddNumeric("a", a);
  builder.AddNumeric("b", b);
  builder.AddNumeric("c", c);
  Table table = std::move(builder).Build().value();
  PcResult result = LearnPcStructure(table).value();
  EXPECT_TRUE(result.IsAdjacent(0, 2));
  EXPECT_TRUE(result.IsAdjacent(1, 2));
  EXPECT_FALSE(result.IsAdjacent(0, 1));
  EXPECT_TRUE(HasDirected(result, "a", "c"));
  EXPECT_TRUE(HasDirected(result, "b", "c"));
}

TEST(PcTest, IsolatedVariableDisconnected) {
  Rng rng(3);
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> noise;
  for (int i = 0; i < 400; ++i) {
    double av = rng.Normal();
    a.push_back(av);
    b.push_back(av + rng.Normal(0.0, 0.5));
    noise.push_back(rng.Normal());
  }
  TableBuilder builder;
  builder.AddNumeric("a", a);
  builder.AddNumeric("b", b);
  builder.AddNumeric("noise", noise);
  Table table = std::move(builder).Build().value();
  PcResult result = LearnPcStructure(table).value();
  EXPECT_TRUE(result.IsAdjacent(0, 1));
  EXPECT_FALSE(result.IsAdjacent(0, 2));
  EXPECT_FALSE(result.IsAdjacent(1, 2));
}

TEST(PcTest, PrunedEdgesReachTheRegistry) {
  // Every skeleton edge PC removes is counted once, in
  // discovery.pc_edges_pruned: here a-noise and b-noise.
  Rng rng(3);
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> noise;
  for (int i = 0; i < 400; ++i) {
    double av = rng.Normal();
    a.push_back(av);
    b.push_back(av + rng.Normal(0.0, 0.5));
    noise.push_back(rng.Normal());
  }
  TableBuilder builder;
  builder.AddNumeric("a", a);
  builder.AddNumeric("b", b);
  builder.AddNumeric("noise", noise);
  Table table = std::move(builder).Build().value();
  const obs::Counter* pruned =
      obs::Metrics::Global().FindOrCreateCounter("discovery.pc_edges_pruned");
  const int64_t before = pruned->Value();
  PcResult result = LearnPcStructure(table).value();
  EXPECT_EQ(result.separating_sets.size(), 2u);
  EXPECT_EQ(pruned->Value() - before, 2);
}

TEST(PcTest, DiscoveredConstraintsCoverAllPairs) {
  Rng rng(4);
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> c;
  for (int i = 0; i < 300; ++i) {
    double av = rng.Normal();
    a.push_back(av);
    b.push_back(av + rng.Normal(0.0, 0.5));
    c.push_back(rng.Normal());
  }
  TableBuilder builder;
  builder.AddNumeric("a", a);
  builder.AddNumeric("b", b);
  builder.AddNumeric("c", c);
  Table table = std::move(builder).Build().value();
  PcResult result = LearnPcStructure(table).value();
  std::vector<StatisticalConstraint> constraints = result.DiscoveredConstraints();
  EXPECT_EQ(constraints.size(), 3u);  // one per pair
  size_t dependences = 0;
  for (const StatisticalConstraint& sc : constraints) {
    dependences += sc.is_independence() ? 0 : 1;
  }
  EXPECT_GE(dependences, 1u);
  EXPECT_LT(dependences, 3u);
}

TEST(PcTest, CategoricalVariablesSupported) {
  // x determines y probabilistically; z independent.
  Rng rng(5);
  std::vector<std::string> x;
  std::vector<std::string> y;
  std::vector<std::string> z;
  for (int i = 0; i < 800; ++i) {
    std::string xv = "x" + std::to_string(rng.UniformInt(0, 2));
    x.push_back(xv);
    y.push_back(rng.Bernoulli(0.8) ? "y" + xv.substr(1)
                                   : "y" + std::to_string(rng.UniformInt(0, 2)));
    z.push_back("z" + std::to_string(rng.UniformInt(0, 2)));
  }
  TableBuilder builder;
  builder.AddCategorical("x", x);
  builder.AddCategorical("y", y);
  builder.AddCategorical("z", z);
  Table table = std::move(builder).Build().value();
  PcResult result = LearnPcStructure(table).value();
  EXPECT_TRUE(result.IsAdjacent(0, 1));
  EXPECT_FALSE(result.IsAdjacent(0, 2));
  EXPECT_FALSE(result.IsAdjacent(1, 2));
}

TEST(PcTest, InvalidOptionsRejected) {
  TableBuilder builder;
  builder.AddNumeric("a", {1.0, 2.0});
  Table one_col = std::move(builder).Build().value();
  EXPECT_FALSE(LearnPcStructure(one_col).ok());
  TableBuilder two;
  two.AddNumeric("a", {1.0, 2.0});
  two.AddNumeric("b", {1.0, 2.0});
  Table table = std::move(two).Build().value();
  PcOptions bad;
  bad.alpha = 0.0;
  EXPECT_FALSE(LearnPcStructure(table, bad).ok());
}

}  // namespace
}  // namespace scoded
