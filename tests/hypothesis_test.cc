#include "stats/hypothesis.h"

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "table/table.h"

namespace scoded {
namespace {

// Two categorical columns with a strong dependence (y copies x mostly).
Table DependentCategoricalTable(size_t n, double noise, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> x;
  std::vector<std::string> y;
  for (size_t i = 0; i < n; ++i) {
    std::string xv = rng.Bernoulli(0.5) ? "a" : "b";
    std::string yv = rng.Bernoulli(noise) ? (rng.Bernoulli(0.5) ? "p" : "q")
                                          : (xv == "a" ? "p" : "q");
    x.push_back(xv);
    y.push_back(yv);
  }
  TableBuilder builder;
  builder.AddCategorical("x", x);
  builder.AddCategorical("y", y);
  return std::move(builder).Build().value();
}

Table IndependentCategoricalTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> x;
  std::vector<std::string> y;
  for (size_t i = 0; i < n; ++i) {
    x.push_back(rng.Bernoulli(0.5) ? "a" : "b");
    y.push_back(rng.Bernoulli(0.5) ? "p" : "q");
  }
  TableBuilder builder;
  builder.AddCategorical("x", x);
  builder.AddCategorical("y", y);
  return std::move(builder).Build().value();
}

TEST(GTestTest, DetectsStrongDependence) {
  Table t = DependentCategoricalTable(500, 0.1, 1);
  TestResult r = IndependenceTest(t, 0, 1, {}).value();
  EXPECT_EQ(r.method, TestMethod::kGTest);
  EXPECT_LT(r.p_value, 1e-6);
  EXPECT_GT(r.effect, 0.5);
}

TEST(GTestTest, AcceptsIndependence) {
  Table t = IndependentCategoricalTable(500, 2);
  TestResult r = IndependenceTest(t, 0, 1, {}).value();
  EXPECT_GT(r.p_value, 0.01);
}

TEST(GTestTest, FlagsSmallExpectedCounts) {
  TableBuilder builder;
  builder.AddCategorical("x", {"a", "a", "b"});
  builder.AddCategorical("y", {"p", "q", "p"});
  Table t = std::move(builder).Build().value();
  TestResult r = IndependenceTest(t, 0, 1, {}).value();
  EXPECT_TRUE(r.approximation_suspect);
}

TEST(TauTestTest, DetectsMonotoneDependence) {
  Rng rng(3);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    double v = rng.Normal();
    x.push_back(v);
    y.push_back(v + rng.Normal(0.0, 0.3));
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  Table t = std::move(builder).Build().value();
  TestResult r = IndependenceTest(t, 0, 1, {}).value();
  EXPECT_EQ(r.method, TestMethod::kTauTest);
  EXPECT_LT(r.p_value, 1e-10);
  EXPECT_GT(r.effect, 0.5);
}

TEST(TauTestTest, AcceptsIndependentNumeric) {
  Rng rng(4);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    x.push_back(rng.Normal());
    y.push_back(rng.Normal());
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  Table t = std::move(builder).Build().value();
  TestResult r = IndependenceTest(t, 0, 1, {}).value();
  EXPECT_GT(r.p_value, 0.01);
}

TEST(TauTestTest, UsesExactNullForSmallTieFreeSamples) {
  std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> y = {2, 1, 4, 3, 6, 5, 8, 7};
  TestResult r = TauTestIndependence(x, y);
  EXPECT_TRUE(r.used_exact);
  EXPECT_GT(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
}

TEST(TauTestTest, SmallTiedSamplesAreFlagged) {
  std::vector<double> x = {1, 1, 2, 3, 4, 5};
  std::vector<double> y = {2, 1, 4, 3, 6, 5};
  TestResult r = TauTestIndependence(x, y);
  EXPECT_FALSE(r.used_exact);
  EXPECT_TRUE(r.approximation_suspect);
}

TEST(SpearmanOptionTest, AlternativeNumericMethod) {
  Rng rng(15);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    double v = rng.Normal();
    x.push_back(v);
    y.push_back(v * v * v + rng.Normal(0.0, 0.2));  // monotone nonlinear
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  Table t = std::move(builder).Build().value();
  TestOptions options;
  options.numeric_method = NumericMethod::kSpearman;
  TestResult r = IndependenceTest(t, 0, 1, {}, options).value();
  EXPECT_EQ(r.method, TestMethod::kSpearmanTest);
  EXPECT_LT(r.p_value, 1e-10);
  EXPECT_GT(r.effect, 0.9);
  // Kendall agrees on the decision.
  TestResult kendall = IndependenceTest(t, 0, 1, {}).value();
  EXPECT_LT(kendall.p_value, 1e-10);
}

TEST(SpearmanOptionTest, ConditionalTestsStayKendall) {
  Rng rng(16);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<std::string> z;
  for (int i = 0; i < 120; ++i) {
    double v = rng.Normal();
    x.push_back(v);
    y.push_back(v + rng.Normal(0.0, 0.3));
    z.push_back(i % 2 == 0 ? "a" : "b");
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  builder.AddCategorical("z", z);
  Table t = std::move(builder).Build().value();
  TestOptions options;
  options.numeric_method = NumericMethod::kSpearman;
  TestResult r = IndependenceTest(t, 0, 1, {2}, options).value();
  EXPECT_EQ(r.method, TestMethod::kTauTest);
}

TEST(MixedTest, NumericPairedWithCategoricalUsesDiscretisedG) {
  Rng rng(5);
  std::vector<double> x;
  std::vector<std::string> y;
  for (int i = 0; i < 400; ++i) {
    double v = rng.Normal();
    x.push_back(v);
    y.push_back(v > 0 ? "pos" : "neg");
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddCategorical("y", y);
  Table t = std::move(builder).Build().value();
  TestResult r = IndependenceTest(t, 0, 1, {}).value();
  EXPECT_EQ(r.method, TestMethod::kGTest);
  EXPECT_LT(r.p_value, 1e-10);
}

TEST(ConditionalTest, DependenceExplainedByConfounder) {
  // x and y both copy z; conditioned on z they are independent.
  Rng rng(6);
  std::vector<std::string> z;
  std::vector<std::string> x;
  std::vector<std::string> y;
  for (int i = 0; i < 1000; ++i) {
    std::string zv = rng.Bernoulli(0.5) ? "u" : "v";
    auto noisy_copy = [&](const std::string& base) {
      if (rng.Bernoulli(0.2)) {
        return std::string(rng.Bernoulli(0.5) ? "u" : "v");
      }
      return base;
    };
    z.push_back(zv);
    x.push_back(noisy_copy(zv));
    y.push_back(noisy_copy(zv));
  }
  TableBuilder builder;
  builder.AddCategorical("x", x);
  builder.AddCategorical("y", y);
  builder.AddCategorical("z", z);
  Table t = std::move(builder).Build().value();
  TestResult marginal = IndependenceTest(t, 0, 1, {}).value();
  TestResult conditional = IndependenceTest(t, 0, 1, {2}).value();
  EXPECT_LT(marginal.p_value, 1e-6);       // marginally dependent
  EXPECT_GT(conditional.p_value, 0.001);   // conditionally independent
  EXPECT_EQ(conditional.strata_used, 2u);
}

TEST(ConditionalTest, TauStratifiedCombination) {
  // Within each stratum y follows x; strata have different offsets.
  Rng rng(7);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<std::string> z;
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 80; ++i) {
      double v = rng.Normal();
      x.push_back(v);
      y.push_back(v + 100.0 * s + rng.Normal(0.0, 0.2));
      z.emplace_back("s").append(std::to_string(s));
    }
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  builder.AddCategorical("z", z);
  Table t = std::move(builder).Build().value();
  TestResult r = IndependenceTest(t, 0, 1, {2}).value();
  EXPECT_EQ(r.method, TestMethod::kTauTest);
  EXPECT_EQ(r.strata_used, 3u);
  EXPECT_LT(r.p_value, 1e-10);
}

TEST(ConditionalTest, TinyStrataAreSkipped) {
  TableBuilder builder;
  builder.AddNumeric("x", {1, 2, 3, 4, 5});
  builder.AddNumeric("y", {1, 2, 3, 4, 5});
  builder.AddCategorical("z", {"a", "a", "a", "a", "b"});
  Table t = std::move(builder).Build().value();
  TestResult r = IndependenceTest(t, 0, 1, {2}).value();
  EXPECT_EQ(r.strata_used, 1u);
  EXPECT_EQ(r.strata_skipped, 1u);
}

TEST(IndependenceTestTest, ValidatesArguments) {
  Table t = IndependentCategoricalTable(10, 8);
  EXPECT_FALSE(IndependenceTest(t, 0, 0, {}).ok());
  EXPECT_FALSE(IndependenceTest(t, 0, 5, {}).ok());
  EXPECT_FALSE(IndependenceTest(t, 0, 1, {0}).ok());
  EXPECT_FALSE(IndependenceTest(t, -1, 1, {}).ok());
}

TEST(IndependenceTestTest, NullCellsExcluded) {
  TableBuilder builder;
  builder.AddNumericWithNulls("x", {1, 2, 3, 4, 0}, {true, true, true, true, false});
  builder.AddNumeric("y", {1, 2, 3, 4, 5});
  Table t = std::move(builder).Build().value();
  TestResult r = IndependenceTest(t, 0, 1, {}).value();
  EXPECT_EQ(r.n, 4);
}

TEST(PermutationTest, AgreesWithAsymptoticDirectionally) {
  Table dependent = DependentCategoricalTable(300, 0.1, 9);
  Table independent = IndependentCategoricalTable(300, 10);
  Rng rng(11);
  TestResult dep = PermutationIndependenceTest(dependent, 0, 1, {}, 200, rng).value();
  TestResult ind = PermutationIndependenceTest(independent, 0, 1, {}, 200, rng).value();
  EXPECT_LT(dep.p_value, 0.05);
  EXPECT_GT(ind.p_value, 0.05);
  EXPECT_EQ(dep.method, TestMethod::kPermutation);
}

TEST(PermutationTest, NumericPath) {
  Rng data_rng(12);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    double v = data_rng.Normal();
    x.push_back(v);
    y.push_back(v + data_rng.Normal(0.0, 0.2));
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  Table t = std::move(builder).Build().value();
  Rng rng(13);
  TestResult r = PermutationIndependenceTest(t, 0, 1, {}, 300, rng).value();
  EXPECT_LT(r.p_value, 0.05);
}

TEST(PermutationTest, ZeroIterationsRejected) {
  Table t = IndependentCategoricalTable(20, 14);
  Rng rng(15);
  EXPECT_FALSE(PermutationIndependenceTest(t, 0, 1, {}, 0, rng).ok());
}

// The G fallback's original kernel, kept here as the oracle for the
// grouped-count one: a std::map of joint cells rebuilt per evaluation and
// summed in ascending (x, y) key order. `ties` receives the number of
// permutations whose statistic equals the observed one exactly.
double MapFallbackPValue(const std::vector<PermutationStratum>& strata, size_t iterations,
                         uint64_t seed, size_t* ties) {
  auto joint_xlogx = [](const std::vector<int32_t>& x, const std::vector<int32_t>& y) {
    std::map<int64_t, int64_t> cells;
    for (size_t i = 0; i < x.size(); ++i) {
      ++cells[(static_cast<int64_t>(x[i]) << 32) | static_cast<uint32_t>(y[i])];
    }
    double sum = 0.0;
    for (const auto& [key, count] : cells) {
      (void)key;
      double c = static_cast<double>(count);
      sum += c * std::log(c);
    }
    return sum;
  };
  double observed = 0.0;
  for (const PermutationStratum& s : strata) {
    observed += joint_xlogx(s.x, s.y);
  }
  Rng rng(seed);
  size_t at_least = 0;
  *ties = 0;
  std::vector<PermutationStratum> permuted = strata;
  for (size_t iter = 0; iter < iterations; ++iter) {
    double stat = 0.0;
    for (PermutationStratum& s : permuted) {
      rng.Shuffle(s.y);
      stat += joint_xlogx(s.x, s.y);
    }
    at_least += stat >= observed ? 1 : 0;
    *ties += stat == observed ? 1 : 0;
  }
  return (static_cast<double>(at_least) + 1.0) / (static_cast<double>(iterations) + 1.0);
}

// `count` distinct codes: 0..count-1, or spread over [0, 65535] so the
// code space has wide gaps.
std::vector<int32_t> CodeAlphabet(Rng& rng, size_t count, bool gappy) {
  std::vector<int32_t> codes;
  if (!gappy) {
    for (size_t i = 0; i < count; ++i) {
      codes.push_back(static_cast<int32_t>(i));
    }
    return codes;
  }
  for (size_t i : rng.SampleWithoutReplacement(65536, count)) {
    codes.push_back(static_cast<int32_t>(i));
  }
  return codes;
}

int32_t DrawCode(Rng& rng, const std::vector<int32_t>& alphabet) {
  return alphabet[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))];
}

// Asserts the kernel's p-value has the oracle's exact bits; returns the
// oracle's tie count.
size_t ExpectMatchesOracle(const std::vector<PermutationStratum>& strata, size_t iterations,
                           uint64_t seed, const std::string& label) {
  size_t ties = 0;
  double want = MapFallbackPValue(strata, iterations, seed, &ties);
  double got = GPermutationFallbackPValue(strata, iterations, seed);
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
      << label << " iterations=" << iterations << ": oracle " << want << " vs " << got;
  return ties;
}

TEST(GPermutationFallbackTest, MatchesMapOracleOnRandomStrata) {
  Rng rng(20240);
  for (int trial = 0; trial < 36; ++trial) {
    // 1..60 strata, pinned at both ends by the first two trials.
    size_t num_strata = static_cast<size_t>(rng.UniformInt(1, 60));
    num_strata = trial == 0 ? 1 : trial == 1 ? 60 : num_strata;
    bool gappy = trial % 2 == 0;
    std::vector<int32_t> x_codes =
        CodeAlphabet(rng, static_cast<size_t>(rng.UniformInt(1, 30)), gappy);
    // Every fifth trial has one y code: all-equal y in every stratum.
    std::vector<int32_t> y_codes =
        CodeAlphabet(rng, trial % 5 == 0 ? 1 : static_cast<size_t>(rng.UniformInt(1, 30)), gappy);
    std::vector<PermutationStratum> strata(num_strata);
    for (PermutationStratum& s : strata) {
      int64_t shape = rng.UniformInt(0, 9);
      size_t rows = shape == 0 ? 0 : shape == 1 ? 1 : static_cast<size_t>(rng.UniformInt(2, 40));
      for (size_t i = 0; i < rows; ++i) {
        s.x.push_back(DrawCode(rng, x_codes));
        s.y.push_back(DrawCode(rng, y_codes));
      }
    }
    for (size_t iterations : {size_t{1}, size_t{200}}) {
      ExpectMatchesOracle(strata, iterations, 7000 + static_cast<uint64_t>(trial),
                          "trial " + std::to_string(trial));
    }
  }
}

TEST(GPermutationFallbackTest, MatchesMapOracleOnDegenerateStrata) {
  std::vector<PermutationStratum> none;
  ExpectMatchesOracle(none, 200, 1, "no strata");
  std::vector<PermutationStratum> empty_and_single(3);
  empty_and_single[1].x = {65535};
  empty_and_single[1].y = {0};
  ExpectMatchesOracle(empty_and_single, 200, 2, "empty and one-row strata");
  PermutationStratum all_equal;
  all_equal.x = {0, 65535, 0, 4, 65535, 0};
  all_equal.y = {9, 9, 9, 9, 9, 9};
  ExpectMatchesOracle({all_equal}, 200, 3, "all-equal y");
}

// n = 60 rows over a codes × codes table, one stratum per trial. Returns
// the fraction of permutations that tied the observed statistic exactly.
double TieHeavyTrials(int codes, uint64_t seed) {
  Rng rng(seed);
  size_t ties = 0;
  size_t permutations = 0;
  for (int trial = 0; trial < 20; ++trial) {
    PermutationStratum s;
    for (int i = 0; i < 60; ++i) {
      s.x.push_back(static_cast<int32_t>(rng.UniformInt(0, codes - 1)));
      s.y.push_back(static_cast<int32_t>(rng.UniformInt(0, codes - 1)));
    }
    for (size_t iterations : {size_t{1}, size_t{200}}) {
      ties += ExpectMatchesOracle({s}, iterations, seed + static_cast<uint64_t>(trial),
                                  std::to_string(codes) + "x" + std::to_string(codes) +
                                      " trial " + std::to_string(trial));
      permutations += iterations;
    }
  }
  return static_cast<double>(ties) / static_cast<double>(permutations);
}

TEST(GPermutationFallbackTest, MatchesMapOracleOnTieHeavyTables) {
  // Over 30×30 codes nearly every cell holds one or two rows: about a
  // fifth of permutations tie the observed statistic exactly, so the `>=`
  // decision is taken on exact equality over and over.
  EXPECT_GT(TieHeavyTrials(30, 606), 0.1) << "the fixture stopped producing exact ties";
  // Those ties are sums of equal 2·ln 2 terms, which no summation order
  // can tell apart. Over 10×10 codes the cells mix counts 1–4, ties are
  // rarer, and summing the same cells in another order (descending y)
  // changes the p-value of about half such tables — so this case is the
  // one that pins the ascending (x, y) order bit for bit.
  EXPECT_GT(TieHeavyTrials(10, 1010), 0.005) << "the fixture stopped producing exact ties";
}

}  // namespace
}  // namespace scoded
