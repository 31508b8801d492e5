#include "stats/kendall.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stats/hypothesis.h"
#include "table/table.h"

namespace scoded {
namespace {

TEST(KendallTest, PerfectConcordance) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {10, 20, 30, 40, 50};
  KendallResult r = KendallTau(x, y);
  EXPECT_EQ(r.concordant, 10);
  EXPECT_EQ(r.discordant, 0);
  EXPECT_DOUBLE_EQ(r.tau_a, 1.0);
  EXPECT_DOUBLE_EQ(r.tau_b, 1.0);
}

TEST(KendallTest, PerfectDiscordance) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {4, 3, 2, 1};
  KendallResult r = KendallTau(x, y);
  EXPECT_EQ(r.discordant, 6);
  EXPECT_DOUBLE_EQ(r.tau_a, -1.0);
}

TEST(KendallTest, KnownMixedExample) {
  // x = 1..5, y = (3, 1, 2, 5, 4): discordant pairs are (1,2), (1,3),
  // (4,5); the remaining 7 are concordant, so τ_a = (7-3)/10 = 0.4.
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {3, 1, 2, 5, 4};
  KendallResult r = KendallTau(x, y);
  EXPECT_EQ(r.concordant, 7);
  EXPECT_EQ(r.discordant, 3);
  EXPECT_DOUBLE_EQ(r.tau_a, 0.4);
}

TEST(KendallTest, TiesAccounting) {
  std::vector<double> x = {1, 1, 2, 2};
  std::vector<double> y = {1, 2, 1, 2};
  KendallResult r = KendallTau(x, y);
  // Pairs: (0,1) tied x, (2,3) tied x, (0,2) tied y, (1,3) tied y,
  // (0,3) concordant, (1,2) discordant.
  EXPECT_EQ(r.ties_x, 2);
  EXPECT_EQ(r.ties_y, 2);
  EXPECT_EQ(r.ties_xy, 0);
  EXPECT_EQ(r.concordant, 1);
  EXPECT_EQ(r.discordant, 1);
  EXPECT_EQ(r.s, 0);
  EXPECT_DOUBLE_EQ(r.tau_b, 0.0);
}

TEST(KendallTest, JointTies) {
  std::vector<double> x = {1, 1, 2};
  std::vector<double> y = {5, 5, 6};
  KendallResult r = KendallTau(x, y);
  EXPECT_EQ(r.ties_xy, 1);
  EXPECT_EQ(r.concordant, 2);
}

TEST(KendallTest, DegenerateSizes) {
  EXPECT_EQ(KendallTau({}, {}).n, 0);
  EXPECT_DOUBLE_EQ(KendallTau({}, {}).p_two_sided, 1.0);
  KendallResult one = KendallTau({1.0}, {2.0});
  EXPECT_EQ(one.s, 0);
  EXPECT_DOUBLE_EQ(one.p_two_sided, 1.0);
}

TEST(KendallTest, ConstantColumnAllTies) {
  std::vector<double> x = {1, 1, 1, 1};
  std::vector<double> y = {1, 2, 3, 4};
  KendallResult r = KendallTau(x, y);
  EXPECT_EQ(r.concordant + r.discordant, 0);
  EXPECT_DOUBLE_EQ(r.tau_b, 0.0);
  EXPECT_DOUBLE_EQ(r.p_two_sided, 1.0);  // Var(S) = 0
}

TEST(KendallTest, GaussianPValueMatchesKnownCase) {
  // For n=10 with S=27 (tau_a=0.6), z = 27/sqrt(125) ≈ 2.4150,
  // two-sided p ≈ 0.01573 (no ties: Var = n(n-1)(2n+5)/18 = 125).
  std::vector<double> x;
  std::vector<double> y = {3, 1, 2, 5, 4, 6, 8, 7, 10, 9};
  for (int i = 1; i <= 10; ++i) {
    x.push_back(i);
  }
  KendallResult r = KendallTauNaive(x, y);
  EXPECT_EQ(r.n, 10);
  EXPECT_DOUBLE_EQ(r.var_s, 125.0);
  EXPECT_NEAR(r.z, static_cast<double>(r.s) / std::sqrt(125.0), 1e-12);
}

// Property: the O(n log n) implementation agrees exactly with the O(n²)
// reference on random data with heavy, moderate, and no ties.
class KendallEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(KendallEquivalenceTest, FastMatchesNaive) {
  int tie_levels = GetParam();
  Rng rng(1234 + static_cast<uint64_t>(tie_levels));
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(2, 120));
    std::vector<double> x(n);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<double>(rng.UniformInt(0, tie_levels));
      y[i] = static_cast<double>(rng.UniformInt(0, tie_levels));
    }
    KendallResult fast = KendallTau(x, y);
    KendallResult naive = KendallTauNaive(x, y);
    EXPECT_EQ(fast.concordant, naive.concordant);
    EXPECT_EQ(fast.discordant, naive.discordant);
    EXPECT_EQ(fast.ties_x, naive.ties_x);
    EXPECT_EQ(fast.ties_y, naive.ties_y);
    EXPECT_EQ(fast.ties_xy, naive.ties_xy);
    EXPECT_NEAR(fast.tau_b, naive.tau_b, 1e-12);
    EXPECT_NEAR(fast.var_s, naive.var_s, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(TieDensity, KendallEquivalenceTest,
                         ::testing::Values(2, 5, 20, 1000000));

TEST(KendallExactTest, TinyCasesByEnumeration) {
  // n=3: S ∈ {3, 1, -1, -3} with probabilities {1/6, 2/6, 2/6, 1/6}.
  EXPECT_NEAR(KendallExactPValue(3, 3), 2.0 / 6.0, 1e-12);   // |S|>=3
  EXPECT_NEAR(KendallExactPValue(1, 3), 1.0, 1e-12);         // |S|>=1 (all)
  EXPECT_NEAR(KendallExactPValue(-3, 3), 2.0 / 6.0, 1e-12);  // symmetric
}

TEST(KendallExactTest, N4Enumeration) {
  // n=4: inversions distribution over 24 permutations:
  // D: 0,1,2,3,4,5,6 with counts 1,3,5,6,5,3,1; S = 6 - 2D.
  EXPECT_NEAR(KendallExactPValue(6, 4), 2.0 / 24.0, 1e-12);
  EXPECT_NEAR(KendallExactPValue(4, 4), 8.0 / 24.0, 1e-12);
  EXPECT_NEAR(KendallExactPValue(2, 4), 18.0 / 24.0, 1e-12);
  EXPECT_NEAR(KendallExactPValue(0, 4), 1.0, 1e-12);
}

TEST(KendallExactTest, ZeroSGivesPOne) {
  EXPECT_DOUBLE_EQ(KendallExactPValue(0, 7), 1.0);
}

TEST(KendallExactTest, ApproachesGaussianForModerateN) {
  // At n=40, |S|=158 (tau=0.2026...): exact and Gaussian p should agree to
  // a couple of decimal places.
  int64_t n = 40;
  int64_t s = 158;
  double exact = KendallExactPValue(s, n);
  double var = static_cast<double>(n) * (n - 1) * (2 * n + 5) / 18.0;
  double z = static_cast<double>(s) / std::sqrt(var);
  double gaussian = std::erfc(std::fabs(z) / std::sqrt(2.0));
  EXPECT_NEAR(exact, gaussian, 0.01);
}

// Oracle: the exact null of S from every permutation of n tie-free ranks.
// Each attainable s must get the fraction of permutations with |S| >= |s|.
TEST(KendallExactTest, MatchesPermutationEnumeration) {
  for (int n = 2; n <= 9; ++n) {
    const int max_s = n * (n - 1) / 2;
    std::vector<int64_t> count(static_cast<size_t>(2 * max_s + 1), 0);
    std::vector<int> perm(static_cast<size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    int64_t total = 0;
    do {
      int s = 0;
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          s += perm[static_cast<size_t>(j)] > perm[static_cast<size_t>(i)] ? 1 : -1;
        }
      }
      ++count[static_cast<size_t>(s + max_s)];
      ++total;
    } while (std::next_permutation(perm.begin(), perm.end()));
    for (int s = -max_s; s <= max_s; ++s) {
      if (count[static_cast<size_t>(s + max_s)] == 0) {
        continue;  // not attainable at this n
      }
      int64_t tail = 0;
      for (int t = -max_s; t <= max_s; ++t) {
        tail += std::abs(t) >= std::abs(s) ? count[static_cast<size_t>(t + max_s)] : 0;
      }
      EXPECT_NEAR(KendallExactPValue(s, n),
                  static_cast<double>(tail) / static_cast<double>(total), 1e-15)
          << "n=" << n << " s=" << s;
    }
  }
}

// Independent reference values: scipy.stats.kendalltau on the vectors of
// SNIPPETS.md snippet 2, through the same entry point the checker uses.
Result<TestResult> TauTest(std::vector<double> x, std::vector<double> y) {
  TableBuilder builder;
  builder.AddNumeric("x", std::move(x));
  builder.AddNumeric("y", std::move(y));
  Result<Table> table = std::move(builder).Build();
  if (!table.ok()) {
    return table.status();
  }
  return IndependenceTest(*table, 0, 1, {});
}

TEST(KendallReferenceTest, UntiedExactPValueMatchesScipy) {
  Result<TestResult> test = TauTest({17, 86, 60, 77, 47, 3, 70, 87, 88, 92},
                                    {70, 29, 85, 61, 80, 34, 60, 31, 73, 66});
  ASSERT_TRUE(test.ok()) << test.status().ToString();
  EXPECT_EQ(test->method, TestMethod::kTauTest);
  EXPECT_TRUE(test->used_exact);
  EXPECT_NEAR(test->effect, -0.06666666666666667, 1e-15);
  EXPECT_NEAR(test->p_value, 0.8618005952380953, 1e-15);
}

TEST(KendallReferenceTest, TiedGaussianPValueMatchesScipy) {
  Result<TestResult> test = TauTest({17, 86, 60, 77, 47, 3, 70, 47, 88, 92},
                                    {70, 29, 85, 61, 80, 34, 60, 31, 73, 66});
  ASSERT_TRUE(test.ok()) << test.status().ToString();
  EXPECT_EQ(test->method, TestMethod::kTauTest);
  EXPECT_FALSE(test->used_exact);
  EXPECT_NEAR(test->effect, 0.04494665749754947, 1e-15);
  EXPECT_NEAR(test->p_value, 0.8574624419592412, 1e-15);
}

TEST(PairWeightTest, AllCases) {
  EXPECT_EQ(PairWeight(1, 1, 2, 2), 1);
  EXPECT_EQ(PairWeight(2, 2, 1, 1), 1);
  EXPECT_EQ(PairWeight(1, 2, 2, 1), -1);
  EXPECT_EQ(PairWeight(1, 1, 1, 2), 0);
  EXPECT_EQ(PairWeight(1, 1, 2, 1), 0);
  EXPECT_EQ(PairWeight(1, 1, 1, 1), 0);
}

TEST(TauBenefitsTest, SumIsTwiceS) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(2, 200));
    std::vector<double> x(n);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<double>(rng.UniformInt(0, 30));
      y[i] = static_cast<double>(rng.UniformInt(0, 30));
    }
    std::vector<int64_t> benefits = ComputeTauBenefits(x, y);
    int64_t sum = 0;
    for (int64_t b : benefits) {
      sum += b;
    }
    EXPECT_EQ(sum, 2 * KendallTauNaive(x, y).s);
  }
}

// Property: the segment-tree initialisation (Algorithm 2) matches the
// O(n²) definition of per-record benefits, including under ties.
class TauBenefitsEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(TauBenefitsEquivalenceTest, SegmentTreeMatchesNaive) {
  Rng rng(31 + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 15; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(1, 150));
    std::vector<double> x(n);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<double>(rng.UniformInt(0, GetParam()));
      y[i] = static_cast<double>(rng.UniformInt(0, GetParam()));
    }
    EXPECT_EQ(ComputeTauBenefits(x, y), ComputeTauBenefitsNaive(x, y));
  }
}

INSTANTIATE_TEST_SUITE_P(TieDensity, TauBenefitsEquivalenceTest,
                         ::testing::Values(1, 3, 10, 100000));

void ExpectSameKendall(const KendallResult& a, const KendallResult& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.concordant, b.concordant);
  EXPECT_EQ(a.discordant, b.discordant);
  EXPECT_EQ(a.ties_x, b.ties_x);
  EXPECT_EQ(a.ties_y, b.ties_y);
  EXPECT_EQ(a.ties_xy, b.ties_xy);
  EXPECT_EQ(a.s, b.s);
  // Bit-identical by contract: the floats derive from the same integer
  // counts through CompleteKendallResult.
  EXPECT_EQ(a.tau_a, b.tau_a);
  EXPECT_EQ(a.tau_b, b.tau_b);
  EXPECT_EQ(a.var_s, b.var_s);
  EXPECT_EQ(a.z, b.z);
  EXPECT_EQ(a.p_two_sided, b.p_two_sided);
}

// Property: the weighted-point form used by out-of-core shard summaries
// matches KendallTau (and the naive reference) on any expansion of the
// points, in any row order, with unsorted and duplicated points.
TEST(KendallFromCountsTest, MatchesExpandedComputationExactly) {
  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    size_t m = static_cast<size_t>(rng.UniformInt(1, 40));
    std::vector<WeightedPoint> points;
    std::vector<double> x;
    std::vector<double> y;
    for (size_t i = 0; i < m; ++i) {
      WeightedPoint p;
      p.x = static_cast<double>(rng.UniformInt(0, 6));
      p.y = static_cast<double>(rng.UniformInt(0, 6));
      p.count = rng.UniformInt(1, 4);
      for (int64_t c = 0; c < p.count; ++c) {
        x.push_back(p.x);
        y.push_back(p.y);
      }
      points.push_back(p);
    }
    // Shuffle the expanded rows (jointly): row order must not matter.
    std::vector<size_t> order(x.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    rng.Shuffle(order);
    std::vector<double> sx(x.size());
    std::vector<double> sy(y.size());
    for (size_t i = 0; i < order.size(); ++i) {
      sx[i] = x[order[i]];
      sy[i] = y[order[i]];
    }
    KendallResult expected = KendallTau(sx, sy);
    ExpectSameKendall(expected, KendallTauFromCounts(points));
    ExpectSameKendall(expected, KendallTauNaive(sx, sy));
  }
}

TEST(KendallFromCountsTest, NanCoordinatesOrderAfterNumbers) {
  double nan = std::nan("");
  std::vector<WeightedPoint> points = {
      {1.0, 2.0, 2}, {nan, 2.0, 1}, {3.0, nan, 2}, {nan, nan, 1}, {2.0, 1.0, 3},
  };
  std::vector<double> x;
  std::vector<double> y;
  for (const WeightedPoint& p : points) {
    for (int64_t c = 0; c < p.count; ++c) {
      x.push_back(p.x);
      y.push_back(p.y);
    }
  }
  ExpectSameKendall(KendallTau(x, y), KendallTauFromCounts(points));
}

}  // namespace
}  // namespace scoded
