// Statistical conformance: a test run at level α must reject a true null
// about α of the time. Bit-identity tests show results are reproducible;
// this suite checks they are right.
//
// G permutation fallback slice: independent categorical x and y in the
// sparse, high-cardinality shapes where the χ² tail is grossly inadequate
// and IndependenceTest (default options) takes the Sec. 4.3 Monte-Carlo
// fallback. At each α the rejection count over the replicates must not
// exceed the upper end of the two-sided 99.9% binomial band, and on the
// two denser shapes it must lie inside the band.
//
// The sparsest shapes are conservative by design. With n = 60 over 30×30
// codes nearly every cell holds one row, so many permuted statistics tie
// the observed one exactly, and ties count as "at least as extreme": run
// with 1000 replicates from this seed, its rejection rates were
// 0.007 / 0.036 / 0.222 at α = 0.01 / 0.05 / 0.3. Only the upper limit
// applies to those shapes.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stats/hypothesis.h"
#include "table/table.h"

namespace scoded {
namespace {

constexpr int kReplicates = 400;
constexpr double kAlphas[] = {0.01, 0.05, 0.3};

// Two-sided 99.9% band [lo, hi] of a Binomial(n, p) count: the tightest
// limits with P(R < lo) <= 0.0005 and P(R > hi) <= 0.0005.
struct Band {
  int lo = 0;
  int hi = 0;
};

Band BinomialBand(int n, double p) {
  std::vector<double> pmf(static_cast<size_t>(n) + 1);
  for (int k = 0; k <= n; ++k) {
    double log_pmf = std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0) +
                     k * std::log(p) + (n - k) * std::log1p(-p);
    pmf[static_cast<size_t>(k)] = std::exp(log_pmf);
  }
  Band band;
  double below = 0.0;  // P(R < lo)
  while (band.lo < n && below + pmf[static_cast<size_t>(band.lo)] <= 0.0005) {
    below += pmf[static_cast<size_t>(band.lo)];
    ++band.lo;
  }
  band.hi = n;
  double above = 0.0;  // P(R > hi)
  while (band.hi > 0 && above + pmf[static_cast<size_t>(band.hi)] <= 0.0005) {
    above += pmf[static_cast<size_t>(band.hi)];
    --band.hi;
  }
  return band;
}

Table IndependentCodes(Rng& rng, int n, int x_levels, int y_levels) {
  std::vector<std::string> x;
  std::vector<std::string> y;
  for (int i = 0; i < n; ++i) {
    x.emplace_back("x").append(std::to_string(rng.UniformInt(0, x_levels - 1)));
    y.emplace_back("y").append(std::to_string(rng.UniformInt(0, y_levels - 1)));
  }
  TableBuilder builder;
  builder.AddCategorical("x", x);
  builder.AddCategorical("y", y);
  return std::move(builder).Build().value();
}

struct Shape {
  int n;
  int x_levels;
  int y_levels;
  bool two_sided;  // false: conservative by design, upper limit only
};

TEST(GFallbackCalibrationTest, RejectsTrueNullAtMostAlpha) {
  const Shape shapes[] = {
      {400, 100, 8, true},
      {100, 10, 10, true},
      {200, 50, 40, false},
      {60, 30, 30, false},
  };
  Rng rng(0xCA11B);
  for (const Shape& shape : shapes) {
    std::string label = "n=" + std::to_string(shape.n) + " |X|=" +
                        std::to_string(shape.x_levels) + " |Y|=" +
                        std::to_string(shape.y_levels);
    int rejections[3] = {0, 0, 0};
    for (int r = 0; r < kReplicates; ++r) {
      Table table = IndependentCodes(rng, shape.n, shape.x_levels, shape.y_levels);
      Result<TestResult> test = IndependenceTest(table, 0, 1);
      ASSERT_TRUE(test.ok()) << test.status().message();
      ASSERT_TRUE(test->used_exact) << label << " replicate " << r
                                    << " did not take the permutation fallback";
      for (int a = 0; a < 3; ++a) {
        rejections[a] += test->p_value < kAlphas[a] ? 1 : 0;
      }
    }
    std::printf("%s: rejection rates %.4f / %.4f / %.4f at alpha 0.01 / 0.05 / 0.3\n",
                label.c_str(), rejections[0] / static_cast<double>(kReplicates),
                rejections[1] / static_cast<double>(kReplicates),
                rejections[2] / static_cast<double>(kReplicates));
    for (int a = 0; a < 3; ++a) {
      Band band = BinomialBand(kReplicates, kAlphas[a]);
      EXPECT_LE(rejections[a], band.hi)
          << label << " alpha=" << kAlphas[a] << ": rejection rate "
          << static_cast<double>(rejections[a]) / kReplicates << " above the 99.9% band";
      if (shape.two_sided) {
        EXPECT_GE(rejections[a], band.lo)
            << label << " alpha=" << kAlphas[a] << ": rejection rate "
            << static_cast<double>(rejections[a]) / kReplicates << " below the 99.9% band";
      }
    }
  }
}

}  // namespace
}  // namespace scoded
