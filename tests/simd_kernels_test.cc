// The stat kernels' contract (stats/simd.h): each production kernel
// returns exactly what its per-row reference returns on any input —
// cardinalities at and around 8- and 16-bit boundaries, nulls inside a
// 64-row block, whole null blocks and all-null columns, lengths around
// the block size, NaNs, infinities, signed zeros and ties — and the pair
// scan's portable and AVX2 bodies agree with an independent sign-product
// formulation.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stats/contingency.h"
#include "stats/simd.h"

namespace scoded {
namespace {

// Random codes in [0, cardinality).
std::vector<int32_t> RandomCodes(size_t n, size_t cardinality, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> codes(n);
  for (int32_t& c : codes) {
    c = static_cast<int32_t>(rng.UniformInt(0, static_cast<int64_t>(cardinality) - 1));
  }
  return codes;
}

// Where the nulls of one contingency case sit.
enum class Nulls { kNone, kInsideBlock, kWholeBlocks, kAll };

const char* NullsName(Nulls nulls) {
  switch (nulls) {
    case Nulls::kNone:
      return "no nulls";
    case Nulls::kInsideBlock:
      return "null inside a block";
    case Nulls::kWholeBlocks:
      return "whole null blocks";
    case Nulls::kAll:
      return "all nulls";
  }
  return "?";
}

// Nulls `codes` (one column of a pair) in the given pattern; `column`
// offsets the rows so the two columns' nulls fall on different rows.
void ApplyNulls(Nulls nulls, int column, std::vector<int32_t>* codes) {
  for (size_t i = 0; i < codes->size(); ++i) {
    bool null = false;
    switch (nulls) {
      case Nulls::kNone:
        break;
      case Nulls::kInsideBlock:
        null = i % 64 == static_cast<size_t>(17 + 20 * column);
        break;
      case Nulls::kWholeBlocks:
        null = (i / 64) % 3 == static_cast<size_t>(column);
        break;
      case Nulls::kAll:
        null = true;
        break;
    }
    if (null) {
      (*codes)[i] = -1 - column;
    }
  }
}

TEST(SimdKernelEquivalenceTest, ContingencyMatchesReference) {
  for (size_t cx : {size_t{1}, size_t{255}, size_t{256}, size_t{65535}, size_t{65536},
                    size_t{100000}}) {
    // X at the cardinality under test against an 8-category Y, and the
    // transpose, so both code columns take every cardinality.
    for (const auto& [nx, ny] : {std::pair{cx, size_t{8}}, std::pair{size_t{8}, cx}}) {
      for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65}, size_t{1000}}) {
        for (Nulls nulls : {Nulls::kNone, Nulls::kInsideBlock, Nulls::kWholeBlocks, Nulls::kAll}) {
          std::vector<int32_t> x = RandomCodes(n, nx, nx + n);
          std::vector<int32_t> y = RandomCodes(n, ny, ny + n + 1);
          ApplyNulls(nulls, 0, &x);
          ApplyNulls(nulls, 1, &y);
          std::vector<int64_t> want(nx * ny, 0);
          simd::ContingencyReference(x.data(), y.data(), n, nx, ny, want.data());
          std::vector<int64_t> got(nx * ny, 0);
          simd::Contingency(x.data(), y.data(), n, nx, ny, got.data());
          EXPECT_EQ(got, want) << nx << "x" << ny << " n=" << n << " " << NullsName(nulls);
        }
      }
    }
  }
}

TEST(SimdKernelEquivalenceTest, DenseRanksMatchesReferenceOnHostileInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> cases = {
      {},
      {1.0},
      {3.0, 1.0, 2.0, 1.0, 3.0},
      {0.0, -0.0, 1.0, -0.0},          // signed zeros share one rank
      {nan, 1.0, nan, -inf, inf, 2.0}, // NaNs sort last, share one rank
      std::vector<double>(50, 7.5),    // single tie group
  };
  Rng rng(99);
  std::vector<double> big(5000);
  for (double& v : big) {
    v = (rng.UniformInt(0, 2) == 0) ? static_cast<double>(rng.UniformInt(0, 99)) : rng.Normal();
  }
  cases.push_back(std::move(big));
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::vector<double>& values = cases[i];
    std::vector<size_t> want(values.size());
    size_t want_distinct = simd::DenseRanksReference(values.data(), values.size(), want.data());
    std::vector<size_t> got(values.size());
    size_t got_distinct = simd::DenseRanks(values.data(), values.size(), got.data());
    EXPECT_EQ(got, want) << "case=" << i;
    EXPECT_EQ(got_distinct, want_distinct) << "case=" << i;
  }
}

TEST(SimdKernelEquivalenceTest, CountInversionsMatchesReference) {
  Rng rng(7);
  std::vector<std::vector<uint32_t>> cases = {
      {},
      {5},
      {1, 2, 3, 4, 5},
      {5, 4, 3, 2, 1},
      {2, 2, 2, 2},
  };
  std::vector<uint32_t> random(3000);
  for (uint32_t& v : random) {
    v = static_cast<uint32_t>(rng.UniformInt(0, 500));
  }
  cases.push_back(std::move(random));
  for (size_t i = 0; i < cases.size(); ++i) {
    std::vector<uint32_t> want_sorted = cases[i];
    std::vector<uint32_t> scratch(cases[i].size());
    int64_t want =
        simd::CountInversionsReference(want_sorted.data(), scratch.data(), want_sorted.size());
    EXPECT_TRUE(std::is_sorted(want_sorted.begin(), want_sorted.end())) << "case=" << i;
    std::vector<uint32_t> got_sorted = cases[i];
    int64_t got = simd::CountInversions(got_sorted.data(), scratch.data(), got_sorted.size());
    EXPECT_EQ(got, want) << "case=" << i;
    EXPECT_EQ(got_sorted, want_sorted) << "case=" << i;
  }
}

// Sign of a difference, NaN as 0. x - a has the sign of the comparison
// for every pair of doubles (gradual underflow keeps a difference of
// distinct finite values non-zero, and overflow keeps its sign), so this
// formulation shares no code with either pair-scan body.
int SignOfDifference(double x, double a) {
  double d = x - a;
  return d > 0.0 ? 1 : (d < 0.0 ? -1 : 0);
}

void PairSignScanReference(const double* xs, const double* ys, size_t n, double x, double y,
                           int64_t* s, int64_t* nonzero) {
  *s = 0;
  *nonzero = 0;
  for (size_t i = 0; i < n; ++i) {
    int p = SignOfDifference(x, xs[i]) * SignOfDifference(y, ys[i]);
    *s += p;
    *nonzero += p != 0 ? 1 : 0;
  }
}

TEST(SimdKernelEquivalenceTest, PairSignScanBodiesMatchReference) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(13);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(rng.UniformInt(0, 1) ? static_cast<double>(rng.UniformInt(-3, 3)) : rng.Normal());
    ys.push_back(rng.UniformInt(0, 1) ? static_cast<double>(rng.UniformInt(-3, 3)) : rng.Normal());
  }
  // NaN pairs contribute 0; infinities tie only with themselves; -0.0
  // ties with 0.0.
  xs[1] = nan;
  ys[2] = nan;
  xs[5] = inf;
  ys[6] = -inf;
  xs[9] = -0.0;
  ys[9] = 0.0;
  xs[10] = 0.0;
  ys[10] = -0.0;
  struct Body {
    const char* name;
    void (*scan)(const double*, const double*, size_t, double, double, int64_t*, int64_t*);
  };
  std::vector<Body> bodies = {{"portable", simd::PairSignScanPortable},
                              {"dispatched", simd::PairSignScan}};
#if defined(SCODED_X86)
  if (__builtin_cpu_supports("avx2")) {
    bodies.push_back({"avx2", simd::PairSignScanAvx2});
  }
#endif
  // Probe points: data values (exact ties), fresh values, NaN, ±inf and
  // both zeros.
  const std::pair<double, double> probes[] = {
      {xs[0], ys[0]}, {0.5, -0.25}, {nan, 1.0},  {1.0, nan},  {-2.0, 2.0},
      {inf, -inf},    {-inf, inf},  {0.0, -0.0}, {-0.0, 0.0}, {xs[5], ys[6]}};
  for (const auto& [px, py] : probes) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5}, size_t{11},
                     xs.size()}) {
      int64_t want_s = 0;
      int64_t want_nz = 0;
      PairSignScanReference(xs.data(), ys.data(), n, px, py, &want_s, &want_nz);
      for (const Body& body : bodies) {
        int64_t got_s = -1;
        int64_t got_nz = -1;
        body.scan(xs.data(), ys.data(), n, px, py, &got_s, &got_nz);
        EXPECT_EQ(got_s, want_s) << body.name << " n=" << n << " probe=(" << px << "," << py
                                 << ")";
        EXPECT_EQ(got_nz, want_nz) << body.name << " n=" << n << " probe=(" << px << "," << py
                                   << ")";
      }
    }
  }
}

TEST(SimdDispatchTest, PathNamesAreDistinct) {
  EXPECT_STRNE(simd::PathName(simd::Path::kSse2), simd::PathName(simd::Path::kAvx2));
}

// ---------------------------------------------------------------------------
// Integration: ContingencyTable counts through the kernel.
// ---------------------------------------------------------------------------

TEST(SimdIntegrationTest, ContingencyTableMatchesReferenceCounts) {
  std::vector<int32_t> x = RandomCodes(2000, 12, 31);
  std::vector<int32_t> y = RandomCodes(2000, 300, 32);
  for (size_t i = 0; i < x.size(); i += 9) {
    x[i] = -1;
  }
  for (size_t i = 640; i < 704; ++i) {
    y[i] = -1;  // one whole null block
  }
  std::vector<int64_t> want(12 * 300, 0);
  simd::ContingencyReference(x.data(), y.data(), x.size(), 12, 300, want.data());
  ContingencyTable table(x, y, 12, 300);
  int64_t total = 0;
  for (size_t a = 0; a < 12; ++a) {
    for (size_t b = 0; b < 300; ++b) {
      EXPECT_EQ(table.Count(a, b), want[a * 300 + b]) << a << "," << b;
      total += want[a * 300 + b];
    }
  }
  EXPECT_EQ(table.total(), total);
}

}  // namespace
}  // namespace scoded
