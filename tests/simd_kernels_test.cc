// The compressed-columnar kernel layer's contract (stats/colcodec.h,
// stats/simd.h): every optimised path produces bit-identical results to
// the scalar reference on any input — including the width boundaries
// (cardinality 255/256/65535/65536), all-null and single-category
// columns, NaNs, and signed zeros — and the dispatch override machinery
// (ForcePath / SCODED_SIMD) behaves as documented.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stats/colcodec.h"
#include "stats/contingency.h"
#include "stats/kendall.h"
#include "stats/ranks.h"
#include "stats/segment_tree.h"
#include "stats/simd.h"

namespace scoded {
namespace {

// Restores environment-driven dispatch when a ForcePath test ends.
struct DispatchGuard {
  ~DispatchGuard() { simd::ResetPathFromEnvironment(); }
};

std::vector<simd::Path> SupportedPaths() {
  std::vector<simd::Path> paths = {simd::Path::kScalar};
  for (simd::Path path : {simd::Path::kSse2, simd::Path::kAvx2}) {
    if (path <= simd::BestSupportedPath()) {
      paths.push_back(path);
    }
  }
  return paths;
}

// Random codes in [0, cardinality) with roughly `null_pct`% nulls.
std::vector<int32_t> RandomCodes(size_t n, size_t cardinality, int null_pct, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> codes(n);
  for (int32_t& c : codes) {
    c = (rng.UniformInt(0, 99) < null_pct)
            ? -1
            : static_cast<int32_t>(rng.UniformInt(0, static_cast<int64_t>(cardinality) - 1));
  }
  return codes;
}

// ---------------------------------------------------------------------------
// CompressedCodes
// ---------------------------------------------------------------------------

TEST(CompressedCodesTest, WidthSelectionBoundaries) {
  EXPECT_EQ(CompressedCodes::WidthFor(1), CodeWidth::kU8);
  EXPECT_EQ(CompressedCodes::WidthFor(255), CodeWidth::kU8);
  EXPECT_EQ(CompressedCodes::WidthFor(256), CodeWidth::kU8);
  EXPECT_EQ(CompressedCodes::WidthFor(257), CodeWidth::kU16);
  EXPECT_EQ(CompressedCodes::WidthFor(65535), CodeWidth::kU16);
  EXPECT_EQ(CompressedCodes::WidthFor(65536), CodeWidth::kU16);
  EXPECT_EQ(CompressedCodes::WidthFor(65537), CodeWidth::kU32);
}

TEST(CompressedCodesTest, RoundTripsAtEveryWidthBoundary) {
  for (size_t cardinality : {size_t{1}, size_t{2}, size_t{255}, size_t{256}, size_t{257},
                             size_t{65535}, size_t{65536}, size_t{65537}, size_t{100000}}) {
    for (int null_pct : {0, 15}) {
      std::vector<int32_t> codes = RandomCodes(777, cardinality, null_pct, cardinality);
      CompressedCodes packed = CompressedCodes::Encode(codes, cardinality);
      EXPECT_EQ(packed.size(), codes.size());
      EXPECT_EQ(packed.cardinality(), cardinality);
      EXPECT_EQ(packed.width(), CompressedCodes::WidthFor(cardinality));
      EXPECT_EQ(packed.Decode(), codes) << "cardinality=" << cardinality;
    }
  }
}

TEST(CompressedCodesTest, NoNullColumnStoresNoMask) {
  CompressedCodes packed = CompressedCodes::Encode({0, 1, 2, 1}, 3);
  EXPECT_FALSE(packed.has_nulls());
  EXPECT_EQ(packed.valid_words(), nullptr);
  EXPECT_EQ(packed.num_valid_words(), 0u);
  EXPECT_EQ(packed.CountValid(), 4u);
  for (size_t row = 0; row < 4; ++row) {
    EXPECT_TRUE(packed.IsValid(row));
  }
}

TEST(CompressedCodesTest, AllNullColumn) {
  std::vector<int32_t> codes(100, -1);
  CompressedCodes packed = CompressedCodes::Encode(codes, 7);
  EXPECT_TRUE(packed.has_nulls());
  EXPECT_EQ(packed.CountValid(), 0u);
  for (size_t row = 0; row < codes.size(); ++row) {
    EXPECT_FALSE(packed.IsValid(row));
    EXPECT_EQ(packed.CodeAt(row), 0u);  // nulls hold code 0 under the mask
  }
  EXPECT_EQ(packed.Decode(), codes);
}

TEST(CompressedCodesTest, SingleCategoryColumn) {
  std::vector<int32_t> codes(65, 0);
  CompressedCodes packed = CompressedCodes::Encode(codes, 1);
  EXPECT_EQ(packed.width(), CodeWidth::kU8);
  EXPECT_EQ(packed.CountValid(), 65u);
  EXPECT_EQ(packed.Decode(), codes);
}

TEST(CompressedCodesTest, MaskTailBitsAreZero) {
  // 65 rows -> two mask words; bits 65..127 of the second word must be 0
  // so whole-word kernels can trust them.
  std::vector<int32_t> codes(65, 3);
  codes[10] = -1;
  CompressedCodes packed = CompressedCodes::Encode(codes, 8);
  ASSERT_EQ(packed.num_valid_words(), 2u);
  EXPECT_EQ(packed.valid_words()[1] >> 1, 0ull);
  EXPECT_EQ(packed.valid_words()[1] & 1ull, 1ull);
}

TEST(CompressedCodesTest, MemoryBytesTracksWidth) {
  std::vector<int32_t> codes(1000, 0);
  EXPECT_EQ(CompressedCodes::Encode(codes, 200).MemoryBytes(), 1000u);
  EXPECT_EQ(CompressedCodes::Encode(codes, 1000).MemoryBytes(), 2000u);
  EXPECT_EQ(CompressedCodes::Encode(codes, 100000).MemoryBytes(), 4000u);
}

TEST(CompressedCodesTest, DefaultCodecRoundTrips) {
  const ColumnCodec& codec = NarrowestWidthCodec();
  std::vector<int32_t> codes = RandomCodes(300, 500, 10, 42);
  EXPECT_EQ(codec.Decode(codec.Encode(codes, 500)), codes);
  EXPECT_STRNE(codec.Name(), "");
}

// ---------------------------------------------------------------------------
// Dispatch machinery
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, ParsePathAcceptsDocumentedNames) {
  EXPECT_EQ(simd::ParsePath("off"), simd::Path::kScalar);
  EXPECT_EQ(simd::ParsePath("scalar"), simd::Path::kScalar);
  EXPECT_EQ(simd::ParsePath("sse2"), simd::Path::kSse2);
  EXPECT_EQ(simd::ParsePath("avx2"), simd::Path::kAvx2);
  EXPECT_EQ(simd::ParsePath("bogus"), std::nullopt);
  EXPECT_EQ(simd::ParsePath(""), std::nullopt);
}

TEST(SimdDispatchTest, PathNamesAreDistinct) {
  EXPECT_STRNE(simd::PathName(simd::Path::kScalar), simd::PathName(simd::Path::kSse2));
  EXPECT_STRNE(simd::PathName(simd::Path::kSse2), simd::PathName(simd::Path::kAvx2));
}

TEST(SimdDispatchTest, ForcePathPinsAndResetRestores) {
  DispatchGuard guard;
  ASSERT_TRUE(simd::ForcePath(simd::Path::kScalar));
  EXPECT_EQ(simd::ActivePath(), simd::Path::kScalar);
  for (simd::Path path : SupportedPaths()) {
    ASSERT_TRUE(simd::ForcePath(path));
    EXPECT_EQ(simd::ActivePath(), path);
  }
  simd::ResetPathFromEnvironment();
  // Without SCODED_SIMD in the test environment this resolves to the
  // widest supported path; with it, to the requested one. Either way the
  // forced pin must be gone.
  if (const char* env = std::getenv("SCODED_SIMD")) {
    auto parsed = simd::ParsePath(env);
    if (parsed.has_value() && *parsed <= simd::BestSupportedPath()) {
      EXPECT_EQ(simd::ActivePath(), *parsed);
    }
  } else {
    EXPECT_EQ(simd::ActivePath(), simd::BestSupportedPath());
  }
}

// ---------------------------------------------------------------------------
// Kernel equivalence: every supported path vs the scalar reference.
// KernelsFor() hands out per-path tables without touching the global
// dispatch, so these run on any machine regardless of SCODED_SIMD.
// ---------------------------------------------------------------------------

struct ContingencyCase {
  const char* label;
  size_t n;
  size_t cx;
  size_t cy;
  int null_pct;
};

TEST(SimdKernelEquivalenceTest, ContingencyMatchesScalarAcrossWidths) {
  const ContingencyCase cases[] = {
      {"u8 small", 500, 10, 10, 0},
      {"u8 small nulls", 500, 10, 10, 20},
      {"u8 boundary 255", 1000, 255, 4, 10},
      {"u8 boundary 256", 1000, 256, 3, 10},
      {"u16 boundary 257", 1000, 257, 5, 10},
      {"u16 x u16", 2000, 300, 300, 5},
      {"u16 boundary 65535", 4000, 65535, 2, 10},
      {"u16 boundary 65536", 4000, 65536, 2, 10},
      {"u32 boundary 65537", 4000, 65537, 2, 10},
      {"u32 x u8", 3000, 100000, 6, 15},
      {"all null x", 300, 10, 10, 100},
      {"single category", 300, 1, 1, 0},
      {"short tail", 63, 10, 10, 10},
      {"one word", 64, 10, 10, 10},
      {"word plus one", 65, 10, 10, 10},
      {"empty", 0, 10, 10, 0},
  };
  const simd::Kernels& scalar = simd::KernelsFor(simd::Path::kScalar);
  for (const ContingencyCase& c : cases) {
    CompressedCodes x = CompressedCodes::Encode(RandomCodes(c.n, c.cx, c.null_pct, 1), c.cx);
    CompressedCodes y = CompressedCodes::Encode(RandomCodes(c.n, c.cy, c.null_pct, 2), c.cy);
    std::vector<int64_t> want(c.cx * c.cy, 0);
    scalar.contingency(x, y, want.data());
    for (simd::Path path : SupportedPaths()) {
      const simd::Kernels& kernels = simd::KernelsFor(path);
      std::vector<int64_t> got(c.cx * c.cy, 0);
      kernels.contingency(x, y, got.data());
      EXPECT_EQ(got, want) << c.label << " path=" << simd::PathName(path);
    }
  }
}

TEST(SimdKernelEquivalenceTest, DenseRanksMatchesScalarOnHostileInputs) {
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
  const simd::Kernels& scalar = simd::KernelsFor(simd::Path::kScalar);
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::vector<double>& values = cases[i];
    std::vector<size_t> want(values.size());
    size_t want_distinct = scalar.dense_ranks(values.data(), values.size(), want.data());
    for (simd::Path path : SupportedPaths()) {
      std::vector<size_t> got(values.size());
      size_t got_distinct =
          simd::KernelsFor(path).dense_ranks(values.data(), values.size(), got.data());
      EXPECT_EQ(got, want) << "case=" << i << " path=" << simd::PathName(path);
      EXPECT_EQ(got_distinct, want_distinct) << "case=" << i << " path=" << simd::PathName(path);
    }
  }
}

TEST(SimdKernelEquivalenceTest, CountInversionsMatchesScalar) {
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
  const simd::Kernels& scalar = simd::KernelsFor(simd::Path::kScalar);
  for (size_t i = 0; i < cases.size(); ++i) {
    std::vector<uint32_t> want_sorted = cases[i];
    std::vector<uint32_t> scratch(cases[i].size());
    int64_t want =
        scalar.count_inversions(want_sorted.data(), scratch.data(), want_sorted.size());
    EXPECT_TRUE(std::is_sorted(want_sorted.begin(), want_sorted.end())) << "case=" << i;
    for (simd::Path path : SupportedPaths()) {
      std::vector<uint32_t> got_sorted = cases[i];
      int64_t got = simd::KernelsFor(path).count_inversions(got_sorted.data(), scratch.data(),
                                                            got_sorted.size());
      EXPECT_EQ(got, want) << "case=" << i << " path=" << simd::PathName(path);
      EXPECT_EQ(got_sorted, want_sorted) << "case=" << i << " path=" << simd::PathName(path);
    }
  }
}

TEST(SimdKernelEquivalenceTest, PopcountMatchesScalar) {
  Rng rng(11);
  std::vector<uint64_t> words = {0ull, 1ull, ~0ull, 0x8000000000000000ull, 0x5555555555555555ull};
  for (int i = 0; i < 200; ++i) {
    words.push_back(static_cast<uint64_t>(rng.UniformInt(0, INT64_MAX)) * 2 +
                    static_cast<uint64_t>(rng.UniformInt(0, 1)));
  }
  const simd::Kernels& scalar = simd::KernelsFor(simd::Path::kScalar);
  for (uint64_t word : words) {
    int want = scalar.popcount_word(word);
    for (simd::Path path : SupportedPaths()) {
      EXPECT_EQ(simd::KernelsFor(path).popcount_word(word), want)
          << "word=" << word << " path=" << simd::PathName(path);
    }
  }
}

TEST(SimdKernelEquivalenceTest, PairSignScanMatchesScalar) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(13);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(rng.UniformInt(0, 1) ? static_cast<double>(rng.UniformInt(-3, 3)) : rng.Normal());
    ys.push_back(rng.UniformInt(0, 1) ? static_cast<double>(rng.UniformInt(-3, 3)) : rng.Normal());
  }
  xs[17] = nan;  // NaN pairs must contribute 0 on every path
  ys[23] = nan;
  const simd::Kernels& scalar = simd::KernelsFor(simd::Path::kScalar);
  // Probe points: data values (exact ties), fresh values, and NaN.
  const std::pair<double, double> probes[] = {
      {xs[0], ys[0]}, {0.5, -0.25}, {nan, 1.0}, {1.0, nan}, {-2.0, 2.0}};
  for (const auto& [px, py] : probes) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5}, xs.size()}) {
      int64_t want_s = 0;
      int64_t want_nz = 0;
      scalar.pair_sign_scan(xs.data(), ys.data(), n, px, py, &want_s, &want_nz);
      for (simd::Path path : SupportedPaths()) {
        int64_t got_s = 0;
        int64_t got_nz = 0;
        simd::KernelsFor(path).pair_sign_scan(xs.data(), ys.data(), n, px, py, &got_s, &got_nz);
        EXPECT_EQ(got_s, want_s) << "n=" << n << " path=" << simd::PathName(path);
        EXPECT_EQ(got_nz, want_nz) << "n=" << n << " path=" << simd::PathName(path);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Integration: the stat layers consuming Active() give bit-identical
// results under every forced path.
// ---------------------------------------------------------------------------

TEST(SimdIntegrationTest, ContingencyTableIdenticalAcrossPaths) {
  DispatchGuard guard;
  std::vector<int32_t> x = RandomCodes(2000, 12, 10, 31);
  std::vector<int32_t> y = RandomCodes(2000, 300, 10, 32);
  ASSERT_TRUE(simd::ForcePath(simd::Path::kScalar));
  ContingencyTable baseline(x, y, 12, 300);
  for (simd::Path path : SupportedPaths()) {
    ASSERT_TRUE(simd::ForcePath(path));
    ContingencyTable int32_built(x, y, 12, 300);
    ContingencyTable packed_built(CompressedCodes::Encode(x, 12),
                                  CompressedCodes::Encode(y, 300));
    for (const ContingencyTable& table : {int32_built, packed_built}) {
      EXPECT_EQ(table.total(), baseline.total()) << simd::PathName(path);
      EXPECT_EQ(table.GStatistic(), baseline.GStatistic()) << simd::PathName(path);
      EXPECT_EQ(table.MutualInformationBits(), baseline.MutualInformationBits())
          << simd::PathName(path);
    }
  }
}

TEST(SimdIntegrationTest, DenseRanksAndKendallIdenticalAcrossPaths) {
  DispatchGuard guard;
  Rng rng(41);
  std::vector<double> x(1500);
  std::vector<double> y(1500);
  for (size_t i = 0; i < x.size(); ++i) {
    double v = rng.Normal();
    x[i] = (i % 5 == 0) ? 2.0 : v;  // real tie groups on both margins
    y[i] = (i % 7 == 0) ? -1.0 : v + rng.Normal(0.0, 0.5);
  }
  ASSERT_TRUE(simd::ForcePath(simd::Path::kScalar));
  size_t baseline_distinct = 0;
  std::vector<size_t> baseline_ranks = DenseRanks(x, &baseline_distinct);
  KendallResult baseline_tau = KendallTau(x, y);
  for (simd::Path path : SupportedPaths()) {
    ASSERT_TRUE(simd::ForcePath(path));
    size_t distinct = 0;
    EXPECT_EQ(DenseRanks(x, &distinct), baseline_ranks) << simd::PathName(path);
    EXPECT_EQ(distinct, baseline_distinct) << simd::PathName(path);
    KendallResult tau = KendallTau(x, y);
    EXPECT_EQ(tau.s, baseline_tau.s) << simd::PathName(path);
    EXPECT_EQ(tau.concordant, baseline_tau.concordant) << simd::PathName(path);
    EXPECT_EQ(tau.discordant, baseline_tau.discordant) << simd::PathName(path);
    EXPECT_EQ(tau.ties_x, baseline_tau.ties_x) << simd::PathName(path);
    EXPECT_EQ(tau.ties_y, baseline_tau.ties_y) << simd::PathName(path);
    EXPECT_EQ(tau.tau_b, baseline_tau.tau_b) << simd::PathName(path);
    EXPECT_EQ(tau.var_s, baseline_tau.var_s) << simd::PathName(path);
    EXPECT_EQ(tau.z, baseline_tau.z) << simd::PathName(path);
    EXPECT_EQ(tau.p_two_sided, baseline_tau.p_two_sided) << simd::PathName(path);
  }
}

TEST(SimdIntegrationTest, WaveletPrefixCountsIdenticalAcrossPaths) {
  DispatchGuard guard;
  Rng rng(43);
  const size_t m = 512;
  std::vector<uint32_t> codes(m);
  for (uint32_t& c : codes) {
    c = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(m) - 1));
  }
  ASSERT_TRUE(simd::ForcePath(simd::Path::kScalar));
  WaveletMatrix baseline(codes, m);
  for (simd::Path path : SupportedPaths()) {
    ASSERT_TRUE(simd::ForcePath(path));
    WaveletMatrix matrix(codes, m);  // captures this path's popcount
    for (int probe = 0; probe < 200; ++probe) {
      size_t prefix = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(m)));
      uint32_t value = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(m) - 1));
      int64_t want_lt, want_eq, got_lt, got_eq;
      baseline.PrefixCounts(prefix, value, &want_lt, &want_eq);
      matrix.PrefixCounts(prefix, value, &got_lt, &got_eq);
      EXPECT_EQ(got_lt, want_lt) << simd::PathName(path);
      EXPECT_EQ(got_eq, want_eq) << simd::PathName(path);
    }
  }
}

}  // namespace
}  // namespace scoded
