#include "stats/segment_tree.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stats/ranks.h"

namespace scoded {
namespace {

TEST(SegmentTreeTest, EmptyTree) {
  SegmentTree tree(0);
  EXPECT_EQ(tree.Total(), 0);
  EXPECT_EQ(tree.Sum(0, 10), 0);
}

TEST(SegmentTreeTest, SingleElement) {
  SegmentTree tree(1);
  tree.Add(0, 5);
  EXPECT_EQ(tree.Sum(0, 0), 5);
  EXPECT_EQ(tree.Total(), 5);
}

TEST(SegmentTreeTest, BasicRangeSums) {
  SegmentTree tree(8);
  for (size_t i = 0; i < 8; ++i) {
    tree.Add(i, static_cast<int64_t>(i + 1));
  }
  EXPECT_EQ(tree.Sum(0, 7), 36);
  EXPECT_EQ(tree.Sum(2, 4), 3 + 4 + 5);
  EXPECT_EQ(tree.PrefixSum(3), 1 + 2 + 3 + 4);
  EXPECT_EQ(tree.SuffixSum(6), 7 + 8);
}

TEST(SegmentTreeTest, InvertedAndClampedRanges) {
  SegmentTree tree(4);
  tree.Add(0, 1);
  tree.Add(3, 1);
  EXPECT_EQ(tree.Sum(3, 1), 0);
  EXPECT_EQ(tree.Sum(2, 100), 1);
  EXPECT_EQ(tree.Sum(100, 200), 0);
  EXPECT_EQ(tree.SuffixSum(4), 0);
}

TEST(SegmentTreeTest, NonPowerOfTwoSize) {
  SegmentTree tree(5);
  for (size_t i = 0; i < 5; ++i) {
    tree.Add(i, 1);
  }
  EXPECT_EQ(tree.Total(), 5);
  EXPECT_EQ(tree.Sum(1, 3), 3);
}

TEST(SegmentTreeTest, NegativeDeltasAndClear) {
  SegmentTree tree(4);
  tree.Add(2, 7);
  tree.Add(2, -3);
  EXPECT_EQ(tree.Sum(2, 2), 4);
  tree.Clear();
  EXPECT_EQ(tree.Total(), 0);
}

// Property test: the segment tree and a brute-force array agree under
// random updates and queries, across a sweep of universe sizes.
class TreeEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TreeEquivalenceTest, RandomOperationsAgreeWithBruteForce) {
  size_t n = GetParam();
  SegmentTree seg(n);
  std::vector<int64_t> brute(n, 0);
  Rng rng(static_cast<uint64_t>(n) * 7919 + 1);
  for (int op = 0; op < 500; ++op) {
    size_t pos = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    int64_t delta = rng.UniformInt(-3, 5);
    seg.Add(pos, delta);
    brute[pos] += delta;

    size_t lo = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    size_t hi = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    if (lo > hi) {
      std::swap(lo, hi);
    }
    int64_t expected = 0;
    for (size_t i = lo; i <= hi; ++i) {
      expected += brute[i];
    }
    EXPECT_EQ(seg.Sum(lo, hi), expected) << "n=" << n << " [" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeEquivalenceTest,
                         ::testing::Values(1, 2, 3, 7, 8, 16, 33, 100, 255));

TEST(WaveletMatrixTest, EmptySequence) {
  WaveletMatrix wm(std::vector<uint32_t>{}, 0);
  int64_t lt = -1;
  int64_t eq = -1;
  wm.PrefixCounts(5, 0, &lt, &eq);
  EXPECT_EQ(lt, 0);
  EXPECT_EQ(eq, 0);
}

TEST(WaveletMatrixTest, SingleValueDomain) {
  // domain = 1 needs zero bit levels: everything is code 0.
  WaveletMatrix wm(std::vector<uint32_t>(10, 0), 1);
  int64_t lt;
  int64_t eq;
  wm.PrefixCounts(4, 0, &lt, &eq);
  EXPECT_EQ(lt, 0);
  EXPECT_EQ(eq, 4);
  wm.PrefixCounts(10, 1, &lt, &eq);  // v >= domain counts everything as less
  EXPECT_EQ(lt, 10);
  EXPECT_EQ(eq, 0);
}

TEST(WaveletMatrixTest, RandomPrefixCountsMatchBruteForce) {
  Rng rng(314);
  const size_t domain = 45;  // non-power-of-two
  std::vector<uint32_t> codes(300);
  for (uint32_t& c : codes) {
    c = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(domain) - 1));
  }
  WaveletMatrix wm(codes, domain);
  EXPECT_EQ(wm.size(), codes.size());
  for (size_t k : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65}, size_t{150},
                   codes.size(), codes.size() + 9}) {
    for (uint32_t v = 0; v <= domain + 1; ++v) {
      int64_t expected_lt = 0;
      int64_t expected_eq = 0;
      for (size_t i = 0; i < std::min(k, codes.size()); ++i) {
        expected_lt += codes[i] < v;
        expected_eq += codes[i] == v;
      }
      if (v >= domain) {
        expected_eq = 0;  // contract: out-of-domain v counts everything as less
      }
      int64_t lt;
      int64_t eq;
      wm.PrefixCounts(k, v, &lt, &eq);
      ASSERT_EQ(lt, expected_lt) << "k=" << k << " v=" << v;
      ASSERT_EQ(eq, expected_eq) << "k=" << k << " v=" << v;
    }
  }
}

TEST(WaveletMatrixTest, PairedDescentsMatchSingleDescents) {
  Rng rng(2718);
  const size_t domain = 37;
  std::vector<uint32_t> codes(200);
  for (uint32_t& c : codes) {
    c = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(domain) - 1));
  }
  WaveletMatrix wm(codes, domain);
  const std::vector<size_t> prefixes = {0, 1, 2, 63, 64, 65, 128, 199, 200, 207};
  std::vector<size_t> k1s;
  std::vector<size_t> k2s;
  std::vector<uint32_t> vs;
  std::vector<WaveletMatrix::Counts> want1;
  std::vector<WaveletMatrix::Counts> want2;
  for (size_t a = 0; a < prefixes.size(); ++a) {
    for (size_t b = a; b < prefixes.size(); ++b) {
      for (uint32_t v = 0; v <= domain; ++v) {
        WaveletMatrix::Counts at_k1;
        WaveletMatrix::Counts at_k2;
        wm.PrefixCountsPair(prefixes[a], prefixes[b], v, &at_k1, &at_k2);
        int64_t lt;
        int64_t eq;
        wm.PrefixCounts(prefixes[a], v, &lt, &eq);
        ASSERT_EQ(at_k1.lt, lt) << prefixes[a] << " " << prefixes[b] << " v=" << v;
        ASSERT_EQ(at_k1.eq, eq) << prefixes[a] << " " << prefixes[b] << " v=" << v;
        wm.PrefixCounts(prefixes[b], v, &lt, &eq);
        ASSERT_EQ(at_k2.lt, lt) << prefixes[a] << " " << prefixes[b] << " v=" << v;
        ASSERT_EQ(at_k2.eq, eq) << prefixes[a] << " " << prefixes[b] << " v=" << v;
        k1s.push_back(prefixes[a]);
        k2s.push_back(prefixes[b]);
        vs.push_back(v);
        want1.push_back(at_k1);
        want2.push_back(at_k2);
      }
    }
  }
  // The same probes as one level-by-level batch.
  std::vector<WaveletMatrix::Counts> got1(vs.size());
  std::vector<WaveletMatrix::Counts> got2(vs.size());
  wm.PrefixCountsPairs(vs.size(), k1s.data(), k2s.data(), vs.data(), got1.data(), got2.data());
  for (size_t i = 0; i < vs.size(); ++i) {
    ASSERT_EQ(got1[i].lt, want1[i].lt) << "probe " << i;
    ASSERT_EQ(got1[i].eq, want1[i].eq) << "probe " << i;
    ASSERT_EQ(got2[i].lt, want2[i].lt) << "probe " << i;
    ASSERT_EQ(got2[i].eq, want2[i].eq) << "probe " << i;
  }
}

struct Quadrants {
  int64_t concordant = 0;
  int64_t discordant = 0;
};

// sign(a - b) under NanAwareLess: NaN above every number, NaNs tied.
int NanAwareSign(double a, double b) {
  NanAwareLess less;
  return static_cast<int>(less(b, a)) - static_cast<int>(less(a, b));
}

// Brute-force quadrant counts for one candidate point against a point set.
Quadrants BruteScore(const std::vector<double>& xs, const std::vector<double>& ys, double x,
                     double y) {
  Quadrants q;
  for (size_t i = 0; i < xs.size(); ++i) {
    int w = NanAwareSign(x, xs[i]) * NanAwareSign(y, ys[i]);
    if (w > 0) {
      ++q.concordant;
    } else if (w < 0) {
      ++q.discordant;
    }
  }
  return q;
}

// Property test: streaming scores from the logarithmic-block index equal the
// brute-force quadrant counts at every step, across enough points to force
// multiple buffer compactions and block merges (kBufferCap = 256, so 1200
// points exercise four cascades up to a 1024-point block).
TEST(ConcordanceIndexTest, StreamingScoresMatchBruteForce) {
  Rng rng(7);
  ConcordanceIndex index;
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 1200; ++i) {
    // Coarse grid so x-ties and y-ties are frequent.
    double x = static_cast<double>(rng.UniformInt(0, 25));
    double y = static_cast<double>(rng.UniformInt(0, 25));
    Quadrants expected = BruteScore(xs, ys, x, y);
    ASSERT_EQ(index.InsertAndScore(x, y), expected.concordant - expected.discordant) << "i=" << i;
    xs.push_back(x);
    ys.push_back(y);
    EXPECT_EQ(index.size(), xs.size());
  }
  EXPECT_GT(index.compactions(), 0);
  EXPECT_GT(index.IndexBytes(), 0u);
}

// Tie sums of a multiset of values, from its group sizes.
TieSums BruteTies(const std::vector<double>& values) {
  std::map<uint64_t, int64_t> groups;
  for (double v : values) {
    ++groups[NanAwareKey(v)];
  }
  TieSums sums;
  for (const auto& [key, count] : groups) {
    (void)key;
    sums.Resize(0, count);
  }
  return sums;
}

void ExpectSameTieSums(const TieSums& got, const TieSums& want, const std::string& context) {
  EXPECT_EQ(got.t1, want.t1) << context;
  EXPECT_EQ(got.t2, want.t2) << context;
  EXPECT_EQ(got.t3, want.t3) << context;
}

// Batches that go point by point (under 32 points), at and past the
// size from which a batch becomes a run, at the buffer's capacity (256)
// and past it, and large runs, with single appends between them, so runs
// merge at every size class. After every append S and the tie sums must match brute
// force, on tied, signed-zero and NaN values.
TEST(ConcordanceIndexTest, BatchAppendsMatchBruteForceAtEveryBoundary) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int domain : {2, 5, 50, 0}) {  // 0: continuous values
    Rng rng(static_cast<uint64_t>(domain) + 41);
    auto draw = [&]() {
      int64_t pick = rng.UniformInt(0, 39);
      if (pick == 0) {
        return nan;
      }
      if (pick == 1) {
        return -0.0;
      }
      if (pick == 2) {
        return 0.0;
      }
      return domain == 0 ? rng.Normal() : static_cast<double>(rng.UniformInt(0, domain - 1));
    };
    ConcordanceIndex index;
    std::vector<double> xs;
    std::vector<double> ys;
    // Expected S of appending (bx, by) after everything in xs/ys, which
    // it then joins.
    auto brute_append = [&](const std::vector<double>& bx, const std::vector<double>& by) {
      int64_t s = 0;
      for (size_t i = 0; i < bx.size(); ++i) {
        Quadrants q = BruteScore(xs, ys, bx[i], by[i]);
        s += q.concordant - q.discordant;
        xs.push_back(bx[i]);
        ys.push_back(by[i]);
      }
      return s;
    };
    for (size_t batch : {1, 2, 31, 32, 33, 100, 255, 256, 257, 1024, 4096}) {
      const std::string context =
          "domain " + std::to_string(domain) + ", batch " + std::to_string(batch);
      for (int single = 0; single < 3; ++single) {
        double x = draw();
        double y = rng.Bernoulli(0.5) ? x : draw();
        int64_t want = brute_append({x}, {y});
        ASSERT_EQ(index.InsertAndScore(x, y), want) << context << ", single " << single;
      }
      std::vector<double> bx(batch);
      std::vector<double> by(batch);
      for (size_t i = 0; i < batch; ++i) {
        bx[i] = draw();
        by[i] = rng.Bernoulli(0.5) ? bx[i] : draw();
      }
      int64_t want = brute_append(bx, by);
      ASSERT_EQ(index.Append(bx.data(), by.data(), batch), want) << context;
      ASSERT_EQ(index.size(), xs.size()) << context;
      ExpectSameTieSums(index.x_ties(), BruteTies(xs), context + ", x");
      ExpectSameTieSums(index.y_ties(), BruteTies(ys), context + ", y");
    }
  }
}

TEST(ConcordanceIndexTest, AllTiedPointsScoreZero) {
  ConcordanceIndex index;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(index.InsertAndScore(1.0, 2.0), 0);
  }
  EXPECT_EQ(index.size(), 100u);
}

TEST(ConcordanceIndexTest, MonotoneStreamIsFullyConcordant) {
  ConcordanceIndex index;
  int64_t s = 0;
  for (int i = 0; i < 200; ++i) {
    s += index.InsertAndScore(static_cast<double>(i), static_cast<double>(i));
  }
  // S = n(n-1)/2 for a strictly increasing stream.
  EXPECT_EQ(s, 200 * 199 / 2);
}

}  // namespace
}  // namespace scoded
