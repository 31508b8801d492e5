#include "stats/segment_tree.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

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

// Brute-force quadrant counts for one candidate point against a point set.
ConcordanceIndex::Quadrants BruteScore(const std::vector<double>& xs,
                                       const std::vector<double>& ys, double x, double y) {
  ConcordanceIndex::Quadrants q;
  for (size_t i = 0; i < xs.size(); ++i) {
    double dx = (x > xs[i]) - (x < xs[i]);
    double dy = (y > ys[i]) - (y < ys[i]);
    double w = dx * dy;
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
    ConcordanceIndex::Quadrants expected = BruteScore(xs, ys, x, y);
    ConcordanceIndex::Quadrants got = index.Score(x, y);
    ASSERT_EQ(got.concordant, expected.concordant) << "i=" << i;
    ASSERT_EQ(got.discordant, expected.discordant) << "i=" << i;
    EXPECT_EQ(index.InsertAndScore(x, y), expected.concordant - expected.discordant);
    xs.push_back(x);
    ys.push_back(y);
    EXPECT_EQ(index.size(), xs.size());
  }
  EXPECT_GT(index.compactions(), 0);
  EXPECT_GT(index.IndexBytes(), 0u);
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
