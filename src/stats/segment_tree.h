#ifndef SCODED_STATS_SEGMENT_TREE_H_
#define SCODED_STATS_SEGMENT_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace scoded {

/// Sum segment tree over a fixed universe of positions [0, size).
///
/// This is the data structure behind Algorithm 2 of the paper: records are
/// inserted one by one as points at their y-rank, and prefix/suffix range
/// sums count how many previously inserted records lie below/above a given
/// y value — i.e. the concordant/discordant pair counts used to initialise
/// the drill-down benefits in O(n log n).
///
/// Point update and range query are both O(log size).
class SegmentTree {
 public:
  /// Creates an empty tree over positions [0, size).
  explicit SegmentTree(size_t size);

  size_t size() const { return size_; }

  /// Adds `delta` to the count at `pos`. Requires pos < size().
  void Add(size_t pos, int64_t delta);

  /// Sum of counts over the closed range [lo, hi]. Empty/inverted ranges
  /// and out-of-universe clamping return the natural truncated sum.
  int64_t Sum(size_t lo, size_t hi) const;

  /// Sum over [0, pos] — "how many inserted values are <= this rank".
  int64_t PrefixSum(size_t pos) const { return Sum(0, pos); }

  /// Sum over [pos, size-1] — "how many inserted values are >= this rank".
  int64_t SuffixSum(size_t pos) const {
    return size_ == 0 ? 0 : Sum(pos, size_ - 1);
  }

  /// Total number of inserted points (sum of all counts).
  int64_t Total() const { return size_ == 0 ? 0 : tree_[1]; }

  /// Resets all counts to zero.
  void Clear();

 private:
  size_t size_ = 0;
  size_t leaves_ = 1;              // power-of-two leaf count
  std::vector<int64_t> tree_;      // 1-based implicit binary tree
};

/// Static wavelet matrix over a sequence of integer codes in [0, domain):
/// the succinct answer to "among the first k sequence positions, how many
/// codes are < v, and how many equal v" in O(log domain) rank operations.
/// Storage is one packed bitvector (plus a per-word rank directory) per
/// bit level — about 0.19 bytes per element per level — so even a
/// 100k-element matrix stays L2-resident, where an equivalent pointer
/// structure spills to DRAM and pays a cache miss per tree hop. This is
/// the quadrant-count engine behind ConcordanceIndex blocks.
class WaveletMatrix {
 public:
  /// An empty matrix.
  WaveletMatrix() = default;

  /// Builds over `codes`; every code must be < domain. O(n log domain).
  WaveletMatrix(const std::vector<uint32_t>& codes, size_t domain);

  size_t size() const { return size_; }
  size_t domain() const { return domain_; }

  /// Among the first `k` sequence positions (clamped to size()), counts
  /// codes strictly less than `v` into *lt and codes equal to `v` into
  /// *eq. v >= domain() counts everything as less.
  void PrefixCounts(size_t k, uint32_t v, int64_t* lt, int64_t* eq) const;

  /// Bytes of bitvector + rank-directory storage (memory telemetry).
  size_t MemoryBytes() const;

 private:
  struct Level {
    std::vector<uint64_t> bits;  // packed; bit i = msb-first bit of code at position i
    std::vector<uint32_t> rank;  // rank[w] = ones in words [0, w); length words + 1
    size_t zeros = 0;            // total zero bits (start of the one-partition)
  };

  int64_t Rank1(const Level& level, size_t pos) const;

  size_t size_ = 0;
  size_t domain_ = 0;
  int level_count_ = 0;
  std::vector<Level> levels_;  // most-significant bit first
};

/// Dynamic two-dimensional dominance counter for streaming Kendall-S
/// maintenance: the on-line extension of Algorithm 2. Points (x, y) are
/// inserted one at a time; InsertAndScore returns the summed PairWeight of
/// the new point against every point already present — exactly the
/// increment of S = n_c - n_d — before inserting it.
///
/// Layout is a logarithmic merge structure (geometric rebuilds): a small
/// brute-force buffer of recent points plus O(log n) immutable blocks of
/// geometrically increasing size. Each block keeps its points sorted by
/// (x, y) with a WaveletMatrix over the block-local compressed y ranks,
/// so one block answers its four quadrant counts in O(log block) rank
/// operations on bit-packed, cache-resident levels. A full buffer
/// cascades into the smallest free level, rebuilding each point O(log n)
/// times over the stream's lifetime. Amortised cost per append is
/// O(log^2 n); memory is O(n log n) bits of wavelet levels.
class ConcordanceIndex {
 public:
  ConcordanceIndex() = default;

  /// Points currently indexed.
  size_t size() const { return size_; }

  /// Concordant/discordant counts of (x, y) against the current contents
  /// (pairs tied on x or y count toward neither).
  struct Quadrants {
    int64_t concordant = 0;
    int64_t discordant = 0;
  };
  Quadrants Score(double x, double y) const;

  /// Inserts (x, y).
  void Insert(double x, double y);

  /// Score(x, y).concordant - discordant, then Insert(x, y): the S
  /// increment for appending this observation.
  int64_t InsertAndScore(double x, double y);

  /// Block rebuilds performed so far (telemetry).
  int64_t compactions() const { return compactions_; }

  /// Wavelet-level storage across all blocks (memory telemetry).
  size_t IndexBytes() const;

 private:
  struct Block {
    std::vector<double> xs;        // sorted by (x, y); parallel to ys
    std::vector<double> ys;
    std::vector<double> ys_sorted; // ys sorted on their own (whole-block y counts)
    std::vector<double> y_domain;  // sorted distinct y values
    WaveletMatrix wm;              // y ranks in x order: prefix quadrant counts
    bool occupied = false;
  };

  // Buffer capacity: level i holds exactly kBufferCap << i points. The
  // buffer is scanned brute-force per Score, which is cheap (contiguous
  // flops) up to a few hundred points; a larger cap means fewer block
  // levels to walk and 8x fewer compactions than the natural 32.
  static constexpr size_t kBufferCap = 256;

  void Compact();
  static Block BuildBlock(std::vector<double> xs, std::vector<double> ys);
  static void ScoreBlock(const Block& block, double x, double y, Quadrants* q);

  std::vector<double> buffer_x_;
  std::vector<double> buffer_y_;
  std::vector<Block> blocks_;
  size_t size_ = 0;
  int64_t compactions_ = 0;
};

}  // namespace scoded

#endif  // SCODED_STATS_SEGMENT_TREE_H_
