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
/// the quadrant-count engine behind ConcordanceIndex runs.
class WaveletMatrix {
 public:
  /// An empty matrix.
  WaveletMatrix() = default;

  /// Builds over `codes`; every code must be < domain. O(n log domain).
  WaveletMatrix(const std::vector<uint32_t>& codes, size_t domain);

  size_t size() const { return size_; }
  size_t domain() const { return domain_; }

  /// Codes below and equal to some value among a prefix of the sequence.
  struct Counts {
    int64_t lt = 0;
    int64_t eq = 0;
  };

  /// Among the first `k` sequence positions (clamped to size()), counts
  /// codes strictly less than `v` into *lt and codes equal to `v` into
  /// *eq. v >= domain() counts everything as less.
  void PrefixCounts(size_t k, uint32_t v, int64_t* lt, int64_t* eq) const;

  /// PrefixCounts at two prefixes k1 <= k2 for the same `v`, from one
  /// descent: the path through the levels depends on v alone.
  void PrefixCountsPair(size_t k1, size_t k2, uint32_t v, Counts* at_k1, Counts* at_k2) const;

  /// PrefixCountsPair for each of n probes (k1[i], k2[i], v[i]). The
  /// descents run one level at a time across all probes, so the rank
  /// lookups of different probes overlap instead of queueing behind each
  /// other.
  void PrefixCountsPairs(size_t n, const size_t* k1, const size_t* k2, const uint32_t* v,
                         Counts* at_k1, Counts* at_k2) const;

  /// Bytes of bitvector + rank-directory storage (memory telemetry).
  size_t MemoryBytes() const;

 private:
  struct Level {
    std::vector<uint64_t> bits;  // packed; bit i = msb-first bit of code at position i
    std::vector<uint32_t> rank;  // rank[w] = ones in words [0, w); length words + 1
    size_t zeros = 0;            // total zero bits (start of the one-partition)
  };

  // One descent: [start, end) is where v's path runs at the current
  // level; start maps from position 0 and each end from its prefix
  // length. lt counts the codes below v met so far.
  struct Path {
    size_t start = 0;
    size_t end1 = 0;
    size_t end2 = 0;
    int64_t lt1 = 0;
    int64_t lt2 = 0;
    uint32_t v = 0;
  };

  int64_t Rank1(const Level& level, size_t pos) const;
  Path StartPath(size_t k1, size_t k2, uint32_t v) const;
  void Step(int l, Path* path) const;
  static void FinishPath(const Path& path, Counts* at_k1, Counts* at_k2);

  size_t size_ = 0;
  size_t domain_ = 0;
  int level_count_ = 0;
  std::vector<Level> levels_;  // most-significant bit first
};

/// The tie-group sums of one margin that the τ variance needs: Σ t(t−1),
/// Σ t(t−1)(t−2) and Σ t(t−1)(2t+5) over the group sizes t. Every term is
/// an integer-valued double, exact while the sums stay below 2^53 (always
/// so up to about 165 000 points), so the sums do not depend on the order
/// or the steps in which the groups grew. Past that, one Resize(f, f + k)
/// can round differently from k steps of one.
struct TieSums {
  double t1 = 0.0;
  double t2 = 0.0;
  double t3 = 0.0;

  /// Changes one group's size from `from` to `to`.
  void Resize(int64_t from, int64_t to);
};

/// Dynamic two-dimensional dominance counter for streaming Kendall-S
/// maintenance: the on-line extension of Algorithm 2. Append takes a
/// batch of points and returns the summed PairWeight of the new points
/// against every point already present and against each other — exactly
/// the increment of S = n_c − n_d — and keeps both margins' TieSums for
/// the τ variance. Values order by NanAwareLess: NaN above every number,
/// all NaNs tied, −0.0 tied with +0.0.
///
/// Layout: a brute-force buffer of up to kBufferCap recent points plus
/// O(log n) immutable runs, each sorted by (x, y) with its y values coded
/// by rank within the run and a WaveletMatrix over those codes in x order.
///  * A batch of at least kMinRun points becomes one run. S within it
///    is one inversion count over its codes; S against each older run
///    takes one wavelet descent per point, which serves the prefixes
///    below and through the point's x ties together, and the batch's
///    descents run level by level across all its points. The x and y
///    positions in the older run are found by galloping forward through
///    the sorted batch, and whole-run y counts come from a cumulative
///    array.
///  * A shorter batch, InsertAndScore's one point among them, goes point
///    by point: a buffer scan, then binary searches and one descent per
///    run. A full buffer is sorted into a run.
///  * A new run merges with the newest runs while their size class
///    (floor(log2 size)) is no larger than its own: the binary-counter
///    rule. A merge is linear, both in the points and in the union of
///    the y domains with code translation, so no run is ever re-sorted,
///    and each point is merged O(log n) times over the stream.
///  * A value's count already indexed, which the tie sums need, is the
///    sum over runs of its x range (hi − lo) or its y count, plus its
///    buffer count.
/// Amortised cost per point is O(log^2 n); memory is O(n log n) bits of
/// wavelet levels plus 24 bytes per point.
class ConcordanceIndex {
 public:
  ConcordanceIndex() = default;

  /// Points currently indexed.
  size_t size() const { return size_; }

  /// Indexes the n points (xs[i], ys[i]) and returns their S increment.
  int64_t Append(const double* xs, const double* ys, size_t n);

  /// Append of the one point (x, y).
  int64_t InsertAndScore(double x, double y) { return Append(&x, &y, 1); }

  /// Tie-group sums of the indexed x and y values.
  const TieSums& x_ties() const { return x_ties_; }
  const TieSums& y_ties() const { return y_ties_; }

  /// Runs built so far — a batch, a full buffer, or a merge of runs
  /// (telemetry).
  int64_t compactions() const { return compactions_; }

  /// Wavelet-level storage across all runs (memory telemetry).
  size_t IndexBytes() const;

 private:
  // Points in (x, y) order. Values are NanAwareKey keys, so unsigned
  // compares give the NanAwareLess order.
  struct Run {
    std::vector<uint64_t> xs;        // ascending; parallel to codes
    std::vector<uint32_t> codes;     // rank of each point's y in y_domain
    std::vector<uint64_t> y_domain;  // distinct y keys, ascending
    // Built when the run joins the index:
    std::vector<uint32_t> y_cum;     // y_cum[c] = points with code < c
    WaveletMatrix wm;                // codes in x order: prefix quadrant counts

    size_t size() const { return xs.size(); }
  };

  // A probe y value's place in one run, and the part of a probe point's
  // S against the run that does not depend on its x.
  struct YPlace {
    uint32_t rank = 0;  // lower bound in the run's y_domain
    bool present = false;
    int64_t equal = 0;  // run points with this y
    int64_t base = 0;   // m − 2·(points below y) − equal
  };

  // Buffer capacity. The buffer is scanned brute-force per point, which
  // is cheap (contiguous flops) up to a few hundred points.
  static constexpr size_t kBufferCap = 256;
  // The batch size from which a batch becomes a run. Timed over whole
  // streams of equal batches (10k and 100k points; continuous data and 5
  // or 50 distinct values), runs cost 0.68–0.91× the point-by-point path
  // at 32 points and 0.47–0.70× at 100; at 16 they cost up to 1.13×. So
  // the CLI's default 100-row batches take the run path, as do
  // e2ebench's 512- and 1024-row ones, unless a conditioning split leaves
  // a stratum fewer than 32 rows of a batch.
  static constexpr size_t kMinRun = 32;

  int64_t AppendPoint(double x, double y);
  int64_t AppendRun(const double* xs, const double* ys, size_t n);
  static Run SortedRun(const double* xs, const double* ys, size_t n);
  static YPlace PlaceY(const Run& run, size_t rank, uint64_t y);
  // S of the point (x, y) against `run`; adds its x-tie and y-tie counts
  // in `run` to *x_seen and *y_seen.
  static int64_t ScorePoint(const Run& run, uint64_t x, uint64_t y, int64_t* x_seen,
                            int64_t* y_seen);
  // S of every point of `batch` against `run`; adds each batch point's
  // x-tie count in `run` to x_seen[i] and each batch y code's count in
  // `run` to y_seen[c].
  static int64_t ScoreBatch(const Run& run, const Run& batch, int64_t* x_seen, int64_t* y_seen);
  void Push(Run run);
  static Run Merge(const Run& a, const Run& b);

  std::vector<double> buffer_x_;
  std::vector<double> buffer_y_;
  std::vector<Run> runs_;  // size classes strictly decreasing
  TieSums x_ties_;
  TieSums y_ties_;
  size_t size_ = 0;
  int64_t compactions_ = 0;
};

}  // namespace scoded

#endif  // SCODED_STATS_SEGMENT_TREE_H_
