#include "stats/segment_tree.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "stats/simd.h"

namespace scoded {

SegmentTree::SegmentTree(size_t size) : size_(size) {
  leaves_ = 1;
  while (leaves_ < size_) {
    leaves_ <<= 1;
  }
  tree_.assign(2 * leaves_, 0);
}

void SegmentTree::Add(size_t pos, int64_t delta) {
  SCODED_CHECK(pos < size_);
  size_t node = leaves_ + pos;
  while (node >= 1) {
    tree_[node] += delta;
    if (node == 1) {
      break;
    }
    node >>= 1;
  }
}

int64_t SegmentTree::Sum(size_t lo, size_t hi) const {
  if (size_ == 0 || lo > hi || lo >= size_) {
    return 0;
  }
  if (hi >= size_) {
    hi = size_ - 1;
  }
  // Iterative bottom-up range sum on the implicit tree.
  int64_t total = 0;
  size_t left = leaves_ + lo;
  size_t right = leaves_ + hi + 1;  // half-open
  while (left < right) {
    if (left & 1) {
      total += tree_[left++];
    }
    if (right & 1) {
      total += tree_[--right];
    }
    left >>= 1;
    right >>= 1;
  }
  return total;
}

void SegmentTree::Clear() { tree_.assign(tree_.size(), 0); }

WaveletMatrix::WaveletMatrix(const std::vector<uint32_t>& codes, size_t domain)
    : size_(codes.size()), domain_(domain) {
  level_count_ = 0;
  while ((size_t{1} << level_count_) < domain_) {
    ++level_count_;
  }
  levels_.resize(static_cast<size_t>(level_count_));
  std::vector<uint32_t> current = codes;
  std::vector<uint32_t> next(size_);
  size_t words = size_ / 64 + 1;
  for (int l = 0; l < level_count_; ++l) {
    Level& level = levels_[static_cast<size_t>(l)];
    level.bits.assign(words, 0);
    level.rank.assign(words + 1, 0);
    uint32_t shift = static_cast<uint32_t>(level_count_ - 1 - l);
    // Pack the msb-first bit of every code, then stably partition the
    // sequence (zeros before ones) for the next level — both passes are
    // contiguous streams.
    size_t zeros = 0;
    for (size_t i = 0; i < size_; ++i) {
      if ((current[i] >> shift) & 1u) {
        level.bits[i >> 6] |= uint64_t{1} << (i & 63);
      } else {
        ++zeros;
      }
    }
    level.zeros = zeros;
    uint32_t ones_before = 0;
    for (size_t w = 0; w < words; ++w) {
      level.rank[w] = ones_before;
      ones_before += static_cast<uint32_t>(std::popcount(level.bits[w]));
    }
    level.rank[words] = ones_before;
    size_t zero_at = 0;
    size_t one_at = zeros;
    for (size_t i = 0; i < size_; ++i) {
      if ((current[i] >> shift) & 1u) {
        next[one_at++] = current[i];
      } else {
        next[zero_at++] = current[i];
      }
    }
    current.swap(next);
  }
}

int64_t WaveletMatrix::Rank1(const Level& level, size_t pos) const {
  size_t w = pos >> 6;
  size_t r = pos & 63;
  int64_t count = level.rank[w];
  if (r != 0) {
    count += std::popcount(level.bits[w] & (~uint64_t{0} >> (64 - r)));
  }
  return count;
}

void WaveletMatrix::PrefixCounts(size_t k, uint32_t v, int64_t* lt, int64_t* eq) const {
  *lt = 0;
  *eq = 0;
  if (size_ == 0 || k == 0) {
    return;
  }
  if (k > size_) {
    k = size_;
  }
  if (v >= domain_) {
    *lt = static_cast<int64_t>(k);
    return;
  }
  size_t lo = 0;
  size_t hi = k;
  for (int l = 0; l < level_count_; ++l) {
    const Level& level = levels_[static_cast<size_t>(l)];
    int64_t r1_lo = Rank1(level, lo);
    int64_t r1_hi = Rank1(level, hi);
    if ((v >> (level_count_ - 1 - l)) & 1u) {
      // Codes with a zero here are strictly smaller; follow the ones.
      *lt += (static_cast<int64_t>(hi) - r1_hi) - (static_cast<int64_t>(lo) - r1_lo);
      lo = level.zeros + static_cast<size_t>(r1_lo);
      hi = level.zeros + static_cast<size_t>(r1_hi);
    } else {
      lo -= static_cast<size_t>(r1_lo);
      hi -= static_cast<size_t>(r1_hi);
    }
    if (lo == hi) {
      return;  // no prefix occurrences of v survive this level
    }
  }
  *eq = static_cast<int64_t>(hi - lo);
}

size_t WaveletMatrix::MemoryBytes() const {
  size_t total = 0;
  for (const Level& level : levels_) {
    total += level.bits.size() * sizeof(uint64_t) + level.rank.size() * sizeof(uint32_t);
  }
  return total;
}

ConcordanceIndex::Block ConcordanceIndex::BuildBlock(std::vector<double> xs,
                                                     std::vector<double> ys) {
  size_t m = xs.size();
  std::vector<std::pair<double, double>> points(m);
  for (size_t i = 0; i < m; ++i) {
    points[i] = {xs[i], ys[i]};
  }
  std::sort(points.begin(), points.end());
  Block block;
  block.occupied = true;
  block.xs.resize(m);
  block.ys.resize(m);
  for (size_t i = 0; i < m; ++i) {
    block.xs[i] = points[i].first;
    block.ys[i] = points[i].second;
  }
  block.ys_sorted = block.ys;
  std::sort(block.ys_sorted.begin(), block.ys_sorted.end());
  block.y_domain = block.ys_sorted;
  block.y_domain.erase(std::unique(block.y_domain.begin(), block.y_domain.end()),
                       block.y_domain.end());
  std::vector<uint32_t> codes(m);
  for (size_t k = 0; k < m; ++k) {
    codes[k] = static_cast<uint32_t>(
        std::lower_bound(block.y_domain.begin(), block.y_domain.end(), block.ys[k]) -
        block.y_domain.begin());
  }
  block.wm = WaveletMatrix(codes, block.y_domain.size());
  return block;
}

// Upper bound as a short forward scan from the matching lower bound: ties
// with the probe are usually scarce, so the scan ends in a step or two; a
// long tie run falls back to binary search on the remainder.
static size_t ScanUpperBound(const std::vector<double>& values, size_t lower, double v) {
  size_t i = lower;
  size_t limit = std::min(values.size(), lower + 8);
  while (i < limit && values[i] == v) {
    ++i;
  }
  if (i == limit && i < values.size() && values[i] == v) {
    i = static_cast<size_t>(std::upper_bound(values.begin() + static_cast<ptrdiff_t>(i),
                                             values.end(), v) -
                            values.begin());
  }
  return i;
}

void ConcordanceIndex::ScoreBlock(const Block& block, double x, double y, Quadrants* q) {
  size_t m = block.xs.size();
  size_t lo = static_cast<size_t>(
      std::lower_bound(block.xs.begin(), block.xs.end(), x) - block.xs.begin());
  size_t hi = ScanUpperBound(block.xs, lo, x);
  // yc is y's rank in the block's y domain; `present` says whether the
  // rank actually names y (an equal count only applies then).
  size_t yc = static_cast<size_t>(
      std::lower_bound(block.y_domain.begin(), block.y_domain.end(), y) -
      block.y_domain.begin());
  bool present = yc < block.y_domain.size() && block.y_domain[yc] == y;
  int64_t lt_lo;
  int64_t eq_lo;
  int64_t lt_hi;
  int64_t eq_hi;
  block.wm.PrefixCounts(lo, static_cast<uint32_t>(yc), &lt_lo, &eq_lo);
  if (hi == lo) {  // no x-ties with the probe: the two prefixes coincide
    lt_hi = lt_lo;
    eq_hi = eq_lo;
  } else {
    block.wm.PrefixCounts(hi, static_cast<uint32_t>(yc), &lt_hi, &eq_hi);
  }
  int64_t le_lo = present ? lt_lo + eq_lo : lt_lo;
  int64_t le_hi = present ? lt_hi + eq_hi : lt_hi;
  // Whole-block y counts need no tree walk: they are binary searches on
  // the contiguous sorted-y array.
  int64_t lt_m = std::lower_bound(block.ys_sorted.begin(), block.ys_sorted.end(), y) -
                 block.ys_sorted.begin();
  int64_t le_m =
      static_cast<int64_t>(ScanUpperBound(block.ys_sorted, static_cast<size_t>(lt_m), y));
  // x-prefix [0, lo): x_j < x, so y_j < y pairs are concordant and
  // y_j > y pairs discordant; the x-suffix [hi, m) mirrors them.
  q->concordant += lt_lo + (static_cast<int64_t>(m - hi) - (le_m - le_hi));
  q->discordant += (static_cast<int64_t>(lo) - le_lo) + (lt_m - lt_hi);
}

ConcordanceIndex::Quadrants ConcordanceIndex::Score(double x, double y) const {
  Quadrants q;
  // Buffer scan: sign(dx)*sign(dy) is +1 concordant, -1 discordant, 0 for
  // ties on either axis.
  int64_t s = 0;
  int64_t nonzero = 0;
  simd::PairSignScan(buffer_x_.data(), buffer_y_.data(), buffer_x_.size(), x, y, &s, &nonzero);
  q.concordant = (nonzero + s) / 2;
  q.discordant = (nonzero - s) / 2;
  for (const Block& block : blocks_) {
    if (block.occupied) {
      ScoreBlock(block, x, y, &q);
    }
  }
  return q;
}

void ConcordanceIndex::Insert(double x, double y) {
  buffer_x_.push_back(x);
  buffer_y_.push_back(y);
  ++size_;
  if (buffer_x_.size() >= kBufferCap) {
    Compact();
  }
}

int64_t ConcordanceIndex::InsertAndScore(double x, double y) {
  Quadrants q = Score(x, y);
  Insert(x, y);
  return q.concordant - q.discordant;
}

void ConcordanceIndex::Compact() {
  static obs::Counter* const compaction_counter =
      obs::Metrics::Global().FindOrCreateCounter("stats.concordance_compactions");
  compaction_counter->Add();
  ++compactions_;
  // Binary-counter cascade: the buffer plus every occupied level below the
  // first free one merge into a block of exactly kBufferCap << level points.
  std::vector<double> xs = std::move(buffer_x_);
  std::vector<double> ys = std::move(buffer_y_);
  buffer_x_.clear();
  buffer_y_.clear();
  size_t level = 0;
  while (level < blocks_.size() && blocks_[level].occupied) {
    Block& merged = blocks_[level];
    xs.insert(xs.end(), merged.xs.begin(), merged.xs.end());
    ys.insert(ys.end(), merged.ys.begin(), merged.ys.end());
    merged = Block{};
    ++level;
  }
  if (level >= blocks_.size()) {
    blocks_.resize(level + 1);
  }
  blocks_[level] = BuildBlock(std::move(xs), std::move(ys));
}

size_t ConcordanceIndex::IndexBytes() const {
  size_t total = 0;
  for (const Block& block : blocks_) {
    if (block.occupied) {
      total += block.wm.MemoryBytes();
    }
  }
  return total;
}

}  // namespace scoded
