#include "stats/segment_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "stats/ranks.h"
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
    level.bits.resize(words);
    level.rank.resize(words + 1);
    uint32_t shift = static_cast<uint32_t>(level_count_ - 1 - l);
    // Pack the msb-first bit of every code a word at a time, then stably
    // partition the sequence (zeros before ones) for the next level. Both
    // passes are contiguous streams and branch-free: the bits are as
    // likely 0 as 1.
    uint32_t ones_before = 0;
    for (size_t w = 0; w < words; ++w) {
      uint64_t word = 0;
      const size_t end = std::min(size_, (w + 1) * 64);
      for (size_t i = w * 64; i < end; ++i) {
        word |= static_cast<uint64_t>((current[i] >> shift) & 1u) << (i & 63);
      }
      level.bits[w] = word;
      level.rank[w] = ones_before;
      ones_before += static_cast<uint32_t>(std::popcount(word));
    }
    level.rank[words] = ones_before;
    level.zeros = size_ - ones_before;
    size_t zero_at = 0;
    size_t one_at = level.zeros;
    for (size_t i = 0; i < size_; ++i) {
      const uint32_t code = current[i];
      const size_t one = (code >> shift) & 1u;
      next[one != 0 ? one_at : zero_at] = code;
      one_at += one;
      zero_at += one ^ 1u;
    }
    current.swap(next);
  }
}

int64_t WaveletMatrix::Rank1(const Level& level, size_t pos) const {
  const uint64_t below = (uint64_t{1} << (pos & 63)) - 1;
  return level.rank[pos >> 6] + std::popcount(level.bits[pos >> 6] & below);
}

void WaveletMatrix::PrefixCounts(size_t k, uint32_t v, int64_t* lt, int64_t* eq) const {
  Counts counts;
  PrefixCountsPair(k, k, v, &counts, &counts);
  *lt = counts.lt;
  *eq = counts.eq;
}

WaveletMatrix::Path WaveletMatrix::StartPath(size_t k1, size_t k2, uint32_t v) const {
  Path path;
  path.v = v;
  if (v >= domain_) {
    // Every code is below v: the counts are the prefixes, and the empty
    // path adds nothing on the way down.
    path.lt1 = static_cast<int64_t>(std::min(k1, size_));
    path.lt2 = static_cast<int64_t>(std::min(k2, size_));
  } else {
    path.end1 = std::min(k1, size_);
    path.end2 = std::min(k2, size_);
  }
  return path;
}

void WaveletMatrix::Step(int l, Path* path) const {
  const Level& level = levels_[static_cast<size_t>(l)];
  const size_t r_start = static_cast<size_t>(Rank1(level, path->start));
  const size_t r_end1 = static_cast<size_t>(Rank1(level, path->end1));
  const size_t r_end2 =
      path->end2 == path->end1 ? r_end1 : static_cast<size_t>(Rank1(level, path->end2));
  // Branch-free, as v's bits are as likely 0 as 1: with a one, the codes
  // with a zero here are strictly smaller and the path follows the ones'
  // partition; with a zero, it follows the zeros'. An empty path stays
  // empty and adds nothing.
  const size_t one = (path->v >> (level_count_ - 1 - l)) & 1u;
  const size_t mask = 0 - one;
  const size_t zeros_before = path->start - r_start;
  path->lt1 += static_cast<int64_t>((path->end1 - r_end1 - zeros_before) & mask);
  path->lt2 += static_cast<int64_t>((path->end2 - r_end2 - zeros_before) & mask);
  auto descend = [&](size_t pos, size_t ones) {
    return ((level.zeros + ones) & mask) | ((pos - ones) & ~mask);
  };
  path->start = descend(path->start, r_start);
  path->end1 = descend(path->end1, r_end1);
  path->end2 = descend(path->end2, r_end2);
}

// Positions map monotonically, so start <= end1 <= end2 throughout, and
// what is left of the path at the bottom is the occurrences of v.
void WaveletMatrix::FinishPath(const Path& path, Counts* at_k1, Counts* at_k2) {
  at_k1->lt = path.lt1;
  at_k1->eq = static_cast<int64_t>(path.end1 - path.start);
  at_k2->lt = path.lt2;
  at_k2->eq = static_cast<int64_t>(path.end2 - path.start);
}

void WaveletMatrix::PrefixCountsPair(size_t k1, size_t k2, uint32_t v, Counts* at_k1,
                                     Counts* at_k2) const {
  Path path = StartPath(k1, k2, v);
  for (int l = 0; l < level_count_ && path.start < path.end2; ++l) {
    Step(l, &path);
  }
  FinishPath(path, at_k1, at_k2);
}

void WaveletMatrix::PrefixCountsPairs(size_t n, const size_t* k1, const size_t* k2,
                                      const uint32_t* v, Counts* at_k1, Counts* at_k2) const {
  std::vector<Path> paths(n);
  for (size_t i = 0; i < n; ++i) {
    paths[i] = StartPath(k1[i], k2[i], v[i]);
  }
  for (int l = 0; l < level_count_; ++l) {
    for (Path& path : paths) {
      Step(l, &path);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    FinishPath(paths[i], &at_k1[i], &at_k2[i]);
  }
}

size_t WaveletMatrix::MemoryBytes() const {
  size_t total = 0;
  for (const Level& level : levels_) {
    total += level.bits.size() * sizeof(uint64_t) + level.rank.size() * sizeof(uint32_t);
  }
  return total;
}

void TieSums::Resize(int64_t from, int64_t to) {
  const double f = static_cast<double>(from);
  const double t = static_cast<double>(to);
  t1 -= f * (f - 1.0);
  t2 -= f * (f - 1.0) * (f - 2.0);
  t3 -= f * (f - 1.0) * (2.0 * f + 5.0);
  t1 += t * (t - 1.0);
  t2 += t * (t - 1.0) * (t - 2.0);
  t3 += t * (t - 1.0) * (2.0 * t + 5.0);
}

namespace {

// First position in [from, size) whose key is not below `key`, galloping
// forward from `from`: O(log distance) when the probes arrive in order.
size_t GallopLowerBound(const uint64_t* keys, size_t from, size_t size, uint64_t key) {
  size_t lo = from;
  size_t hi = from;
  size_t step = 1;
  while (hi < size && keys[hi] < key) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  hi = std::min(hi, size);
  return static_cast<size_t>(std::lower_bound(keys + lo, keys + hi, key) - keys);
}

// End of the run of `key` that starts at `lower`. Ties are usually
// scarce, so the first compare settles it; keys are integers, so a long
// run ends where key + 1 would start (NaN is the top key and ends last).
size_t UpperFrom(const uint64_t* keys, size_t lower, size_t size, uint64_t key) {
  if (lower == size || keys[lower] != key) {
    return lower;
  }
  return key == ~uint64_t{0} ? size : GallopLowerBound(keys, lower + 1, size, key + 1);
}

// Buffer values tied with `v` under NanAwareEqual.
int64_t CountTies(const std::vector<double>& values, double v) {
  int64_t count = 0;
  if (std::isnan(v)) {
    for (double b : values) {
      count += b != b ? 1 : 0;
    }
  } else {
    for (double b : values) {
      count += b == v ? 1 : 0;
    }
  }
  return count;
}

int64_t TiedPairs(int64_t t) { return t * (t - 1) / 2; }

}  // namespace

ConcordanceIndex::Run ConcordanceIndex::SortedRun(const double* xs, const double* ys, size_t n) {
  std::vector<size_t> y_rank(n);
  const size_t d = simd::DenseRanks(ys, n, y_rank.data());
  std::vector<std::pair<uint64_t, uint32_t>> points(n);
  Run run;
  run.y_domain.resize(d);
  for (size_t i = 0; i < n; ++i) {
    run.y_domain[y_rank[i]] = NanAwareKey(ys[i]);
    points[i] = {NanAwareKey(xs[i]), static_cast<uint32_t>(y_rank[i])};
  }
  std::sort(points.begin(), points.end());
  run.xs.resize(n);
  run.codes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    run.xs[i] = points[i].first;
    run.codes[i] = points[i].second;
  }
  return run;
}

ConcordanceIndex::YPlace ConcordanceIndex::PlaceY(const Run& run, size_t rank, uint64_t y) {
  YPlace place;
  place.rank = static_cast<uint32_t>(rank);
  place.present = rank < run.y_domain.size() && run.y_domain[rank] == y;
  const int64_t below = run.y_cum[rank];
  place.equal = place.present ? run.y_cum[rank + 1] - below : 0;
  place.base = static_cast<int64_t>(run.size()) - 2 * below - place.equal;
  return place;
}

namespace {

// S of one probe point against a run. Against run points with x below the
// probe's the pair weight is sign(y − y_j); against those above it is
// −sign(y − y_j); x ties weigh 0. Over the x ranks [0, lo) and [0, hi)
// that sums to 2·lt(lo) + eq(lo) − lo + 2·lt(hi) + eq(hi) − hi + base,
// where eq only counts when y occurs in the run.
int64_t PointS(size_t lo, size_t hi, bool present, int64_t base, WaveletMatrix::Counts at_lo,
               WaveletMatrix::Counts at_hi) {
  const int64_t eq = present ? at_lo.eq + at_hi.eq : 0;
  return 2 * (at_lo.lt + at_hi.lt) + eq - static_cast<int64_t>(lo + hi) + base;
}

}  // namespace

int64_t ConcordanceIndex::ScorePoint(const Run& run, uint64_t x, uint64_t y, int64_t* x_seen,
                                     int64_t* y_seen) {
  const YPlace place = PlaceY(
      run,
      static_cast<size_t>(std::lower_bound(run.y_domain.begin(), run.y_domain.end(), y) -
                          run.y_domain.begin()),
      y);
  const size_t lo =
      static_cast<size_t>(std::lower_bound(run.xs.begin(), run.xs.end(), x) - run.xs.begin());
  const size_t hi = UpperFrom(run.xs.data(), lo, run.size(), x);
  WaveletMatrix::Counts at_lo;
  WaveletMatrix::Counts at_hi;
  run.wm.PrefixCountsPair(lo, hi, place.rank, &at_lo, &at_hi);
  *x_seen += static_cast<int64_t>(hi - lo);
  *y_seen += place.equal;
  return PointS(lo, hi, place.present, place.base, at_lo, at_hi);
}

int64_t ConcordanceIndex::ScoreBatch(const Run& run, const Run& batch, int64_t* x_seen,
                                     int64_t* y_seen) {
  // The batch's y values and its points are both in ascending order, so
  // their positions in the run are found by galloping forward from the
  // previous one.
  const size_t d = batch.y_domain.size();
  std::vector<YPlace> places(d);
  size_t rank = 0;
  for (size_t c = 0; c < d; ++c) {
    rank = GallopLowerBound(run.y_domain.data(), rank, run.y_domain.size(), batch.y_domain[c]);
    places[c] = PlaceY(run, rank, batch.y_domain[c]);
    y_seen[c] += places[c].equal;
  }
  const size_t n = batch.size();
  std::vector<size_t> lo(n);
  std::vector<size_t> hi(n);
  std::vector<uint32_t> v(n);
  size_t at = 0;
  for (size_t i = 0; i < n;) {
    const uint64_t x = batch.xs[i];
    const size_t x_lo = GallopLowerBound(run.xs.data(), at, run.size(), x);
    at = UpperFrom(run.xs.data(), x_lo, run.size(), x);
    for (; i < n && batch.xs[i] == x; ++i) {
      lo[i] = x_lo;
      hi[i] = at;
      v[i] = places[batch.codes[i]].rank;
      x_seen[i] += static_cast<int64_t>(at - x_lo);
    }
  }
  std::vector<WaveletMatrix::Counts> at_lo(n);
  std::vector<WaveletMatrix::Counts> at_hi(n);
  run.wm.PrefixCountsPairs(n, lo.data(), hi.data(), v.data(), at_lo.data(), at_hi.data());
  int64_t s = 0;
  for (size_t i = 0; i < n; ++i) {
    const YPlace& place = places[batch.codes[i]];
    s += PointS(lo[i], hi[i], place.present, place.base, at_lo[i], at_hi[i]);
  }
  return s;
}

int64_t ConcordanceIndex::Append(const double* xs, const double* ys, size_t n) {
  if (n >= kMinRun) {
    return AppendRun(xs, ys, n);
  }
  int64_t s = 0;
  for (size_t i = 0; i < n; ++i) {
    s += AppendPoint(xs[i], ys[i]);
  }
  return s;
}

int64_t ConcordanceIndex::AppendPoint(double x, double y) {
  // Buffer scan: sign(dx)*sign(dy) is +1 concordant, -1 discordant, 0 for
  // ties on either axis.
  int64_t s = 0;
  int64_t nonzero = 0;
  simd::PairSignScan(buffer_x_.data(), buffer_y_.data(), buffer_x_.size(), x, y, &s, &nonzero);
  int64_t x_seen = CountTies(buffer_x_, x);
  int64_t y_seen = CountTies(buffer_y_, y);
  const uint64_t x_key = NanAwareKey(x);
  const uint64_t y_key = NanAwareKey(y);
  for (const Run& run : runs_) {
    s += ScorePoint(run, x_key, y_key, &x_seen, &y_seen);
  }
  x_ties_.Resize(x_seen, x_seen + 1);
  y_ties_.Resize(y_seen, y_seen + 1);
  buffer_x_.push_back(x);
  buffer_y_.push_back(y);
  ++size_;
  if (buffer_x_.size() >= kBufferCap) {
    Push(SortedRun(buffer_x_.data(), buffer_y_.data(), buffer_x_.size()));
    buffer_x_.clear();
    buffer_y_.clear();
  }
  return s;
}

int64_t ConcordanceIndex::AppendRun(const double* xs, const double* ys, size_t n) {
  if (!buffer_x_.empty()) {
    Push(SortedRun(buffer_x_.data(), buffer_y_.data(), buffer_x_.size()));
    buffer_x_.clear();
    buffer_y_.clear();
  }
  Run batch = SortedRun(xs, ys, n);
  const size_t d = batch.y_domain.size();
  std::vector<int64_t> x_seen(n, 0);
  std::vector<int64_t> y_seen(d, 0);
  int64_t s = 0;
  for (const Run& run : runs_) {
    s += ScoreBatch(run, batch, x_seen.data(), y_seen.data());
  }
  // S within the batch (Knight): with the points in (x, y) order, the
  // discordant pairs are the inversions of the y codes, and the
  // concordant ones are the pairs tied on neither axis less those. The
  // same pass over the tie groups grows the tie sums.
  int64_t x_tied = 0;
  int64_t xy_tied = 0;
  for (size_t i = 0; i < n;) {
    size_t end = i + 1;
    size_t same_xy = i;
    for (; end < n && batch.xs[end] == batch.xs[i]; ++end) {
      if (batch.codes[end] != batch.codes[same_xy]) {
        xy_tied += TiedPairs(static_cast<int64_t>(end - same_xy));
        same_xy = end;
      }
    }
    xy_tied += TiedPairs(static_cast<int64_t>(end - same_xy));
    x_tied += TiedPairs(static_cast<int64_t>(end - i));
    x_ties_.Resize(x_seen[i], x_seen[i] + static_cast<int64_t>(end - i));
    i = end;
  }
  std::vector<int64_t> y_count(d, 0);
  for (uint32_t code : batch.codes) {
    ++y_count[code];
  }
  int64_t y_tied = 0;
  for (size_t c = 0; c < d; ++c) {
    y_tied += TiedPairs(y_count[c]);
    y_ties_.Resize(y_seen[c], y_seen[c] + y_count[c]);
  }
  std::vector<uint32_t> order = batch.codes;
  std::vector<uint32_t> scratch(n);
  const int64_t discordant = simd::CountInversions(order.data(), scratch.data(), n);
  s += TiedPairs(static_cast<int64_t>(n)) - x_tied - y_tied + xy_tied - 2 * discordant;
  size_ += n;
  Push(std::move(batch));
  return s;
}

void ConcordanceIndex::Push(Run run) {
  static obs::Counter* const compaction_counter =
      obs::Metrics::Global().FindOrCreateCounter("stats.concordance_compactions");
  // Binary-counter rule: absorb the newest runs while their size class is
  // no larger, so the classes stay strictly decreasing.
  while (!runs_.empty() && std::bit_width(runs_.back().size()) <= std::bit_width(run.size())) {
    run = Merge(runs_.back(), run);
    runs_.pop_back();
  }
  run.y_cum.assign(run.y_domain.size() + 1, 0);
  for (uint32_t code : run.codes) {
    ++run.y_cum[code + 1];
  }
  for (size_t c = 1; c < run.y_cum.size(); ++c) {
    run.y_cum[c] += run.y_cum[c - 1];
  }
  run.wm = WaveletMatrix(run.codes, run.y_domain.size());
  runs_.push_back(std::move(run));
  compaction_counter->Add();
  ++compactions_;
}

ConcordanceIndex::Run ConcordanceIndex::Merge(const Run& a, const Run& b) {
  // Union of the y domains, with each side's codes translated into it.
  const size_t da = a.y_domain.size();
  const size_t db = b.y_domain.size();
  std::vector<uint32_t> a_code(da);
  std::vector<uint32_t> b_code(db);
  Run out;
  out.y_domain.reserve(da + db);
  size_t i = 0;
  size_t j = 0;
  while (i < da || j < db) {
    const uint32_t code = static_cast<uint32_t>(out.y_domain.size());
    const bool take_a = j == db || (i < da && a.y_domain[i] <= b.y_domain[j]);
    const bool take_b = i == da || (j < db && b.y_domain[j] <= a.y_domain[i]);
    out.y_domain.push_back(take_a ? a.y_domain[i] : b.y_domain[j]);
    if (take_a) {
      a_code[i++] = code;
    }
    if (take_b) {
      b_code[j++] = code;
    }
  }
  // The points, by (x, translated code).
  const size_t na = a.size();
  const size_t nb = b.size();
  out.xs.resize(na + nb);
  out.codes.resize(na + nb);
  size_t k = 0;
  i = 0;
  j = 0;
  while (i < na && j < nb) {
    const uint32_t ca = a_code[a.codes[i]];
    const uint32_t cb = b_code[b.codes[j]];
    if (a.xs[i] < b.xs[j] || (a.xs[i] == b.xs[j] && ca <= cb)) {
      out.xs[k] = a.xs[i++];
      out.codes[k++] = ca;
    } else {
      out.xs[k] = b.xs[j++];
      out.codes[k++] = cb;
    }
  }
  for (; i < na; ++i, ++k) {
    out.xs[k] = a.xs[i];
    out.codes[k] = a_code[a.codes[i]];
  }
  for (; j < nb; ++j, ++k) {
    out.xs[k] = b.xs[j];
    out.codes[k] = b_code[b.codes[j]];
  }
  return out;
}

size_t ConcordanceIndex::IndexBytes() const {
  size_t total = 0;
  for (const Run& run : runs_) {
    total += run.wm.MemoryBytes();
  }
  return total;
}

}  // namespace scoded
