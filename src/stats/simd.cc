#include "stats/simd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "stats/ranks.h"

namespace scoded::simd {

namespace {

// Cell-count ceiling for the 4-way interleaved histogram lanes: 4 lanes
// of 8192 int64 cells = 256 KiB, small enough to stay cache-resident
// while breaking the store-forwarding dependency on hot cells.
constexpr size_t kInterleaveCells = 8192;

// Order-preserving u64 key of a double: numeric order for numbers (with
// -0.0 collapsed onto +0.0 so equal doubles share a key), every NaN
// payload mapped to the single top key — exactly the NanAwareLess /
// NanAwareEqual structure dense ranks are defined by.
inline uint64_t OrderedKey(double v) {
  if (std::isnan(v)) {
    return ~0ull;
  }
  if (v == 0.0) {
    v = 0.0;  // collapse -0.0
  }
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits & (1ull << 63)) != 0 ? ~bits : (bits | (1ull << 63));
}

// Top-down recursive merge behind CountInversionsReference.
int64_t CountInversionsRecursive(uint32_t* values, uint32_t* scratch, size_t lo, size_t hi) {
  if (hi - lo <= 1) {
    return 0;
  }
  size_t mid = lo + (hi - lo) / 2;
  int64_t inversions = CountInversionsRecursive(values, scratch, lo, mid) +
                       CountInversionsRecursive(values, scratch, mid, hi);
  size_t a = lo;
  size_t b = mid;
  size_t out = lo;
  while (a < mid && b < hi) {
    if (values[a] <= values[b]) {
      scratch[out++] = values[a++];
    } else {
      inversions += static_cast<int64_t>(mid - a);
      scratch[out++] = values[b++];
    }
  }
  while (a < mid) {
    scratch[out++] = values[a++];
  }
  while (b < hi) {
    scratch[out++] = values[b++];
  }
  std::copy(scratch + lo, scratch + hi, values + lo);
  return inversions;
}

}  // namespace

const char* PathName(Path path) {
  switch (path) {
    case Path::kSse2:
      return "sse2";
    case Path::kAvx2:
      return "avx2";
  }
  return "?";
}

Path ActivePath() {
#if defined(SCODED_X86)
  static const Path path = __builtin_cpu_supports("avx2") ? Path::kAvx2 : Path::kSse2;
  return path;
#else
  return Path::kSse2;
#endif
}

void Contingency(const int32_t* x, const int32_t* y, size_t n, size_t nx, size_t ny,
                 int64_t* counts) {
  const size_t cells = nx * ny;
  if (cells == 0) {
    return;  // an empty domain leaves only null rows
  }
  const bool interleave = cells <= kInterleaveCells && n >= 256;
  std::vector<int64_t> lanes;
  int64_t* c1 = counts;
  int64_t* c2 = counts;
  int64_t* c3 = counts;
  if (interleave) {
    lanes.assign(3 * cells, 0);
    c1 = lanes.data();
    c2 = c1 + cells;
    c3 = c2 + cells;
  }
  // Cell of row i; unsigned arithmetic, so a null row's value is defined
  // (and masked off below).
  auto cell = [&](size_t i) {
    SCODED_DCHECK((x[i] | y[i]) < 0 ||
                  (static_cast<size_t>(x[i]) < nx && static_cast<size_t>(y[i]) < ny));
    return static_cast<size_t>(x[i]) * ny + static_cast<size_t>(y[i]);
  };
  // Counts row i into `lane` without a branch: a null row adds 0 to cell
  // 0, its null bucket.
  auto add = [&](int64_t* lane, size_t i) {
    const int64_t valid = ((x[i] | y[i]) >> 31) + 1;  // 0 if a code is negative, else 1
    lane[cell(i) & (0 - static_cast<size_t>(valid))] += valid;
  };
  const size_t full = n - n % 64;
  for (size_t begin = 0; begin < full; begin += 64) {
    // The sign bit of the OR is set iff some code in the block is null.
    int32_t any_null = 0;
    for (size_t i = begin; i < begin + 64; ++i) {
      any_null |= x[i] | y[i];
    }
    if (any_null >= 0) {
      for (size_t i = begin; i < begin + 64; i += 4) {
        counts[cell(i)] += 1;
        c1[cell(i + 1)] += 1;
        c2[cell(i + 2)] += 1;
        c3[cell(i + 3)] += 1;
      }
    } else {
      for (size_t i = begin; i < begin + 64; i += 4) {
        add(counts, i);
        add(c1, i + 1);
        add(c2, i + 2);
        add(c3, i + 3);
      }
    }
  }
  for (size_t i = full; i < n; ++i) {
    add(counts, i);
  }
  if (interleave) {
    for (size_t c = 0; c < cells; ++c) {
      counts[c] += c1[c] + c2[c] + c3[c];
    }
  }
}

void ContingencyReference(const int32_t* x, const int32_t* y, size_t n,
                          [[maybe_unused]] size_t nx, size_t ny, int64_t* counts) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] < 0 || y[i] < 0) {
      continue;
    }
    SCODED_DCHECK(static_cast<size_t>(x[i]) < nx && static_cast<size_t>(y[i]) < ny);
    counts[static_cast<size_t>(x[i]) * ny + static_cast<size_t>(y[i])] += 1;
  }
}

// LSD radix sort over order-preserving keys (8-bit digits, uniform-digit
// passes skipped), then one run scan to assign dense ranks. Ranks depend
// only on the order and equality structure of the values, which
// OrderedKey preserves exactly, so this matches the reference.
size_t DenseRanks(const double* values, size_t n, size_t* ranks) {
  if (n == 0) {
    return 0;
  }
  if (n > UINT32_MAX) {
    return DenseRanksReference(values, n, ranks);
  }
  std::vector<uint64_t> keys(n);
  std::vector<uint64_t> keys2(n);
  std::vector<uint32_t> idx(n);
  std::vector<uint32_t> idx2(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = OrderedKey(values[i]);
    idx[i] = static_cast<uint32_t>(i);
  }
  uint64_t* k_src = keys.data();
  uint64_t* k_dst = keys2.data();
  uint32_t* i_src = idx.data();
  uint32_t* i_dst = idx2.data();
  for (int shift = 0; shift < 64; shift += 8) {
    size_t hist[256] = {0};
    for (size_t i = 0; i < n; ++i) {
      hist[(k_src[i] >> shift) & 0xff] += 1;
    }
    if (hist[(k_src[0] >> shift) & 0xff] == n) {
      continue;  // every key shares this digit
    }
    size_t offset = 0;
    for (size_t d = 0; d < 256; ++d) {
      size_t count = hist[d];
      hist[d] = offset;
      offset += count;
    }
    for (size_t i = 0; i < n; ++i) {
      size_t d = (k_src[i] >> shift) & 0xff;
      size_t out = hist[d]++;
      k_dst[out] = k_src[i];
      i_dst[out] = i_src[i];
    }
    std::swap(k_src, k_dst);
    std::swap(i_src, i_dst);
  }
  size_t rank = 0;
  ranks[i_src[0]] = 0;
  for (size_t i = 1; i < n; ++i) {
    if (k_src[i] != k_src[i - 1]) {
      ++rank;
    }
    ranks[i_src[i]] = rank;
  }
  return rank + 1;
}

size_t DenseRanksReference(const double* values, size_t n, size_t* ranks) {
  std::vector<double> sorted(values, values + n);
  std::sort(sorted.begin(), sorted.end(), NanAwareLess());
  sorted.erase(std::unique(sorted.begin(), sorted.end(), NanAwareEqual), sorted.end());
  for (size_t i = 0; i < n; ++i) {
    ranks[i] = static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), values[i], NanAwareLess()) -
        sorted.begin());
  }
  return sorted.size();
}

// Bottom-up iterative merge with a sorted-boundary fast path (adjacent
// runs already in order contribute zero inversions and are copied
// wholesale). Same exact count as the recursive reference — skipped
// merges are precisely the ones with no cross-run inversions.
int64_t CountInversions(uint32_t* values, uint32_t* scratch, size_t n) {
  if (n <= 1) {
    return 0;
  }
  int64_t inversions = 0;
  uint32_t* src = values;
  uint32_t* dst = scratch;
  for (size_t width = 1; width < n; width *= 2) {
    for (size_t lo = 0; lo < n; lo += 2 * width) {
      size_t mid = std::min(lo + width, n);
      size_t hi = std::min(lo + 2 * width, n);
      if (mid == hi || src[mid - 1] <= src[mid]) {
        std::memcpy(dst + lo, src + lo, (hi - lo) * sizeof(uint32_t));
        continue;
      }
      size_t a = lo;
      size_t b = mid;
      size_t out = lo;
      while (a < mid && b < hi) {
        if (src[a] <= src[b]) {
          dst[out++] = src[a++];
        } else {
          inversions += static_cast<int64_t>(mid - a);
          dst[out++] = src[b++];
        }
      }
      while (a < mid) {
        dst[out++] = src[a++];
      }
      while (b < hi) {
        dst[out++] = src[b++];
      }
    }
    std::swap(src, dst);
  }
  if (src != values) {
    std::memcpy(values, src, n * sizeof(uint32_t));
  }
  return inversions;
}

int64_t CountInversionsReference(uint32_t* values, uint32_t* scratch, size_t n) {
  return CountInversionsRecursive(values, scratch, 0, n);
}

void PairSignScan(const double* xs, const double* ys, size_t n, double x, double y,
                  int64_t* s, int64_t* nonzero) {
#if defined(SCODED_X86)
  if (ActivePath() == Path::kAvx2) {
    PairSignScanAvx2(xs, ys, n, x, y, s, nonzero);
    return;
  }
#endif
  PairSignScanPortable(xs, ys, n, x, y, s, nonzero);
}

void PairSignScanPortable(const double* xs, const double* ys, size_t n, double x, double y,
                          int64_t* s, int64_t* nonzero) {
  int64_t acc = 0;
  int64_t nz = 0;
  for (size_t i = 0; i < n; ++i) {
    int dx = (x > xs[i]) - (x < xs[i]);
    int dy = (y > ys[i]) - (y < ys[i]);
    int p = dx * dy;
    acc += p;
    nz += p != 0 ? 1 : 0;
  }
  *s = acc;
  *nonzero = nz;
}

}  // namespace scoded::simd
