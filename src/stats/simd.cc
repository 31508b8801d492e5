#include "stats/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "common/check.h"
#include "obs/log.h"
#include "stats/ranks.h"
#include "stats/simd_internal.h"

namespace scoded::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. Deliberately the simplest correct per-row /
// per-bit formulation — every optimised path is property-tested against
// these, and SCODED_SIMD=off pins the whole library to them.
// ---------------------------------------------------------------------------

inline bool RowValid(const uint64_t* valid, size_t row) {
  return valid == nullptr || ((valid[row >> 6] >> (row & 63)) & 1u) != 0;
}

template <typename XT, typename YT>
void ContingencyScalarImpl(const CompressedCodes& xc, const CompressedCodes& yc,
                           int64_t* counts) {
  const XT* x = reinterpret_cast<const XT*>(xc.data_u8());
  const YT* y = reinterpret_cast<const YT*>(yc.data_u8());
  const uint64_t* xv = xc.valid_words();
  const uint64_t* yv = yc.valid_words();
  const size_t n = xc.size();
  const size_t ny = yc.cardinality();
  for (size_t i = 0; i < n; ++i) {
    if (!RowValid(xv, i) || !RowValid(yv, i)) {
      continue;
    }
    counts[static_cast<size_t>(x[i]) * ny + static_cast<size_t>(y[i])] += 1;
  }
}

// Expands a width-pair dispatch over the 3x3 lane combinations.
template <template <typename, typename> class Fn, typename... Args>
void DispatchWidths(const CompressedCodes& x, const CompressedCodes& y, Args... args) {
  switch (x.width()) {
    case CodeWidth::kU8:
      switch (y.width()) {
        case CodeWidth::kU8:
          return Fn<uint8_t, uint8_t>::Run(x, y, args...);
        case CodeWidth::kU16:
          return Fn<uint8_t, uint16_t>::Run(x, y, args...);
        case CodeWidth::kU32:
          return Fn<uint8_t, uint32_t>::Run(x, y, args...);
      }
      break;
    case CodeWidth::kU16:
      switch (y.width()) {
        case CodeWidth::kU8:
          return Fn<uint16_t, uint8_t>::Run(x, y, args...);
        case CodeWidth::kU16:
          return Fn<uint16_t, uint16_t>::Run(x, y, args...);
        case CodeWidth::kU32:
          return Fn<uint16_t, uint32_t>::Run(x, y, args...);
      }
      break;
    case CodeWidth::kU32:
      switch (y.width()) {
        case CodeWidth::kU8:
          return Fn<uint32_t, uint8_t>::Run(x, y, args...);
        case CodeWidth::kU16:
          return Fn<uint32_t, uint16_t>::Run(x, y, args...);
        case CodeWidth::kU32:
          return Fn<uint32_t, uint32_t>::Run(x, y, args...);
      }
      break;
  }
}

template <typename XT, typename YT>
struct ContingencyScalarFn {
  static void Run(const CompressedCodes& x, const CompressedCodes& y, int64_t* counts) {
    ContingencyScalarImpl<XT, YT>(x, y, counts);
  }
};

void ContingencyScalar(const CompressedCodes& x, const CompressedCodes& y, int64_t* counts) {
  SCODED_CHECK(x.size() == y.size());
  DispatchWidths<ContingencyScalarFn>(x, y, counts);
}

// Reference dense ranks: the historical sort + unique + per-element
// binary-search formulation from stats/ranks.cc.
size_t DenseRanksScalar(const double* values, size_t n, size_t* ranks) {
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

// Reference inversion count: top-down recursive merge, mirroring the
// historical stats/kendall.cc formulation.
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

int64_t CountInversionsScalar(uint32_t* values, uint32_t* scratch, size_t n) {
  return CountInversionsRecursive(values, scratch, 0, n);
}

// Per-bit popcount (Kernighan): the "descend one bit at a time" baseline
// the wavelet-matrix bench compares the whole-word instruction against.
int PopcountScalar(uint64_t word) {
  int count = 0;
  while (word != 0) {
    word &= word - 1;
    ++count;
  }
  return count;
}

void PairSignScanScalar(const double* xs, const double* ys, size_t n, double x, double y,
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

}  // namespace

namespace internal {

// ---------------------------------------------------------------------------
// Portable blocked kernels (the kSse2 tier): 64-row validity words, a
// branch-free all-valid fast block, and 4-way interleaved histogram lanes
// when the cell count is cache-resident. Compiles to baseline x86-64
// (SSE2) vector code; no intrinsics, so it is also the non-x86 optimised
// tier.
// ---------------------------------------------------------------------------

namespace {

template <typename XT, typename YT>
void ContingencyBlockedImpl(const CompressedCodes& xc, const CompressedCodes& yc,
                            int64_t* counts) {
  const XT* x = reinterpret_cast<const XT*>(xc.data_u8());
  const YT* y = reinterpret_cast<const YT*>(yc.data_u8());
  const uint64_t* xv = xc.valid_words();
  const uint64_t* yv = yc.valid_words();
  const size_t n = xc.size();
  const size_t ny = yc.cardinality();
  const size_t cells = xc.cardinality() * ny;

  const bool interleave = cells > 0 && cells <= kInterleaveCells && n >= 256;
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

  const size_t words = n / 64;
  for (size_t w = 0; w < words; ++w) {
    uint64_t valid = (xv != nullptr ? xv[w] : ~0ull) & (yv != nullptr ? yv[w] : ~0ull);
    const XT* xb = x + w * 64;
    const YT* yb = y + w * 64;
    if (valid == ~0ull) {
      for (size_t i = 0; i < 64; i += 4) {
        counts[static_cast<size_t>(xb[i]) * ny + yb[i]] += 1;
        c1[static_cast<size_t>(xb[i + 1]) * ny + yb[i + 1]] += 1;
        c2[static_cast<size_t>(xb[i + 2]) * ny + yb[i + 2]] += 1;
        c3[static_cast<size_t>(xb[i + 3]) * ny + yb[i + 3]] += 1;
      }
    } else {
      while (valid != 0) {
        int bit = __builtin_ctzll(valid);
        valid &= valid - 1;
        counts[static_cast<size_t>(xb[bit]) * ny + yb[bit]] += 1;
      }
    }
  }
  for (size_t i = words * 64; i < n; ++i) {
    if (RowValid(xv, i) && RowValid(yv, i)) {
      counts[static_cast<size_t>(x[i]) * ny + y[i]] += 1;
    }
  }
  if (interleave) {
    for (size_t c = 0; c < cells; ++c) {
      counts[c] += c1[c] + c2[c] + c3[c];
    }
  }
}

template <typename XT, typename YT>
struct ContingencyBlockedFn {
  static void Run(const CompressedCodes& x, const CompressedCodes& y, int64_t* counts) {
    ContingencyBlockedImpl<XT, YT>(x, y, counts);
  }
};

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

}  // namespace

void ContingencyBlocked(const CompressedCodes& x, const CompressedCodes& y, int64_t* counts) {
  SCODED_CHECK(x.size() == y.size());
  DispatchWidths<ContingencyBlockedFn>(x, y, counts);
}

// LSD radix sort over order-preserving keys (8-bit digits, uniform-digit
// passes skipped), then one run scan to assign dense ranks. Produces the
// identical rank vector to the sort+unique+lower_bound reference: ranks
// depend only on the order and equality structure of the values, which
// OrderedKey preserves exactly.
size_t DenseRanksRadix(const double* values, size_t n, size_t* ranks) {
  if (n == 0) {
    return 0;
  }
  if (n > UINT32_MAX) {
    return DenseRanksScalar(values, n, ranks);
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

// Bottom-up iterative merge with a sorted-boundary fast path (adjacent
// runs already in order contribute zero inversions and are copied
// wholesale). Same exact count as the recursive reference — skipped
// merges are precisely the ones with no cross-run inversions.
int64_t CountInversionsBottomUp(uint32_t* values, uint32_t* scratch, size_t n) {
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

void PairSignScanPortable(const double* xs, const double* ys, size_t n, double x, double y,
                          int64_t* s, int64_t* nonzero) {
  PairSignScanScalar(xs, ys, n, x, y, s, nonzero);
}

int PopcountBuiltin(uint64_t word) { return __builtin_popcountll(word); }

}  // namespace internal

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

namespace {

const Kernels kScalarKernels = {
    ContingencyScalar, DenseRanksScalar,   CountInversionsScalar,
    PopcountScalar,    PairSignScanScalar,
};

const Kernels kPortableKernels = {
    internal::ContingencyBlocked,      internal::DenseRanksRadix,
    internal::CountInversionsBottomUp, internal::PopcountBuiltin,
    internal::PairSignScanPortable,
};

struct DispatchState {
  std::atomic<const Kernels*> kernels{nullptr};
  std::atomic<Path> path{Path::kScalar};
};

DispatchState& State() {
  static DispatchState state;
  return state;
}

Path ResolvePath(bool log) {
  Path best = BestSupportedPath();
  Path chosen = best;
  const char* env = std::getenv("SCODED_SIMD");
  std::string requested = (env != nullptr && *env != '\0') ? env : "auto";
  if (env != nullptr && *env != '\0') {
    std::optional<Path> parsed = ParsePath(env);
    if (!parsed.has_value()) {
      if (log) {
        obs::LogWarn("unknown SCODED_SIMD value; using auto dispatch", {{"value", env}});
      }
    } else if (static_cast<uint8_t>(*parsed) > static_cast<uint8_t>(best)) {
      if (log) {
        obs::LogWarn("SCODED_SIMD path unsupported on this CPU; clamping",
                     {{"requested", PathName(*parsed)}, {"supported", PathName(best)}});
      }
    } else {
      chosen = *parsed;
    }
  }
  if (log) {
    obs::LogInfo("simd kernel dispatch resolved",
                 {{"path", PathName(chosen)},
                  {"requested", requested},
                  {"cpu_best", PathName(best)}});
  }
  return chosen;
}

void StorePath(Path path) {
  State().kernels.store(&KernelsFor(path), std::memory_order_release);
  State().path.store(path, std::memory_order_release);
}

void EnsureResolved() {
  static std::once_flag once;
  std::call_once(once, [] { StorePath(ResolvePath(/*log=*/true)); });
}

}  // namespace

const char* PathName(Path path) {
  switch (path) {
    case Path::kScalar:
      return "scalar";
    case Path::kSse2:
      return "sse2";
    case Path::kAvx2:
      return "avx2";
  }
  return "?";
}

std::optional<Path> ParsePath(std::string_view name) {
  if (name == "off" || name == "scalar") {
    return Path::kScalar;
  }
  if (name == "sse2") {
    return Path::kSse2;
  }
  if (name == "avx2") {
    return Path::kAvx2;
  }
  return std::nullopt;
}

Path BestSupportedPath() {
#if defined(SCODED_SIMD_X86)
  if (internal::Avx2KernelsOrNull() != nullptr && __builtin_cpu_supports("avx2")) {
    return Path::kAvx2;
  }
#endif
  // The portable blocked kernels use no intrinsics, so every target runs
  // them.
  return Path::kSse2;
}

const Kernels& KernelsFor(Path path) {
  switch (path) {
    case Path::kScalar:
      return kScalarKernels;
    case Path::kSse2:
      return kPortableKernels;
    case Path::kAvx2: {
      const Kernels* avx2 = internal::Avx2KernelsOrNull();
      return avx2 != nullptr ? *avx2 : kPortableKernels;
    }
  }
  return kScalarKernels;
}

const Kernels& Active() {
  EnsureResolved();
  return *State().kernels.load(std::memory_order_acquire);
}

Path ActivePath() {
  EnsureResolved();
  return State().path.load(std::memory_order_acquire);
}

bool ForcePath(Path path) {
  EnsureResolved();
  if (static_cast<uint8_t>(path) > static_cast<uint8_t>(BestSupportedPath())) {
    return false;
  }
  StorePath(path);
  return true;
}

void ResetPathFromEnvironment() {
  EnsureResolved();
  StorePath(ResolvePath(/*log=*/false));
}

}  // namespace scoded::simd
