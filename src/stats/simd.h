#ifndef SCODED_STATS_SIMD_H_
#define SCODED_STATS_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "stats/colcodec.h"

#if defined(__x86_64__) || defined(__i386__)
#define SCODED_SIMD_X86 1
#endif

namespace scoded::simd {

/// Instruction-set tier of the active kernel table. kScalar is the
/// branchy per-row reference implementation every optimised kernel is
/// checked against; kSse2 is the width-specialised blocked path written
/// in portable C++ (compiles to baseline x86-64 vector code, and is the
/// optimised tier on every other target too); kAvx2 adds a hand-written
/// 256-bit pair_sign_scan and is kSse2 otherwise.
enum class Path : uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

const char* PathName(Path path);

/// Parses "off"/"scalar", "sse2", "avx2" (the SCODED_SIMD values).
std::optional<Path> ParsePath(std::string_view name);

/// Widest path this CPU supports: kAvx2 when CPUID reports AVX2, else
/// kSse2, whose portable kernels need no CPU feature.
Path BestSupportedPath();

/// The function-pointer kernel table. One table per Path; all tables
/// produce bit-identical outputs (every kernel returns exact integers),
/// so the choice of path never changes a statistic downstream.
struct Kernels {
  /// Joint-count accumulation: counts[x*ny + y] += 1 for every row where
  /// both codes are valid. `counts` must hold x.cardinality()*y.cardinality()
  /// zero-initialised (or pre-seeded) cells. x and y must be row-aligned.
  void (*contingency)(const CompressedCodes& x, const CompressedCodes& y, int64_t* counts);

  /// As `contingency`, and also records in `first_row[cell]` the smallest
  /// row index that hit the cell (UINT32_MAX = untouched). Used by the
  /// shard summaries, whose merge order is keyed on first occurrence.
  void (*contingency_first)(const CompressedCodes& x, const CompressedCodes& y, int64_t* counts,
                            uint32_t* first_row);

  /// Dense (competition-free) ranks of `values` into `ranks[i]` in
  /// [0, distinct); returns the distinct count. NaN-aware: NaNs sort
  /// after all numbers and share one rank.
  size_t (*dense_ranks)(const double* values, size_t n, size_t* ranks);

  /// Counts inversions of `values` by merge sort; `values` is left sorted
  /// and `scratch` must hold n elements. The τ merge pass.
  int64_t (*count_inversions)(uint32_t* values, uint32_t* scratch, size_t n);

  /// Population count of one mask word — the wavelet-matrix quadrant
  /// primitive (scalar path counts bit by bit, the vector paths use the
  /// whole-word instruction).
  int (*popcount_word)(uint64_t word);

  /// Kendall pair scan against a window: for each i adds
  /// sign(x - xs[i])·sign(y - ys[i]) into *s and counts the non-zero
  /// products into *nonzero. The streaming-monitor window kernel.
  void (*pair_sign_scan)(const double* xs, const double* ys, size_t n, double x, double y,
                         int64_t* s, int64_t* nonzero);
};

/// The kernel table for the active path. Resolution happens once on
/// first use: SCODED_SIMD (off|scalar|sse2|avx2) overrides, otherwise the
/// widest CPU-supported path wins; the outcome is logged via obs.
const Kernels& Active();

/// Path of the table Active() returns.
Path ActivePath();

/// Table for a specific path (kernel equivalence tests / benches).
const Kernels& KernelsFor(Path path);

/// Pins the dispatch to `path` (tests and benches only). Returns false —
/// leaving the dispatch untouched — when the CPU lacks the path.
bool ForcePath(Path path);

/// Re-resolves the dispatch from SCODED_SIMD / CPUID, undoing ForcePath.
void ResetPathFromEnvironment();

}  // namespace scoded::simd

#endif  // SCODED_STATS_SIMD_H_
