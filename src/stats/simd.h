#ifndef SCODED_STATS_SIMD_H_
#define SCODED_STATS_SIMD_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define SCODED_X86 1
#endif

// The stat kernels. Every one returns exact integers, so no statistic
// depends on which body ran. Only the pair scan has a CPU-specific body;
// each other kernel is one portable function. Each optimised kernel has a
// `*Reference` twin — the simplest correct formulation, one row at a time
// — that tests check it against and bench_stat_micro times it against.

namespace scoded::simd {

/// Body PairSignScan runs, chosen once from CPUID: kAvx2 is the 256-bit
/// intrinsic loop, kSse2 the portable loop (baseline x86-64 code, and the
/// same loop on every other target).
enum class Path : uint8_t {
  kSse2,
  kAvx2,
};

const char* PathName(Path path);

/// kAvx2 when CPUID reports AVX2, else kSse2.
Path ActivePath();

/// Joint counts of two row-aligned int32 code columns: counts[x[i]·ny +
/// y[i]] += 1 for every row where both codes are valid (negative = null,
/// else below nx resp. ny). `counts` holds nx·ny zeroed cells. Rows go
/// in 64-row blocks through four interleaved histogram lanes; in a block
/// with a null, each null row adds 0 to cell 0 (its null bucket) instead
/// of taking a per-row branch.
void Contingency(const int32_t* x, const int32_t* y, size_t n, size_t nx, size_t ny,
                 int64_t* counts);
void ContingencyReference(const int32_t* x, const int32_t* y, size_t n, size_t nx, size_t ny,
                          int64_t* counts);

/// Dense ranks of `values` into `ranks[i]` in [0, distinct); returns the
/// distinct count. NaNs sort after all numbers and share one rank, and so
/// do -0.0 and +0.0. An LSD radix sort on order-preserving keys; the
/// reference sorts, dedups and binary-searches.
size_t DenseRanks(const double* values, size_t n, size_t* ranks);
size_t DenseRanksReference(const double* values, size_t n, size_t* ranks);

/// Inversion count of `values` by merge sort, leaving `values` sorted;
/// `scratch` must hold n elements. The τ merge pass: bottom-up, where the
/// reference recurses top-down.
int64_t CountInversions(uint32_t* values, uint32_t* scratch, size_t n);
int64_t CountInversionsReference(uint32_t* values, uint32_t* scratch, size_t n);

/// Kendall pair scan against a window: adds sign(x - xs[i])·sign(y -
/// ys[i]) into *s and counts the non-zero products into *nonzero. Signs
/// follow NanAwareLess: NaN is above every number, and two NaNs tie. The
/// streaming monitor's window kernel; runs the body ActivePath() names.
void PairSignScan(const double* xs, const double* ys, size_t n, double x, double y,
                  int64_t* s, int64_t* nonzero);

/// The two bodies of PairSignScan. PairSignScanAvx2 needs a CPU with AVX2.
void PairSignScanPortable(const double* xs, const double* ys, size_t n, double x, double y,
                          int64_t* s, int64_t* nonzero);
#if defined(SCODED_X86)
void PairSignScanAvx2(const double* xs, const double* ys, size_t n, double x, double y,
                      int64_t* s, int64_t* nonzero);
#endif

}  // namespace scoded::simd

#endif  // SCODED_STATS_SIMD_H_
