#ifndef SCODED_STATS_SIMD_INTERNAL_H_
#define SCODED_STATS_SIMD_INTERNAL_H_

#include "stats/simd.h"

// Shared between simd.cc (scalar + portable blocked kernels, dispatch)
// and simd_kernels_avx2.cc (the intrinsic paths). Not for use outside
// the kernel layer.

namespace scoded::simd::internal {

// Cell-count ceiling for the 4-way interleaved histogram lanes: 4 lanes
// of 8192 int64 cells = 256 KiB, small enough to stay cache-resident
// while breaking the store-forwarding dependency on hot cells.
inline constexpr size_t kInterleaveCells = 8192;

// Portable width-specialised blocked kernels — the kSse2 table, and every
// AVX2 table entry but pair_sign_scan.
void ContingencyBlocked(const CompressedCodes& x, const CompressedCodes& y, int64_t* counts);
size_t DenseRanksRadix(const double* values, size_t n, size_t* ranks);
int64_t CountInversionsBottomUp(uint32_t* values, uint32_t* scratch, size_t n);
void PairSignScanPortable(const double* xs, const double* ys, size_t n, double x, double y,
                          int64_t* s, int64_t* nonzero);
int PopcountBuiltin(uint64_t word);

// Defined in simd_kernels_avx2.cc; nullptr when the build target is not
// x86 (the dispatch then never offers Path::kAvx2).
const Kernels* Avx2KernelsOrNull();

}  // namespace scoded::simd::internal

#endif  // SCODED_STATS_SIMD_INTERNAL_H_
