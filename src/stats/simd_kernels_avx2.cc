// The AVX2 body of PairSignScan, in its own TU so only this function
// carries the target("avx2") attribute; PairSignScan calls it only after
// CPUID reports AVX2. GCC compiles the portable loop to one scalar
// compare per element, and windowed monitor appends run about 4.5x
// slower without this body.

#include "stats/simd.h"

#if defined(SCODED_X86)

#include <immintrin.h>

#include <cmath>

namespace scoded::simd {

// Kendall pair scan, 4 double pairs per iteration. dx = (x>a)-(x<a) is
// built from the two comparison masks; the product over {-1,0,1} is
// sign-equality under a both-nonzero mask. Sums are exact integers, so
// the lane order never affects the result. Signs follow NanAwareLess: a
// number probe is below a NaN element, which _CMP_NGE_UQ ("less, or
// unordered") reports; a NaN probe is rare and takes the portable loop.
__attribute__((target("avx2"))) void PairSignScanAvx2(const double* xs, const double* ys, size_t n,
                                                      double x, double y, int64_t* s,
                                                      int64_t* nonzero) {
  if (std::isnan(x) || std::isnan(y)) {
    PairSignScanPortable(xs, ys, n, x, y, s, nonzero);
    return;
  }
  const __m256d vx = _mm256_set1_pd(x);
  const __m256d vy = _mm256_set1_pd(y);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i neg_one = _mm256_set1_epi64x(-1);
  __m256i vs = _mm256_setzero_si256();
  __m256i vnz = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d ax = _mm256_loadu_pd(xs + i);
    __m256d ay = _mm256_loadu_pd(ys + i);
    __m256i gx = _mm256_castpd_si256(_mm256_cmp_pd(vx, ax, _CMP_GT_OQ));
    __m256i lx = _mm256_castpd_si256(_mm256_cmp_pd(vx, ax, _CMP_NGE_UQ));
    __m256i gy = _mm256_castpd_si256(_mm256_cmp_pd(vy, ay, _CMP_GT_OQ));
    __m256i ly = _mm256_castpd_si256(_mm256_cmp_pd(vy, ay, _CMP_NGE_UQ));
    __m256i dx = _mm256_sub_epi64(lx, gx);  // +1 greater, -1 less, 0 tie
    __m256i dy = _mm256_sub_epi64(ly, gy);
    __m256i nz = _mm256_and_si256(_mm256_or_si256(gx, lx), _mm256_or_si256(gy, ly));
    __m256i same = _mm256_cmpeq_epi64(dx, dy);
    __m256i p = _mm256_and_si256(_mm256_blendv_epi8(neg_one, one, same), nz);
    vs = _mm256_add_epi64(vs, p);
    vnz = _mm256_sub_epi64(vnz, nz);
  }
  alignas(32) int64_t buf[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(buf), vs);
  int64_t acc = buf[0] + buf[1] + buf[2] + buf[3];
  _mm256_store_si256(reinterpret_cast<__m256i*>(buf), vnz);
  int64_t nz_acc = buf[0] + buf[1] + buf[2] + buf[3];
  int64_t tail_s = 0;
  int64_t tail_nz = 0;
  PairSignScanPortable(xs + i, ys + i, n - i, x, y, &tail_s, &tail_nz);
  *s = acc + tail_s;
  *nonzero = nz_acc + tail_nz;
}

}  // namespace scoded::simd

#endif  // SCODED_X86
