#include "common/distance.h"

#include <algorithm>
#include <cstring>

#include "common/kernel_backend.h"

#ifdef ENLD_KERNEL_X86
#include <immintrin.h>
#endif

namespace enld {

namespace {

/// Plain-C++ fallback: 8 independent fp32 accumulators, one per lane,
/// held as two 4-lane vector values (common/kernel_backend.h), each lane
/// summing (p[d] - q[d])^2 over dimensions in index order — the same
/// operation sequence per lane as the AVX2 path (and as SquaredDistance),
/// so results match bitwise. The TU is built with -ffp-contract=off so
/// the compiler cannot fuse the mul+add into FMA here but not there.
/// Written as a plain 8-lane loop nest, -O3 vectorizes it across
/// dimensions instead, with in-order reductions that run slower than the
/// scalar loop.
void GenericKernel(const float* soa, size_t stride, size_t count, size_t dim,
                   const float* query, float* out) {
  for (size_t base = 0; base < count; base += kDistanceLanes) {
    Lanes4 lo = {}, hi = {};
    for (size_t d = 0; d < dim; ++d) {
      const float q = query[d];
      const float* row = soa + d * stride + base;
      Lanes4 p_lo, p_hi;
      std::memcpy(&p_lo, row, sizeof(p_lo));
      std::memcpy(&p_hi, row + 4, sizeof(p_hi));
      const Lanes4 diff_lo = p_lo - q;
      const Lanes4 diff_hi = p_hi - q;
      lo += diff_lo * diff_lo;
      hi += diff_hi * diff_hi;
    }
    const Lanes4 acc[2] = {lo, hi};
    const size_t n = std::min(kDistanceLanes, count - base);
    std::memcpy(out + base, acc, n * sizeof(float));
  }
}

#ifdef ENLD_KERNEL_X86
/// AVX2 path. Deliberately no FMA (separate _mm256_mul_ps + _mm256_add_ps):
/// each lane performs the identical fp32 sequence as GenericKernel, so the
/// two backends agree bitwise and runtime dispatch never changes results.
__attribute__((target("avx2"))) void Avx2Kernel(const float* soa,
                                                size_t stride, size_t count,
                                                size_t dim, const float* query,
                                                float* out) {
  for (size_t base = 0; base < count; base += kDistanceLanes) {
    __m256 acc = _mm256_setzero_ps();
    for (size_t d = 0; d < dim; ++d) {
      const __m256 q = _mm256_set1_ps(query[d]);
      const __m256 p = _mm256_loadu_ps(soa + d * stride + base);
      const __m256 diff = _mm256_sub_ps(p, q);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
    }
    const size_t n = std::min(kDistanceLanes, count - base);
    if (n == kDistanceLanes) {
      _mm256_storeu_ps(out + base, acc);
    } else {
      float lanes[kDistanceLanes];
      _mm256_storeu_ps(lanes, acc);
      std::memcpy(out + base, lanes, n * sizeof(float));
    }
  }
}

#endif

}  // namespace

float SquaredDistance(const float* a, const float* b, size_t dim) {
  float dist = 0.0f;
  for (size_t d = 0; d < dim; ++d) {
    const float diff = a[d] - b[d];
    dist += diff * diff;
  }
  return dist;
}

void PackSoaBlock(const float* src, size_t src_cols, const size_t* rows,
                  size_t count, size_t stride, float* dst) {
  for (size_t d = 0; d < src_cols; ++d) {
    float* lane = dst + d * stride;
    for (size_t i = 0; i < count; ++i) lane[i] = src[rows[i] * src_cols + d];
    std::fill(lane + count, lane + stride, 0.0f);
  }
}

void BatchedSquaredDistances(const float* soa, size_t stride, size_t count,
                             size_t dim, const float* query, float* out) {
  if (count == 0) return;
#ifdef ENLD_KERNEL_X86
  if (ActiveKernelIsa() != KernelIsa::kGeneric) {  // avx512 runs AVX2 here.
    Avx2Kernel(soa, stride, count, dim, query, out);
    return;
  }
#endif
  GenericKernel(soa, stride, count, dim, query, out);
}

}  // namespace enld
