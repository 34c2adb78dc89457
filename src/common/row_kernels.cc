#include "common/row_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/kernel_backend.h"

#ifdef ENLD_KERNEL_X86
#include <immintrin.h>
#endif

namespace enld {

namespace {

// ---- One scalar source per loop ----------------------------------------
//
// An elementwise kernel is written once, as the body of a lambda marked
// ENLD_INLINE_LOOP, and RunOnBackend compiles that body into a function
// with the active backend's target attribute: the same loop, vectorized
// at 4 (generic x86-64), 8 (avx2) or 16 (avx512) lanes. Lane-wise
// vectorization never reorders a lane's operations and this file is built
// with -ffp-contract=off, so every backend returns the scalar loop's bits.

#define ENLD_INLINE_LOOP __attribute__((always_inline))

#ifdef ENLD_KERNEL_X86
template <typename Loop>
__attribute__((target("avx2"))) void RunAvx2(const Loop& loop) {
  loop();
}

template <typename Loop>
__attribute__((target("avx512f"))) void RunAvx512(const Loop& loop) {
  loop();
}
#endif

template <typename Loop>
void RunOnBackend(const Loop& loop) {
#ifdef ENLD_KERNEL_X86
  switch (ActiveKernelIsa()) {
    case KernelIsa::kAvx512:
      RunAvx512(loop);
      return;
    case KernelIsa::kAvx2:
      RunAvx2(loop);
      return;
    case KernelIsa::kGeneric:
      break;
  }
#endif
  loop();
}

// ---- Scalar references ---------------------------------------------------

inline ENLD_INLINE_LOOP float RowMaxScalar(const float* row, size_t cols) {
  float maxv = row[0];
  for (size_t c = 1; c < cols; ++c) maxv = std::max(maxv, row[c]);
  return maxv;
}

inline ENLD_INLINE_LOOP void SoftmaxRowScalar(const float* in, float* out,
                                              size_t cols) {
  const float maxv = RowMaxScalar(in, cols);
  float sum = 0.0f;
  for (size_t c = 0; c < cols; ++c) {
    out[c] = std::exp(in[c] - maxv);
    sum += out[c];
  }
  const float inv = 1.0f / sum;
  for (size_t c = 0; c < cols; ++c) out[c] *= inv;
}

inline size_t ArgMaxScalar(const float* row, size_t cols) {
  size_t best = 0;
  for (size_t c = 1; c < cols; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
}

/// Columns [0, cols) of rows [row_begin, rows) of m into out, eight rows
/// at a time: the reads walk them in step and each write fills eight
/// adjacent floats of an output row.
void TransposeScalar(const float* m, size_t rows, size_t cols,
                     size_t row_begin, float* out) {
  for (size_t j0 = row_begin; j0 < rows; j0 += 8) {
    const size_t j1 = std::min(rows, j0 + 8);
    for (size_t p = 0; p < cols; ++p) {
      for (size_t j = j0; j < j1; ++j) out[p * rows + j] = m[j * cols + p];
    }
  }
}

#ifdef ENLD_KERNEL_X86
// ---- AVX-512: glibc's FMA expf, eight doubles per vector -----------------
//
// glibc 2.36's expf (sysdeps/ieee754/flt-32/e_expf.c) writes x/ln2 * 32 as
// k + r, reads 2^(k/32) from a 32-entry table and evaluates a degree-3
// polynomial in r, all in double. Its FMA build, which glibc picks on CPUs
// with FMA, contracts five multiply-adds; the clone makes the same five
// explicit, so it matches that build bit for bit (and the non-FMA build
// differs from both on x = -0x1.f8cbb2p+5). glibc's special cases start
// at |x| >= 88, so lanes outside [-87, 88], and NaN lanes, call std::exp.

/// T[i] = bits(2^(i/32)) - (i << 47): glibc's __exp2f_data.tab.
alignas(64) constexpr uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540};

constexpr double kInvLn2N = 0x1.71547652b82fep+0 * 32;
constexpr double kShift = 0x1.8p52;
constexpr double kC0 = 0x1.c6af84b912394p-5 / (32.0 * 32.0 * 32.0);
constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / (32.0 * 32.0);
constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32.0;
constexpr float kCloneLow = -87.0f;
constexpr float kCloneHigh = 88.0f;

constexpr size_t kLanes = 16;  // Floats per __m512.

// GCC 12's plain forms of max, cvtps_pd, cvtpd_ps, slli, extract and
// insert pass _mm512_undefined_*() as the merge source, which warns
// -Wmaybe-uninitialized once inlined; their zero-masking forms with every
// lane selected are the same instructions without it.
constexpr __mmask8 kAll8 = 0xff;
constexpr __mmask16 kAll16 = 0xffff;

/// Floats [8 * kHalf, 8 * kHalf + 8) of v. (GCC 12 implements
/// _mm512_castps512_ps256 with the plain extract.)
template <int kHalf>
__attribute__((target("avx512f"), always_inline)) inline __m256 Half(
    __m512 v) {
  return _mm256_castpd_ps(
      _mm512_maskz_extractf64x4_pd(kAll8, _mm512_castps_pd(v), kHalf));
}

/// The first `lanes` lanes of a vector (all 16 when lanes >= 16).
inline __mmask16 LeadingLanes(size_t lanes) {
  return lanes >= kLanes ? kAll16 : static_cast<__mmask16>((1u << lanes) - 1);
}

/// The clone's main path on eight floats.
__attribute__((target("avx512f"), always_inline)) inline __m256 ExpClone8(
    __m256 x) {
  const __m512d k_inv_ln2n = _mm512_set1_pd(kInvLn2N);
  const __m512d shift = _mm512_set1_pd(kShift);
  const __m512d xd = _mm512_maskz_cvtps_pd(kAll8, x);
  // kd = round(x * 32/ln2) through the shift; its low mantissa bits hold k.
  __m512d kd = _mm512_fmadd_pd(k_inv_ln2n, xd, shift);
  const __m512i ki = _mm512_castpd_si512(kd);
  kd = _mm512_sub_pd(kd, shift);
  const __m512d r = _mm512_fmsub_pd(k_inv_ln2n, xd, kd);
  // s = 2^(k/32): T[k % 32] from two 16-entry permutes and a blend on
  // index bit 4, plus k in the exponent field.
  const __m512i* table = reinterpret_cast<const __m512i*>(kExp2Table);
  const __m512i low = _mm512_permutex2var_epi64(
      _mm512_load_si512(table), ki, _mm512_load_si512(table + 1));
  const __m512i high = _mm512_permutex2var_epi64(
      _mm512_load_si512(table + 2), ki, _mm512_load_si512(table + 3));
  const __mmask8 upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
  const __m512i t = _mm512_add_epi64(_mm512_mask_blend_epi64(upper, low, high),
                                     _mm512_maskz_slli_epi64(kAll8, ki, 47));
  const __m512d s = _mm512_castsi512_pd(t);
  // y = (C0 r + C1) r^2 + (C2 r + 1), times s.
  const __m512d z =
      _mm512_fmadd_pd(_mm512_set1_pd(kC0), r, _mm512_set1_pd(kC1));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d y = _mm512_fmadd_pd(_mm512_set1_pd(kC2), r, _mm512_set1_pd(1.0));
  y = _mm512_fmadd_pd(z, r2, y);
  return _mm512_maskz_cvtpd_ps(kAll8, _mm512_mul_pd(y, s));
}

/// exp of the `active` lanes of x, with std::exp's bits; inactive lanes
/// are don't-care.
__attribute__((target("avx512f"), always_inline)) inline __m512 Exp16(
    __m512 x, __mmask16 active) {
  __m512 y = _mm512_castpd_ps(_mm512_maskz_insertf64x4(
      kAll8, _mm512_castps_pd(_mm512_castps256_ps512(ExpClone8(Half<0>(x)))),
      _mm256_castps_pd(ExpClone8(Half<1>(x))), 1));
  const __mmask16 in_range =
      _mm512_cmp_ps_mask(x, _mm512_set1_ps(kCloneLow), _CMP_GE_OQ) &
      _mm512_cmp_ps_mask(x, _mm512_set1_ps(kCloneHigh), _CMP_LE_OQ);
  const unsigned outside = active & ~in_range;
  if (outside != 0) {
    alignas(64) float xs[kLanes];
    alignas(64) float ys[kLanes];
    _mm512_store_ps(xs, x);
    _mm512_store_ps(ys, y);
    for (size_t lane = 0; lane < kLanes; ++lane) {
      if ((outside >> lane) & 1u) ys[lane] = std::exp(xs[lane]);
    }
    y = _mm512_load_ps(ys);
  }
  return y;
}

__attribute__((target("avx512f"))) void ExpAvx512(const float* x, float* y,
                                                  size_t n) {
  for (size_t i = 0; i < n; i += kLanes) {
    const __mmask16 active = LeadingLanes(n - i);
    _mm512_mask_storeu_ps(
        y + i, active, Exp16(_mm512_maskz_loadu_ps(active, x + i), active));
  }
}

/// Max over the lanes, reduced by hand (GCC 12 warns
/// -Wmaybe-uninitialized inside _mm512_reduce_max_ps too).
__attribute__((target("avx512f"))) inline float HorizontalMax(__m512 v) {
  const __m256 m8 = _mm256_max_ps(Half<0>(v), Half<1>(v));
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(m8),
                         _mm256_extractf128_ps(m8, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
  return _mm_cvtss_f32(m4);
}

/// The row's maximum, or false when the row holds a NaN. Without NaN the
/// maximum's value does not depend on the order it is folded in; only the
/// sign of a zero maximum can, and x - (+0) and x - (-0) have the same exp.
__attribute__((target("avx512f"))) bool VectorRowMax(const float* row,
                                                     size_t cols,
                                                     float* max) {
  const __m512 neg_inf = _mm512_set1_ps(-INFINITY);
  __m512 acc = neg_inf;
  __mmask16 nan = 0;
  for (size_t c = 0; c < cols; c += kLanes) {
    const __m512 v =
        _mm512_mask_loadu_ps(neg_inf, LeadingLanes(cols - c), row + c);
    nan |= _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
    acc = _mm512_maskz_max_ps(kAll16, acc, v);
  }
  if (nan != 0) return false;
  *max = HorizontalMax(acc);
  return true;
}

/// Softmax under the avx512 backend. Per row: the max (a vector max, or
/// the scalar left fold for a row with a NaN), then the exps 16 at a time.
/// The sums stay sequential per row, eight rows interleaved so their add
/// chains overlap; the normalisation runs 16 lanes wide.
__attribute__((target("avx512f"))) void SoftmaxRowsAvx512(const float* in,
                                                          float* out,
                                                          size_t rows,
                                                          size_t cols) {
  constexpr size_t kBlock = 8;
  for (size_t r0 = 0; r0 < rows; r0 += kBlock) {
    const size_t block = std::min(kBlock, rows - r0);
    float sums[kBlock] = {};
    for (size_t r = 0; r < block; ++r) {
      const float* x = in + (r0 + r) * cols;
      float* o = out + (r0 + r) * cols;
      float maxv;
      if (!VectorRowMax(x, cols, &maxv)) maxv = RowMaxScalar(x, cols);
      const __m512 vmax = _mm512_set1_ps(maxv);
      for (size_t c = 0; c < cols; c += kLanes) {
        const __mmask16 active = LeadingLanes(cols - c);
        const __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(active, x + c),
                                       vmax);
        _mm512_mask_storeu_ps(o + c, active, Exp16(d, active));
      }
    }
    const float* o = out + r0 * cols;
    if (block == kBlock) {
      for (size_t c = 0; c < cols; ++c) {
#pragma GCC unroll 8
        for (size_t r = 0; r < kBlock; ++r) sums[r] += o[r * cols + c];
      }
    } else {
      for (size_t r = 0; r < block; ++r) {
        for (size_t c = 0; c < cols; ++c) sums[r] += o[r * cols + c];
      }
    }
    for (size_t r = 0; r < block; ++r) {
      float* row = out + (r0 + r) * cols;
      const __m512 inv = _mm512_set1_ps(1.0f / sums[r]);
      for (size_t c = 0; c < cols; c += kLanes) {
        const __mmask16 active = LeadingLanes(cols - c);
        _mm512_mask_storeu_ps(
            row + c, active,
            _mm512_mul_ps(_mm512_maskz_loadu_ps(active, row + c), inv));
      }
    }
  }
}

/// The first index of the row's maximum: the vector max, then the first
/// lane equal to it (+0 and -0 compare equal, as in the scalar rule). A
/// row with a NaN takes the scalar loop.
__attribute__((target("avx512f"))) size_t ArgMaxAvx512(const float* row,
                                                       size_t cols) {
  float maxv;
  if (!VectorRowMax(row, cols, &maxv)) return ArgMaxScalar(row, cols);
  const __m512 vmax = _mm512_set1_ps(maxv);
  for (size_t c = 0; c < cols; c += kLanes) {
    const __mmask16 active = LeadingLanes(cols - c);
    const __mmask16 hit = _mm512_mask_cmp_ps_mask(
        active, _mm512_maskz_loadu_ps(active, row + c), vmax, _CMP_EQ_OQ);
    if (hit != 0) return c + static_cast<size_t>(__builtin_ctz(hit));
  }
  return 0;  // Unreachable: the maximum is one of the row's values.
}

/// The loss pass under the avx512 backend: a compare finds the t > 0
/// lanes of each 16 and only those take the scalar loss term, in column
/// order; the gradient runs 16 lanes wide.
__attribute__((target("avx512f"))) double CrossEntropyGradAvx512(
    float* probs, const float* targets, size_t rows, size_t cols,
    float scale) {
  const __m512 vscale = _mm512_set1_ps(scale);
  double total = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    float* p = probs + r * cols;
    const float* t = targets + r * cols;
    for (size_t c = 0; c < cols; c += kLanes) {
      const __mmask16 active = LeadingLanes(cols - c);
      const __m512 tv = _mm512_maskz_loadu_ps(active, t + c);
      for (unsigned hot = _mm512_mask_cmp_ps_mask(active, tv,
                                                  _mm512_setzero_ps(),
                                                  _CMP_GT_OQ);
           hot != 0; hot &= hot - 1) {
        const size_t j = c + static_cast<size_t>(__builtin_ctz(hot));
        total -= static_cast<double>(t[j]) *
                 std::log(std::max(static_cast<double>(p[j]), 1e-12));
      }
      const __m512 pv = _mm512_maskz_loadu_ps(active, p + c);
      _mm512_mask_storeu_ps(p + c, active,
                            _mm512_mul_ps(_mm512_sub_ps(pv, tv), vscale));
    }
  }
  return total;
}

/// Transposes the 8 x 8 block at `src` (row stride `ld_src`) into `dst`
/// (row stride `ld_dst`).
__attribute__((target("avx2"))) inline void Transpose8x8(const float* src,
                                                         size_t ld_src,
                                                         float* dst,
                                                         size_t ld_dst) {
  __m256 r[8];
  for (size_t i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * ld_src);
  __m256 t[8];
  for (size_t i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  __m256 s[8];
  for (size_t i = 0; i < 8; i += 4) {
    s[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
    s[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
    s[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
    s[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (size_t i = 0; i < 4; ++i) {
    _mm256_storeu_ps(dst + i * ld_dst,
                     _mm256_permute2f128_ps(s[i], s[i + 4], 0x20));
    _mm256_storeu_ps(dst + (i + 4) * ld_dst,
                     _mm256_permute2f128_ps(s[i], s[i + 4], 0x31));
  }
}

/// The transpose under the avx2 and avx512 backends: 8 x 8 register
/// blocks, then the scalar loop for the column tail and the last rows.
__attribute__((target("avx2"))) void TransposeAvx2(const float* m,
                                                   size_t rows, size_t cols,
                                                   float* out) {
  size_t j0 = 0;
  for (; j0 + 8 <= rows; j0 += 8) {
    size_t p0 = 0;
    for (; p0 + 8 <= cols; p0 += 8) {
      Transpose8x8(m + j0 * cols + p0, cols, out + p0 * rows + j0, rows);
    }
    for (size_t p = p0; p < cols; ++p) {
      for (size_t j = j0; j < j0 + 8; ++j) out[p * rows + j] = m[j * cols + p];
    }
  }
  TransposeScalar(m, rows, cols, j0, out);
}

/// The self-check behind ExpCloneActive: the clone against a runtime
/// std::exp on the input where glibc's FMA and non-FMA builds differ, the
/// clone's domain ends, and every 2^20th float of the domain. The inputs
/// pass through a volatile: GCC folds std::exp of a constant with MPFR,
/// whose correctly rounded exp(-0x1.f8cbb2p+5) is 0x1.f45324p-92 where
/// glibc's FMA expf returns 0x1.f45326p-92.
bool CloneMatchesLibm() {
  if (!__builtin_cpu_supports("avx512f") || !__builtin_cpu_supports("fma")) {
    return false;
  }
  std::vector<float> probes = {-0x1.f8cbb2p+5f, kCloneLow, kCloneHigh, 0.0f,
                               -0.0f};
  for (const float end : {kCloneLow, kCloneHigh}) {
    uint32_t last;
    std::memcpy(&last, &end, sizeof(last));
    const uint32_t sign = last & 0x80000000u;
    for (uint32_t bits = sign; bits < last; bits += 1u << 20) {
      float x;
      std::memcpy(&x, &bits, sizeof(x));
      probes.push_back(x);
    }
  }
  std::vector<float> clone(probes.size());
  ExpAvx512(probes.data(), clone.data(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    volatile float input = probes[i];
    const float want = std::exp(static_cast<float>(input));
    if (std::memcmp(&want, &clone[i], sizeof(want)) != 0) return false;
  }
  return true;
}
#endif

}  // namespace

bool ExpCloneActive() {
#ifdef ENLD_KERNEL_X86
  static const bool active = CloneMatchesLibm();
  return active;
#else
  return false;
#endif
}

void ExpKernel(const float* x, float* y, size_t n) {
#ifdef ENLD_KERNEL_X86
  if (ActiveKernelIsa() == KernelIsa::kAvx512 && ExpCloneActive()) {
    ExpAvx512(x, y, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) y[i] = std::exp(x[i]);
}

void SoftmaxRowsKernel(const float* in, float* out, size_t rows,
                       size_t cols) {
#ifdef ENLD_KERNEL_X86
  if (ActiveKernelIsa() == KernelIsa::kAvx512 && ExpCloneActive()) {
    SoftmaxRowsAvx512(in, out, rows, cols);
    return;
  }
#endif
  RunOnBackend([=]() ENLD_INLINE_LOOP {
    for (size_t r = 0; r < rows; ++r) {
      SoftmaxRowScalar(in + r * cols, out + r * cols, cols);
    }
  });
}

void ArgMaxRowsKernel(const float* m, size_t rows, size_t cols, int* out) {
#ifdef ENLD_KERNEL_X86
  if (ActiveKernelIsa() == KernelIsa::kAvx512) {
    for (size_t r = 0; r < rows; ++r) {
      out[r] = static_cast<int>(ArgMaxAvx512(m + r * cols, cols));
    }
    return;
  }
#endif
  for (size_t r = 0; r < rows; ++r) {
    out[r] = static_cast<int>(ArgMaxScalar(m + r * cols, cols));
  }
}

double CrossEntropyGradKernel(float* probs, const float* targets,
                              size_t rows, size_t cols, float scale) {
#ifdef ENLD_KERNEL_X86
  if (ActiveKernelIsa() == KernelIsa::kAvx512) {
    return CrossEntropyGradAvx512(probs, targets, rows, cols, scale);
  }
#endif
  double total = 0.0;
  RunOnBackend([&]() ENLD_INLINE_LOOP {
    for (size_t r = 0; r < rows; ++r) {
      float* p = probs + r * cols;
      const float* t = targets + r * cols;
      for (size_t j = 0; j < cols; ++j) {
        if (t[j] > 0.0f) {
          total -= static_cast<double>(t[j]) *
                   std::log(std::max(static_cast<double>(p[j]), 1e-12));
        }
      }
      for (size_t j = 0; j < cols; ++j) p[j] = (p[j] - t[j]) * scale;
    }
  });
  return total;
}

void AddBiasKernel(float* m, size_t rows, size_t cols, const float* bias,
                   bool relu) {
  if (relu) {
    RunOnBackend([=]() ENLD_INLINE_LOOP {
      for (size_t r = 0; r < rows; ++r) {
        float* row = m + r * cols;
        for (size_t c = 0; c < cols; ++c) {
          const float z = row[c] + bias[c];
          row[c] = z > 0.0f ? z : 0.0f;
        }
      }
    });
    return;
  }
  RunOnBackend([=]() ENLD_INLINE_LOOP {
    for (size_t r = 0; r < rows; ++r) {
      float* row = m + r * cols;
      for (size_t c = 0; c < cols; ++c) row[c] += bias[c];
    }
  });
}

void ReluMaskKernel(const float* output, const float* grad, float* masked,
                    size_t n) {
  // Reading grad[i] unconditionally lets the loop vectorize as a compare
  // and a blend.
  RunOnBackend([=]() ENLD_INLINE_LOOP {
    for (size_t i = 0; i < n; ++i) {
      const float g = grad[i];
      masked[i] = output[i] > 0.0f ? g : 0.0f;
    }
  });
}

void AddColumnSumsKernel(const float* m, size_t rows, size_t cols,
                         float* sums) {
  RunOnBackend([=]() ENLD_INLINE_LOOP {
    // Blocks of 64 columns: each block's partial sums stay in L1 (in
    // registers on the wider backends) while the rows stream past.
    constexpr size_t kBlock = 64;
    for (size_t c0 = 0; c0 < cols; c0 += kBlock) {
      const size_t width = std::min(kBlock, cols - c0);
      float acc[kBlock] = {};
      for (size_t r = 0; r < rows; ++r) {
        const float* row = m + r * cols + c0;
        for (size_t c = 0; c < width; ++c) acc[c] += row[c];
      }
      for (size_t c = 0; c < width; ++c) sums[c0 + c] += acc[c];
    }
  });
}

void SgdKernel(float* w, float* v, const float* g, size_t n, float lr,
               float momentum, float weight_decay) {
  RunOnBackend([=]() ENLD_INLINE_LOOP {
    for (size_t j = 0; j < n; ++j) {
      v[j] = momentum * v[j] - lr * (g[j] + weight_decay * w[j]);
      w[j] += v[j];
    }
  });
}

void TransposeKernel(const float* m, size_t rows, size_t cols, float* out) {
#ifdef ENLD_KERNEL_X86
  if (ActiveKernelIsa() != KernelIsa::kGeneric) {
    TransposeAvx2(m, rows, cols, out);
    return;
  }
#endif
  TransposeScalar(m, rows, cols, 0, out);
}

}  // namespace enld
