#include "common/gemm.h"

#include <cmath>
#include <cstring>

#include "common/kernel_backend.h"

#ifdef ENLD_KERNEL_X86
#include <immintrin.h>
#endif

namespace enld {

namespace {

/// Every register tile is up to 4 rows x two vectors: 8 independent FMA
/// chains, plus two B vectors and a broadcast of A, in the 16 registers of
/// AVX2 and SSE. AVX-512 has 32, so it adds a block tile of kGemmTileRows
/// (8) rows: 16 chains, which keep two FMA units busy through a 4-cycle
/// latency. The tiles unroll every loop over rows and vectors (`#pragma
/// GCC unroll`) so the accumulator arrays live in registers at -O2 as well
/// as -O3; left rolled, GCC keeps them on the stack.
constexpr size_t kTileRows = kGemmTileRows;
constexpr size_t kNarrowTileRows = 4;
constexpr size_t kLanes = 8;

struct GemmArgs {
  const float* a;
  size_t a_row_stride;
  size_t a_k_stride;
  const float* b;
  size_t ldb;
  float* c;
  size_t ldc;
  size_t k;
  bool accumulate;
};

/// Computes rows [i0, i0 + rows) of C, for every column.
using RowTileFn = void (*)(const GemmArgs& g, size_t i0, size_t n);

/// One backend's tiles: `rows[r]` computes r (1..4) rows, and `block`, on
/// backends that have one, kTileRows rows.
struct Tiles {
  RowTileFn block;
  RowTileFn rows[kNarrowTileRows + 1];
};

/// Walks the rows in blocks, then in 4-row tiles, then one short tile for
/// the rest. Without a block tile a block is two 4-row tiles.
void RunTiles(const GemmArgs& g, size_t m, size_t n, const Tiles& tiles) {
  size_t i = 0;
  if (tiles.block != nullptr) {
    for (; i + kTileRows <= m; i += kTileRows) tiles.block(g, i, n);
  }
  for (; i + kNarrowTileRows <= m; i += kNarrowTileRows) {
    tiles.rows[kNarrowTileRows](g, i, n);
  }
  if (i < m) tiles.rows[m - i](g, i, n);
}

#define ENLD_GEMM_INLINE __attribute__((always_inline)) inline

/// acc + a * b in each lane, rounded once: std::fma per lane. Where the
/// target has FMA, GCC turns the four calls into one vector FMA;
/// elsewhere each is libm's fmaf, which is correctly rounded too.
ENLD_GEMM_INLINE Lanes4 FmaLanes(float a, Lanes4 b, Lanes4 acc) {
  return Lanes4{std::fma(a, b[0], acc[0]), std::fma(a, b[1], acc[1]),
                std::fma(a, b[2], acc[2]), std::fma(a, b[3], acc[3])};
}

/// Portable backend: one tile of kRows x `width` (<= 8) outputs, each row
/// accumulated in two Lanes4 halves. Written as plain 8-lane loops
/// instead, GCC vectorizes across k with in-order reductions, which runs
/// no faster than the scalar loop. B and C pass through zeroed 8-lane
/// temporaries, so a short tile never reads or writes past the row end.
template <size_t kRows, bool kFull>
ENLD_GEMM_INLINE void GenericTile(const GemmArgs& g, size_t i0, size_t j0,
                                  size_t width) {
  if (kFull) width = kLanes;  // A compile-time width for full tiles.
  const size_t bytes = width * sizeof(float);
  Lanes4 acc[kRows][2] = {};
  const float* a = g.a + i0 * g.a_row_stride;
  const float* b = g.b + j0;
  for (size_t p = 0; p < g.k; ++p) {
    Lanes4 b0 = {}, b1 = {};
    if (kFull) {
      std::memcpy(&b0, b, sizeof(b0));
      std::memcpy(&b1, b + 4, sizeof(b1));
    } else {
      Lanes4 staged[2] = {};
      std::memcpy(staged, b, bytes);
      b0 = staged[0];
      b1 = staged[1];
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < kRows; ++r) {
      const float av = a[r * g.a_row_stride];
      acc[r][0] = FmaLanes(av, b0, acc[r][0]);
      acc[r][1] = FmaLanes(av, b1, acc[r][1]);
    }
    a += g.a_k_stride;
    b += g.ldb;
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < kRows; ++r) {
    float* c = g.c + (i0 + r) * g.ldc + j0;
    Lanes4 out[2] = {acc[r][0], acc[r][1]};
    if (g.accumulate) {
      Lanes4 cv[2] = {};
      std::memcpy(cv, c, bytes);
      out[0] = cv[0] + out[0];
      out[1] = cv[1] + out[1];
    }
    std::memcpy(c, out, bytes);
  }
}

template <size_t kRows>
ENLD_GEMM_INLINE void GenericColumns(const GemmArgs& g, size_t i0,
                                     size_t n) {
  size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    GenericTile<kRows, true>(g, i0, j, kLanes);
  }
  if (j < n) GenericTile<kRows, false>(g, i0, j, n - j);
}

/// Built for baseline x86-64, FmaLanes is a libm call per lane. The FMA
/// clone below compiles the same source with FMA instructions, and Gemm
/// runs it wherever the CPU has FMA, as every CPU the avx2 backend runs on
/// does, so `generic` runs at vector speed there too.
template <size_t kRows>
void GenericRowTile(const GemmArgs& g, size_t i0, size_t n) {
  GenericColumns<kRows>(g, i0, n);
}

constexpr Tiles kGenericTiles = {
    nullptr,
    {nullptr, GenericRowTile<1>, GenericRowTile<2>, GenericRowTile<3>,
     GenericRowTile<4>}};

#ifdef ENLD_KERNEL_X86
template <size_t kRows>
__attribute__((target("fma"))) void GenericFmaRowTile(const GemmArgs& g,
                                                      size_t i0, size_t n) {
  GenericColumns<kRows>(g, i0, n);
}

constexpr Tiles kGenericFmaTiles = {
    nullptr,
    {nullptr, GenericFmaRowTile<1>, GenericFmaRowTile<2>,
     GenericFmaRowTile<3>, GenericFmaRowTile<4>}};

/// AVX2 backend: one tile of kRows x kVecs 8-float vectors, one
/// _mm256_fmadd_ps per term. With kMaskLast the last vector covers only
/// the lanes set in `mask`: masked loads and stores never touch memory
/// past the row end.
template <size_t kRows, size_t kVecs, bool kMaskLast>
__attribute__((target("avx2,fma"))) void Avx2Tile(const GemmArgs& g,
                                                  size_t i0, size_t j0,
                                                  __m256i mask) {
  __m256 acc[kRows][kVecs];
#pragma GCC unroll 4
  for (size_t r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < kVecs; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  const float* a = g.a + i0 * g.a_row_stride;
  const float* b = g.b + j0;
  for (size_t p = 0; p < g.k; ++p) {
    __m256 bv[kVecs];
#pragma GCC unroll 2
    for (size_t v = 0; v < kVecs; ++v) {
      bv[v] = kMaskLast && v + 1 == kVecs
                  ? _mm256_maskload_ps(b + v * kLanes, mask)
                  : _mm256_loadu_ps(b + v * kLanes);
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < kRows; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * g.a_row_stride);
#pragma GCC unroll 2
      for (size_t v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
    a += g.a_k_stride;
    b += g.ldb;
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < kRows; ++r) {
    float* c = g.c + (i0 + r) * g.ldc + j0;
#pragma GCC unroll 2
    for (size_t v = 0; v < kVecs; ++v) {
      float* cv = c + v * kLanes;
      __m256 out = acc[r][v];
      if (kMaskLast && v + 1 == kVecs) {
        if (g.accumulate) {
          out = _mm256_add_ps(_mm256_maskload_ps(cv, mask), out);
        }
        _mm256_maskstore_ps(cv, mask, out);
      } else {
        if (g.accumulate) out = _mm256_add_ps(_mm256_loadu_ps(cv), out);
        _mm256_storeu_ps(cv, out);
      }
    }
  }
}

/// Mask selecting the first `lanes` (1..8) floats of a vector.
__attribute__((target("avx2"))) __m256i LeadingLanes(size_t lanes) {
  return _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(lanes)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

template <size_t kRows>
__attribute__((target("avx2,fma"))) void Avx2RowTile(const GemmArgs& g,
                                                     size_t i0, size_t n) {
  const __m256i all = _mm256_set1_epi32(-1);
  size_t j = 0;
  for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
    Avx2Tile<kRows, 2, false>(g, i0, j, all);
  }
  const size_t rest = n - j;
  if (rest == 0) return;
  if (rest < kLanes) {
    Avx2Tile<kRows, 1, true>(g, i0, j, LeadingLanes(rest));
  } else if (rest == kLanes) {
    Avx2Tile<kRows, 1, false>(g, i0, j, all);
  } else {
    Avx2Tile<kRows, 2, true>(g, i0, j, LeadingLanes(rest - kLanes));
  }
}

constexpr Tiles kAvx2Tiles = {
    nullptr,
    {nullptr, Avx2RowTile<1>, Avx2RowTile<2>, Avx2RowTile<3>,
     Avx2RowTile<4>}};

constexpr size_t kLanes512 = 16;

/// AVX-512 backend: one tile of kRows x kVecs 16-float vectors, one
/// _mm512_fmadd_ps per term. With kMaskLast the last vector covers only
/// the lanes set in `mask`; masked loads and stores never touch memory
/// past the row end.
template <size_t kRows, size_t kVecs, bool kMaskLast>
__attribute__((target("avx512f"))) void Avx512Tile(const GemmArgs& g,
                                                   size_t i0, size_t j0,
                                                   __mmask16 mask) {
  __m512 acc[kRows][kVecs];
#pragma GCC unroll 8
  for (size_t r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < kVecs; ++v) acc[r][v] = _mm512_setzero_ps();
  }
  const float* a = g.a + i0 * g.a_row_stride;
  const float* b = g.b + j0;
  for (size_t p = 0; p < g.k; ++p) {
    __m512 bv[kVecs];
#pragma GCC unroll 2
    for (size_t v = 0; v < kVecs; ++v) {
      bv[v] = kMaskLast && v + 1 == kVecs
                  ? _mm512_maskz_loadu_ps(mask, b + v * kLanes512)
                  : _mm512_loadu_ps(b + v * kLanes512);
    }
#pragma GCC unroll 8
    for (size_t r = 0; r < kRows; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * g.a_row_stride]);
#pragma GCC unroll 2
      for (size_t v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
    a += g.a_k_stride;
    b += g.ldb;
  }
#pragma GCC unroll 8
  for (size_t r = 0; r < kRows; ++r) {
    float* c = g.c + (i0 + r) * g.ldc + j0;
#pragma GCC unroll 2
    for (size_t v = 0; v < kVecs; ++v) {
      float* cv = c + v * kLanes512;
      __m512 out = acc[r][v];
      if (kMaskLast && v + 1 == kVecs) {
        if (g.accumulate) {
          out = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, cv), out);
        }
        _mm512_mask_storeu_ps(cv, mask, out);
      } else {
        if (g.accumulate) out = _mm512_add_ps(_mm512_loadu_ps(cv), out);
        _mm512_storeu_ps(cv, out);
      }
    }
  }
}

/// Mask selecting the first `lanes` (1..16) floats of a vector.
__mmask16 LeadingLanes512(size_t lanes) {
  return static_cast<__mmask16>((1u << lanes) - 1);
}

template <size_t kRows>
__attribute__((target("avx512f"))) void Avx512RowTile(const GemmArgs& g,
                                                      size_t i0, size_t n) {
  const __mmask16 all = LeadingLanes512(kLanes512);
  size_t j = 0;
  for (; j + 2 * kLanes512 <= n; j += 2 * kLanes512) {
    Avx512Tile<kRows, 2, false>(g, i0, j, all);
  }
  const size_t rest = n - j;
  if (rest == 0) return;
  if (rest < kLanes512) {
    Avx512Tile<kRows, 1, true>(g, i0, j, LeadingLanes512(rest));
  } else if (rest == kLanes512) {
    Avx512Tile<kRows, 1, false>(g, i0, j, all);
  } else {
    Avx512Tile<kRows, 2, true>(g, i0, j, LeadingLanes512(rest - kLanes512));
  }
}

constexpr Tiles kAvx512Tiles = {
    Avx512RowTile<kTileRows>,
    {nullptr, Avx512RowTile<1>, Avx512RowTile<2>, Avx512RowTile<3>,
     Avx512RowTile<4>}};
#endif

}  // namespace

void Gemm(size_t m, size_t n, size_t k, const float* a, size_t a_row_stride,
          size_t a_k_stride, const float* b, size_t ldb, float* c,
          size_t ldc, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {  // The empty sum is +0; A and B may not even be allocated.
    for (size_t i = 0; i < m; ++i) {
      float* row = c + i * ldc;
      for (size_t j = 0; j < n; ++j) row[j] = accumulate ? row[j] + 0.0f : 0.0f;
    }
    return;
  }
  const GemmArgs g{a, a_row_stride, a_k_stride, b, ldb, c, ldc, k,
                   accumulate};
#ifdef ENLD_KERNEL_X86
  switch (ActiveKernelIsa()) {
    case KernelIsa::kAvx512:
      RunTiles(g, m, n, kAvx512Tiles);
      return;
    case KernelIsa::kAvx2:
      RunTiles(g, m, n, kAvx2Tiles);
      return;
    case KernelIsa::kGeneric:
      break;
  }
  static const bool fma = __builtin_cpu_supports("fma") != 0;
  if (fma) {
    RunTiles(g, m, n, kGenericFmaTiles);
    return;
  }
#endif
  RunTiles(g, m, n, kGenericTiles);
}

}  // namespace enld
