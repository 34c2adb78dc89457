#ifndef ENLD_COMMON_GEMM_H_
#define ENLD_COMMON_GEMM_H_

#include <cstddef>

namespace enld {

/// Output rows per tile, on every backend: the AVX-512 register tile, and
/// two of the 4-row AVX2 and generic ones. A call whose row count is a
/// multiple of this runs full tiles only; otherwise its last tile is
/// short.
inline constexpr size_t kGemmTileRows = 8;

/// Register-blocked fp32 GEMM: the one kernel under MatMul, MatMulAt and
/// MatMulBt (common/matrix.h; docs/ARCHITECTURE.md §6, "GEMM kernel
/// layer"). Dispatches to the active backend (common/kernel_backend.h).
///
/// Computes C = A·B, or C += A·B when `accumulate`, where
///   - A is m x k, element (i, p) at `a[i * a_row_stride + p * a_k_stride]`
///     (so a transposed operand is read in place, without a copy);
///   - B is k x n row-major, row p starting at `b + p * ldb`;
///   - C is m x n row-major, row i starting at `c + i * ldc`.
///
/// Bit contract: each output element is summed from +0 over p in index
/// order, one fused multiply-add per term, `sum = fma(a(i, p), b(p, j),
/// sum)`: the exact product plus the running sum, rounded once to fp32.
/// With `accumulate` the finished sum is added once: `c + sum`. That is
/// the naive triple loop over std::fma, so every backend, tile shape and
/// tail path gives the same bits, and row i depends only on row i of A —
/// splitting the rows over threads or blocks cannot change a result. A
/// sum can be −0: fma(−x, y, +0) rounds a tiny negative product to −0.
void Gemm(size_t m, size_t n, size_t k, const float* a, size_t a_row_stride,
          size_t a_k_stride, const float* b, size_t ldb, float* c,
          size_t ldc, bool accumulate);

}  // namespace enld

#endif  // ENLD_COMMON_GEMM_H_
