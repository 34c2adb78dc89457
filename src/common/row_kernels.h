#ifndef ENLD_COMMON_ROW_KERNELS_H_
#define ENLD_COMMON_ROW_KERNELS_H_

#include <cstddef>

namespace enld {

/// Row kernels: every step of the MLP besides the matrix products (the
/// GEMM kernel, common/gemm.h). Softmax, the cross-entropy gradient, row
/// argmax, bias (+ReLU), the ReLU gradient mask, the bias-gradient column
/// sums, the SGD update and the transpose under MatMulBt. Each dispatches
/// to the active backend (common/kernel_backend.h) and returns the bits of
/// its scalar loop, which is its generic backend (docs/ARCHITECTURE.md §6,
/// "Row kernel layer"):
///   - the elementwise loops are that one source compiled per backend, so
///     each lane runs the scalar operation sequence (this translation unit
///     is built with -ffp-contract=off);
///   - softmax and argmax use AVX-512 intrinsics under the avx512 backend:
///     a clone of glibc's FMA expf (see ExpCloneActive) and a vector row
///     max whose value does not depend on the order for rows without NaN;
///   - the transpose is a copy, exact on any backend.
/// All matrices are row-major and dense; outputs never alias inputs unless
/// a kernel says so.

/// out = softmax of each of the `rows` rows of `cols` (> 0) floats of
/// `in`. The scalar loop: the max by a left fold of std::max, then
/// exp(x - max) with std::exp summed from +0 in column order, then each
/// exp times 1/sum.
void SoftmaxRowsKernel(const float* in, float* out, size_t rows,
                       size_t cols);

/// out[r] = the first index of the maximum of row r (cols > 0), the rule
/// of the loop `if (row[c] > row[best]) best = c`: a row whose first
/// element is NaN gives 0, later NaNs are skipped.
void ArgMaxRowsKernel(const float* m, size_t rows, size_t cols, int* out);

/// Softmax cross-entropy against `targets` given the softmax `probs`, in
/// one pass: returns the summed loss, -t * log(max(p, 1e-12)) in double
/// over the entries with t > 0 in row-then-column order, and overwrites
/// `probs` with the gradient (p - t) * scale.
double CrossEntropyGradKernel(float* probs, const float* targets,
                              size_t rows, size_t cols, float scale);

/// m[r][c] += bias[c], or with `relu` m[r][c] = z > 0 ? z : 0 for
/// z = m[r][c] + bias[c] (a NaN or -0 z gives +0).
void AddBiasKernel(float* m, size_t rows, size_t cols, const float* bias,
                   bool relu);

/// masked[i] = output[i] > 0 ? grad[i] : 0: the gradient through a ReLU
/// whose forward wrote `output`.
void ReluMaskKernel(const float* output, const float* grad, float* masked,
                    size_t n);

/// sums[c] += (the sum of column c from +0 in row order), one add per
/// column: the bits of building the column sums and then adding them.
void AddColumnSumsKernel(const float* m, size_t rows, size_t cols,
                         float* sums);

/// SGD with momentum over n parameters, for each j:
///   v = momentum * v - lr * (g + weight_decay * w);  w += v.
void SgdKernel(float* w, float* v, const float* g, size_t n, float lr,
               float momentum, float weight_decay);

/// out (cols x rows) = the transpose of m (rows x cols).
void TransposeKernel(const float* m, size_t rows, size_t cols, float* out);

/// y[i] = std::exp(x[i]) for n floats, with std::exp's bits. Under the
/// avx512 backend with ExpCloneActive() the lanes in [-87, 88] run the
/// clone; every other backend, and every other lane (NaN included), calls
/// std::exp.
void ExpKernel(const float* x, float* y, size_t n);

/// Whether the avx512 backend's softmax and ExpKernel run the AVX-512
/// clone of glibc's FMA expf. True when the CPU has AVX512F and FMA and a
/// self-check on first use, over probe inputs that include one where the
/// FMA and the non-FMA builds of glibc disagree, matched this process's
/// std::exp bit for bit. Otherwise every backend keeps std::exp: a
/// different libm costs speed, never bits.
bool ExpCloneActive();

}  // namespace enld

#endif  // ENLD_COMMON_ROW_KERNELS_H_
