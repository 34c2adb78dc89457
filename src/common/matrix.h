#ifndef ENLD_COMMON_MATRIX_H_
#define ENLD_COMMON_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace enld {

/// Dense row-major float matrix. The single numeric container used across
/// the library: datasets store one sample per row, network layers store
/// weights, activations are (batch x units) matrices.
///
/// Deliberately minimal — the operations the NN and KNN substrates need and
/// nothing more. All shape violations are programming errors and abort via
/// ENLD_CHECK.
class Matrix {
 public:
  /// An empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// A rows x cols matrix initialized to `fill`.
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(size_t r, size_t c) {
    ENLD_CHECK_LT(r, rows_);
    ENLD_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    ENLD_CHECK_LT(r, rows_);
    ENLD_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  /// Unchecked element access for inner loops.
  float& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Pointer to the start of row `r`.
  float* Row(size_t r) {
    ENLD_CHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }
  const float* Row(size_t r) const {
    ENLD_CHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Copies row `r` into a new vector.
  std::vector<float> RowVector(size_t r) const;

  /// Returns a new matrix containing the selected rows, in order.
  Matrix SelectRows(const std::vector<size_t>& indices) const;

  /// Sets every element to `value`.
  void Fill(float value);

  /// Resizes to rows x cols, zero-filled (previous contents discarded).
  void Reset(size_t rows, size_t cols);

  /// this += other (same shape).
  void Add(const Matrix& other);

  /// this += scale * other (same shape).
  void AddScaled(const Matrix& other, float scale);

  /// this *= scale.
  void Scale(float scale);

  /// Transpose into a new matrix.
  Matrix Transposed() const;

  /// Frobenius norm.
  float FrobeniusNorm() const;

  /// Squared Euclidean distance between row `r` and the `cols()`-length
  /// vector `v`.
  float RowDistanceSquared(size_t r, const float* v) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

/// The three matrix products all run on the GEMM kernel (common/gemm.h)
/// and share its bit contract: every output element equals the naive
/// triple loop's fp32 sum, bit for bit, on every kernel backend and at
/// every thread count.

/// out = a * b. Shapes: (m x k) * (k x n) -> (m x n). `out` is resized.
void MatMul(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b^T. Shapes: (m x k) * (n x k)^T -> (m x n). `out` is resized.
void MatMulBt(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b. Shapes: (k x m)^T * (k x n) -> (m x n). `out` is resized;
/// with `accumulate` it must already be (m x n) and the product is added
/// to it, with the same bits as a temporary product followed by Add.
void MatMulAt(const Matrix& a, const Matrix& b, Matrix* out,
              bool accumulate = false);

/// Row-wise softmax, written to `out` (resized to match `logits`).
/// Numerically stable (max subtraction). Runs on the row kernel
/// (common/row_kernels.h): the scalar loop's bits on every backend and at
/// every thread count.
void SoftmaxRows(const Matrix& logits, Matrix* out);

/// Index of the maximum element of each row (the first on ties), rows
/// split across the pool. Runs on the row kernel (common/row_kernels.h).
std::vector<int> ArgMaxRows(const Matrix& m);

}  // namespace enld

#endif  // ENLD_COMMON_MATRIX_H_
