#include "common/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/gemm.h"
#include "common/parallel.h"
#include "common/row_kernels.h"

namespace enld {

namespace {

/// Kernels below this many scalar ops run sequentially: the loop is cheaper
/// than waking the pool. Thresholds only pick the execution path — every
/// parallel kernel here computes each output element with the same
/// floating-point operation order as the sequential loop, so results are
/// bit-identical at any thread count.
constexpr size_t kMinParallelWork = size_t{1} << 15;

/// Target scalar ops per chunk when splitting a row range.
constexpr size_t kChunkWork = size_t{1} << 14;

size_t RowGrain(size_t row_cost) {
  if (row_cost == 0) row_cost = 1;
  const size_t grain = kChunkWork / row_cost;
  return grain == 0 ? 1 : grain;
}

/// Runs the GEMM kernel over the m output rows of `out`, split across the
/// pool for large products. Each row's bits depend only on its own row of
/// A (common/gemm.h), so the split never changes a result. Chunks are
/// whole register tiles, so only the last chunk can end in a short tile.
void RowSplitGemm(size_t m, size_t n, size_t k, const float* a,
                  size_t a_row_stride, size_t a_k_stride, const float* b,
                  Matrix* out, bool accumulate) {
  auto rows = [&](size_t lo, size_t hi) {
    Gemm(hi - lo, n, k, a + lo * a_row_stride, a_row_stride, a_k_stride, b,
         n, out->data() + lo * n, n, accumulate);
  };
  if (m * k * n < kMinParallelWork) {
    rows(0, m);
  } else {
    const size_t tiles =
        (RowGrain(k * n) + kGemmTileRows - 1) / kGemmTileRows;
    ParallelFor(0, m, tiles * kGemmTileRows, rows);
  }
}

}  // namespace

std::vector<float> Matrix::RowVector(size_t r) const {
  ENLD_CHECK_LT(r, rows_);
  const float* p = Row(r);
  return std::vector<float>(p, p + cols_);
}

Matrix Matrix::SelectRows(const std::vector<size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    const float* src = Row(indices[i]);
    std::copy(src, src + cols_, out.Row(i));
  }
  return out;
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::Reset(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

void Matrix::Add(const Matrix& other) {
  ENLD_CHECK_EQ(rows_, other.rows_);
  ENLD_CHECK_EQ(cols_, other.cols_);
  if (data_.size() < kMinParallelWork) {
    for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    return;
  }
  ParallelFor(0, data_.size(), kChunkWork, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) data_[i] += other.data_[i];
  });
}

void Matrix::AddScaled(const Matrix& other, float scale) {
  ENLD_CHECK_EQ(rows_, other.rows_);
  ENLD_CHECK_EQ(cols_, other.cols_);
  if (data_.size() < kMinParallelWork) {
    for (size_t i = 0; i < data_.size(); ++i) {
      data_[i] += scale * other.data_[i];
    }
    return;
  }
  ParallelFor(0, data_.size(), kChunkWork, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) data_[i] += scale * other.data_[i];
  });
}

void Matrix::Scale(float scale) {
  for (float& v : data_) v *= scale;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const float* src = Row(r);
    for (size_t c = 0; c < cols_; ++c) out(c, r) = src[c];
  }
  return out;
}

float Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (float v : data_) sum += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(sum));
}

float Matrix::RowDistanceSquared(size_t r, const float* v) const {
  const float* p = Row(r);
  float sum = 0.0f;
  for (size_t c = 0; c < cols_; ++c) {
    const float d = p[c] - v[c];
    sum += d * d;
  }
  return sum;
}

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  ENLD_CHECK_EQ(a.cols(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  out->Reset(m, n);
  RowSplitGemm(m, n, k, a.data(), k, 1, b.data(), out, /*accumulate=*/false);
}

void MatMulBt(const Matrix& a, const Matrix& b, Matrix* out) {
  ENLD_CHECK_EQ(a.cols(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  out->Reset(m, n);
  // The kernel reads B row-major, so b^T is packed into this thread's
  // scratch panel; the pool's workers only read it.
  thread_local std::vector<float> panel;
  panel.resize(k * n);
  TransposeKernel(b.data(), n, k, panel.data());
  RowSplitGemm(m, n, k, a.data(), k, 1, panel.data(), out,
               /*accumulate=*/false);
}

void MatMulAt(const Matrix& a, const Matrix& b, Matrix* out,
              bool accumulate) {
  ENLD_CHECK_EQ(a.rows(), b.rows());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (accumulate) {
    ENLD_CHECK_EQ(out->rows(), m);
    ENLD_CHECK_EQ(out->cols(), n);
  } else {
    out->Reset(m, n);
  }
  // Row i of a^T is column i of a: element (i, p) sits at a[p * m + i].
  RowSplitGemm(m, n, k, a.data(), 1, m, b.data(), out, accumulate);
}

void SoftmaxRows(const Matrix& logits, Matrix* out) {
  out->Reset(logits.rows(), logits.cols());
  if (logits.empty()) return;
  const size_t cols = logits.cols();
  auto rows = [&](size_t lo, size_t hi) {
    SoftmaxRowsKernel(logits.data() + lo * cols, out->data() + lo * cols,
                      hi - lo, cols);
  };
  if (logits.size() < kMinParallelWork) {
    rows(0, logits.rows());
  } else {
    ParallelFor(0, logits.rows(), RowGrain(cols * 4), rows);
  }
}

std::vector<int> ArgMaxRows(const Matrix& m) {
  std::vector<int> out(m.rows());
  if (m.rows() == 0) return out;
  ENLD_CHECK_GT(m.cols(), 0u);
  ParallelFor(0, m.rows(), 512, [&](size_t lo, size_t hi) {
    ArgMaxRowsKernel(m.data() + lo * m.cols(), hi - lo, m.cols(),
                     out.data() + lo);
  });
  return out;
}

}  // namespace enld
