#include "common/matrix.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/gemm.h"
#include "common/kernel_backend.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry/metrics.h"

namespace enld {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<float>(rng.Gaussian());
    }
  }
  return m;
}

/// Reference O(n^3) multiply: the bit contract of the production kernels
/// (common/gemm.h) — each element summed from +0 over k in index order,
/// one fused multiply-add (a single rounding) per term.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float sum = 0.0f;
      for (size_t k = 0; k < a.cols(); ++k) {
        sum = std::fma(a(i, k), b(k, j), sum);
      }
      out(i, j) = sum;
    }
  }
  return out;
}

/// The same loop with a separate multiply and add per term, rounded twice:
/// the contract before FMA, which the probe operands must tell apart.
Matrix UnfusedMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float sum = 0.0f;
      for (size_t k = 0; k < a.cols(); ++k) {
        // Exact in double, so the cast is the one fp32 rounding of the
        // product, and no compiler can contract it into the add.
        sum += static_cast<float>(double{a(i, k)} * b(k, j));
      }
      out(i, j) = sum;
    }
  }
  return out;
}

/// Bitwise equality, so +0/-0 and NaN payloads count as differences.
::testing::AssertionResult BitEqual(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " vs "
           << want.rows() << "x" << want.cols();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    uint32_t g, w;
    std::memcpy(&g, &got.data()[i], sizeof(g));
    std::memcpy(&w, &want.data()[i], sizeof(w));
    if (g != w) {
      return ::testing::AssertionFailure()
             << "at (" << i / got.cols() << "," << i % got.cols()
             << "): " << got.data()[i] << " vs " << want.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// The three product entry points, each fed a * b in the operand layout
/// it takes: MatMulAt gets a^T, MatMulBt gets b^T.
enum class Product { kMatMul, kMatMulAt, kMatMulBt };
constexpr Product kProducts[] = {Product::kMatMul, Product::kMatMulAt,
                                 Product::kMatMulBt};

const char* ProductName(Product product) {
  switch (product) {
    case Product::kMatMul:
      return "MatMul";
    case Product::kMatMulAt:
      return "MatMulAt";
    case Product::kMatMulBt:
      return "MatMulBt";
  }
  return "?";
}

/// Computes a * b through `product`.
Matrix Multiply(Product product, const Matrix& a, const Matrix& b) {
  Matrix out;
  switch (product) {
    case Product::kMatMul:
      MatMul(a, b, &out);
      break;
    case Product::kMatMulAt:
      MatMulAt(a.Transposed(), b, &out);
      break;
    case Product::kMatMulBt:
      MatMulBt(a, b.Transposed(), &out);
      break;
  }
  return out;
}

/// Restores the kernel backend and the pool size a test changed.
class KernelStateGuard {
 public:
  KernelStateGuard() : backend_(KernelBackend()) {}
  ~KernelStateGuard() {
    SetKernelBackend(backend_.c_str());
    SetParallelThreads(0);
  }

 private:
  std::string backend_;
};

/// Every kernel backend; SetKernelBackend refuses those this CPU lacks.
constexpr const char* kBackends[] = {"generic", "avx2", "avx512"};

/// Runs `body` once per available kernel backend (avx2 and avx512 are
/// skipped on CPUs without them) at 1 and at 4 threads.
template <typename Body>
void ForEachBackendAndThreads(Body body) {
  KernelStateGuard guard;
  for (const char* backend : kBackends) {
    if (!SetKernelBackend(backend)) continue;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SetParallelThreads(threads);
      body(std::string(backend) + " threads=" + std::to_string(threads));
    }
  }
}

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(3, 4, 2.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FALSE(m.empty());
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) EXPECT_EQ(m.At(r, c), 2.5f);
  }
  m.Fill(-1.0f);
  EXPECT_EQ(m(2, 3), -1.0f);
}

TEST(MatrixTest, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(MatrixTest, RowAccess) {
  Matrix m(2, 3);
  m(1, 0) = 1.0f;
  m(1, 2) = 3.0f;
  const float* row = m.Row(1);
  EXPECT_EQ(row[0], 1.0f);
  EXPECT_EQ(row[2], 3.0f);
  const auto vec = m.RowVector(1);
  EXPECT_EQ(vec, (std::vector<float>{1.0f, 0.0f, 3.0f}));
}

TEST(MatrixTest, SelectRows) {
  Matrix m(4, 2);
  for (size_t r = 0; r < 4; ++r) m(r, 0) = static_cast<float>(r);
  const Matrix sel = m.SelectRows({3, 1, 1});
  ASSERT_EQ(sel.rows(), 3u);
  EXPECT_EQ(sel(0, 0), 3.0f);
  EXPECT_EQ(sel(1, 0), 1.0f);
  EXPECT_EQ(sel(2, 0), 1.0f);
}

TEST(MatrixTest, Reset) {
  Matrix m(2, 2, 9.0f);
  m.Reset(3, 5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 5u);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(MatrixTest, AddAndAddScaledAndScale) {
  Matrix a(2, 2, 1.0f);
  Matrix b(2, 2, 2.0f);
  a.Add(b);
  EXPECT_EQ(a(0, 0), 3.0f);
  a.AddScaled(b, 0.5f);
  EXPECT_EQ(a(1, 1), 4.0f);
  a.Scale(2.0f);
  EXPECT_EQ(a(0, 1), 8.0f);
}

TEST(MatrixTest, Transposed) {
  Matrix m(2, 3);
  m(0, 1) = 5.0f;
  m(1, 2) = 7.0f;
  const Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(1, 0), 5.0f);
  EXPECT_EQ(t(2, 1), 7.0f);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m(1, 2);
  m(0, 0) = 3.0f;
  m(0, 1) = 4.0f;
  EXPECT_FLOAT_EQ(m.FrobeniusNorm(), 5.0f);
}

TEST(MatrixTest, RowDistanceSquared) {
  Matrix m(2, 2);
  m(0, 0) = 1.0f;
  m(0, 1) = 2.0f;
  const float query[2] = {4.0f, 6.0f};
  EXPECT_FLOAT_EQ(m.RowDistanceSquared(0, query), 9.0f + 16.0f);
}

TEST(MatMulTest, MatchesNaiveReference) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const size_t m = 1 + rng.UniformInt(8);
    const size_t k = 1 + rng.UniformInt(8);
    const size_t n = 1 + rng.UniformInt(8);
    const Matrix a = RandomMatrix(m, k, rng);
    const Matrix b = RandomMatrix(k, n, rng);
    Matrix out;
    MatMul(a, b, &out);
    EXPECT_TRUE(BitEqual(out, NaiveMatMul(a, b)));
  }
}

TEST(MatMulTest, BtMatchesExplicitTranspose) {
  Rng rng(2);
  const Matrix a = RandomMatrix(4, 6, rng);
  const Matrix b = RandomMatrix(5, 6, rng);
  Matrix out;
  MatMulBt(a, b, &out);
  EXPECT_TRUE(BitEqual(out, NaiveMatMul(a, b.Transposed())));
}

TEST(MatMulTest, AtMatchesExplicitTranspose) {
  Rng rng(3);
  const Matrix a = RandomMatrix(6, 4, rng);
  const Matrix b = RandomMatrix(6, 5, rng);
  Matrix out;
  MatMulAt(a, b, &out);
  EXPECT_TRUE(BitEqual(out, NaiveMatMul(a.Transposed(), b)));
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(4);
  const Matrix a = RandomMatrix(3, 3, rng);
  Matrix eye(3, 3);
  for (size_t i = 0; i < 3; ++i) eye(i, i) = 1.0f;
  Matrix out;
  MatMul(a, eye, &out);
  EXPECT_TRUE(BitEqual(out, a));
}

/// Every backend of every product equals the naive loop bit for bit, at 1
/// and 4 threads, over shapes that leave a tail in every dimension: rows
/// around the 4-row register tile and the 8-row block, columns around the
/// 8-, 16- and 32-lane vectors.
TEST(MatMulTest, AllBackendsMatchNaiveBitwise) {
  Rng rng(8);
  std::vector<std::pair<Matrix, Matrix>> operands;
  std::vector<Matrix> want;
  for (size_t m : {1u, 3u, 4u, 5u, 8u, 9u, 13u, 63u, 64u, 65u}) {
    for (size_t n : {1u, 7u, 8u, 9u, 16u, 17u, 24u, 33u, 100u, 128u}) {
      for (size_t k : {1u, 32u, 64u, 128u}) {
        operands.emplace_back(RandomMatrix(m, k, rng), RandomMatrix(k, n, rng));
        want.push_back(NaiveMatMul(operands.back().first,
                                   operands.back().second));
      }
    }
  }
  ForEachBackendAndThreads([&](const std::string& where) {
    for (size_t s = 0; s < operands.size(); ++s) {
      const auto& [a, b] = operands[s];
      for (Product product : kProducts) {
        EXPECT_TRUE(BitEqual(Multiply(product, a, b), want[s]))
            << ProductName(product) << " " << where << " m=" << a.rows()
            << " k=" << a.cols() << " n=" << b.cols();
      }
    }
  });
}

/// Operands on which the fused contract and mul+add differ in every
/// element of a * b. The last two terms are -1 * 1 and (1 + s u)(1 + t u),
/// with u = 2^-12, s = 2i + 1 and t = 2j + 1; every earlier term is an
/// exact 0 * 0, so k is long enough for the 4-thread runs to split. The
/// exact product 1 + (s + t) u + s t 2^-24 lies halfway between two
/// floats, so mul+add is off from the exact -1 + product by 2^-24, while
/// the fused sum rounds that (exactly representable) value once and keeps
/// it.
std::pair<Matrix, Matrix> FmaProbe(size_t m, size_t k, size_t n) {
  const float u = std::ldexp(1.0f, -12);
  Matrix a(m, k), b(k, n);
  for (size_t i = 0; i < m; ++i) {
    a(i, k - 2) = -1.0f;
    a(i, k - 1) = 1.0f + static_cast<float>(2 * i + 1) * u;
  }
  for (size_t j = 0; j < n; ++j) {
    b(k - 2, j) = 1.0f;
    b(k - 1, j) = 1.0f + static_cast<float>(2 * j + 1) * u;
  }
  return {a, b};
}

/// True when no element of `x` has the bits of the same element of `y`.
bool AllBitsDiffer(const Matrix& x, const Matrix& y) {
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::memcmp(&x.data()[i], &y.data()[i], sizeof(float)) == 0) {
      return false;
    }
  }
  return true;
}

/// No path is left on a separate multiply and add: on FmaProbe operands,
/// every product equals the fused reference, with `accumulate` too, on
/// every backend at 1 and 4 threads, over full and short row tiles and
/// full and masked column vectors. The probe checks itself first: the
/// mul+add result must differ from the reference in every element.
TEST(MatMulTest, EveryPathFusesEachTerm) {
  constexpr size_t k = 64;
  for (size_t m : {size_t{1}, size_t{3}, kGemmTileRows, kGemmTileRows + 5,
                   2 * kGemmTileRows + 3}) {
    for (size_t n : {1u, 7u, 8u, 13u, 16u, 21u, 32u, 39u, 48u, 53u}) {
      const auto [a, b] = FmaProbe(m, k, n);
      const Matrix want = NaiveMatMul(a, b);
      ASSERT_TRUE(AllBitsDiffer(want, UnfusedMatMul(a, b)))
          << "m=" << m << " n=" << n;
      // Added to sums under 0.2, these keep every total below 1, where
      // the 2^-24 difference stays exact.
      Matrix base(m, n);
      for (size_t i = 0; i < base.size(); ++i) {
        base.data()[i] = std::ldexp(static_cast<float>(i % 32), -6);
      }
      Matrix want_accumulated = base;
      want_accumulated.Add(want);
      Matrix unfused_accumulated = base;
      unfused_accumulated.Add(UnfusedMatMul(a, b));
      ASSERT_TRUE(AllBitsDiffer(want_accumulated, unfused_accumulated));
      ForEachBackendAndThreads([&](const std::string& where) {
        const std::string shape =
            " " + where + " m=" + std::to_string(m) + " n=" +
            std::to_string(n);
        for (Product product : kProducts) {
          EXPECT_TRUE(BitEqual(Multiply(product, a, b), want))
              << ProductName(product) << shape;
        }
        Matrix got = base;
        MatMulAt(a.Transposed(), b, &got, /*accumulate=*/true);
        EXPECT_TRUE(BitEqual(got, want_accumulated))
            << "MatMulAt accumulate" << shape;
      });
    }
  }
}

/// Large products split into chunks of whole register tiles: the
/// 64 x 128 x 64 forward product of the fine-tune MLP runs as at most
/// 64 / kGemmTileRows chunks at any thread count, and still equals the
/// naive loop bit for bit.
TEST(MatMulTest, ParallelChunksAreWholeTiles) {
  Rng rng(11);
  const Matrix a = RandomMatrix(64, 128, rng);
  const Matrix b = RandomMatrix(128, 64, rng);
  const Matrix want = NaiveMatMul(a, b);
  telemetry::Counter* chunks =
      telemetry::MetricsRegistry::Global().GetCounter("parallel/chunks");
  ForEachBackendAndThreads([&](const std::string& where) {
    const uint64_t before = chunks->Value();
    Matrix out;
    MatMul(a, b, &out);
    EXPECT_LE(chunks->Value() - before, 64 / kGemmTileRows) << where;
    EXPECT_TRUE(BitEqual(out, want)) << where;
  });
}

/// With k = 0 every element is the empty sum, +0.
TEST(MatMulTest, EmptyInnerDimensionGivesZeros) {
  const Matrix a(3, 0);
  const Matrix b(0, 5);
  ForEachBackendAndThreads([&](const std::string& where) {
    for (Product product : kProducts) {
      EXPECT_TRUE(BitEqual(Multiply(product, a, b), Matrix(3, 5)))
          << ProductName(product) << " " << where;
    }
  });
}

/// `out += a^T * b` has the bits of a temporary product added with Add.
TEST(MatMulTest, AccumulateEqualsTemporaryPlusAdd) {
  Rng rng(9);
  const Matrix a = RandomMatrix(64, 65, rng);
  const Matrix b = RandomMatrix(64, 100, rng);
  const Matrix base = RandomMatrix(65, 100, rng);
  ForEachBackendAndThreads([&](const std::string& where) {
    Matrix product;
    MatMulAt(a, b, &product);
    Matrix want = base;
    want.Add(product);
    Matrix got = base;
    MatMulAt(a, b, &got, /*accumulate=*/true);
    EXPECT_TRUE(BitEqual(got, want)) << where;
  });
}

/// Row i of a product depends only on row i of a: it equals the 1-row
/// product of that row, whichever tile or thread computed it. The
/// candidate view's row selection (enld/model_view.h) relies on this.
TEST(MatMulTest, RowEqualsOneRowProduct) {
  Rng rng(10);
  const Matrix a = RandomMatrix(65, 64, rng);
  const Matrix b = RandomMatrix(64, 100, rng);
  ForEachBackendAndThreads([&](const std::string& where) {
    for (Product product : kProducts) {
      const Matrix full = Multiply(product, a, b);
      for (size_t i = 0; i < a.rows(); ++i) {
        const Matrix row = Multiply(product, a.SelectRows({i}), b);
        ASSERT_TRUE(BitEqual(row, full.SelectRows({i})))
            << ProductName(product) << " " << where << " row " << i;
      }
    }
  });
}

// Regression for the zero-skip fast path: `if (av == 0.0f) continue;`
// dropped 0 * inf and 0 * nan contributions, so a poisoned operand could
// silently vanish from the product.
TEST(MatMulTest, ZeroTimesNonFinitePropagates) {
  Matrix a(2, 2, 1.0f);
  a(0, 1) = 0.0f;
  Matrix b(2, 2, 1.0f);
  b(1, 0) = std::numeric_limits<float>::infinity();
  b(1, 1) = std::numeric_limits<float>::quiet_NaN();
  ForEachBackendAndThreads([&](const std::string& where) {
    for (Product product : kProducts) {
      const Matrix out = Multiply(product, a, b);
      SCOPED_TRACE(std::string(ProductName(product)) + " " + where);
      EXPECT_TRUE(std::isnan(out(0, 0)));  // 1*1 + 0*inf.
      EXPECT_TRUE(std::isnan(out(0, 1)));  // 1*1 + 0*nan.
      EXPECT_TRUE(std::isinf(out(1, 0)));  // 1*1 + 1*inf.
      EXPECT_TRUE(std::isnan(out(1, 1)));  // 1*1 + 1*nan.
    }
  });
}

TEST(MatMulTest, NonFinitePropagatesIdenticallyInParallelPath) {
  // 64*32*32 = 65536 crosses the parallel-dispatch threshold, so the
  // 4-thread run takes the ParallelFor path; 1 thread is the sequential
  // path. Outputs must match bitwise, including every nan/inf cell seeded
  // through a zero multiplier.
  Rng rng(7);
  Matrix a = RandomMatrix(64, 32, rng);
  Matrix b = RandomMatrix(32, 32, rng);
  a(3, 5) = 0.0f;
  a(60, 9) = 0.0f;
  b(5, 0) = std::numeric_limits<float>::infinity();
  b(9, 2) = std::numeric_limits<float>::quiet_NaN();
  KernelStateGuard guard;
  for (const char* backend : kBackends) {
    if (!SetKernelBackend(backend)) continue;
    for (Product product : kProducts) {
      SCOPED_TRACE(std::string(ProductName(product)) + " " + backend);
      SetParallelThreads(1);
      const Matrix seq = Multiply(product, a, b);
      SetParallelThreads(4);
      const Matrix par = Multiply(product, a, b);
      EXPECT_TRUE(std::isnan(seq(3, 0)));   // includes the 0 * inf term.
      EXPECT_TRUE(std::isnan(seq(60, 2)));  // includes the 0 * nan term.
      EXPECT_TRUE(BitEqual(par, seq));
    }
  }
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(5);
  const Matrix logits = RandomMatrix(10, 7, rng);
  Matrix probs;
  SoftmaxRows(logits, &probs);
  for (size_t r = 0; r < probs.rows(); ++r) {
    float sum = 0.0f;
    for (size_t c = 0; c < probs.cols(); ++c) {
      EXPECT_GT(probs(r, c), 0.0f);
      sum += probs(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxTest, StableWithLargeLogits) {
  Matrix logits(1, 3);
  logits(0, 0) = 1000.0f;
  logits(0, 1) = 999.0f;
  logits(0, 2) = -1000.0f;
  Matrix probs;
  SoftmaxRows(logits, &probs);
  EXPECT_FALSE(std::isnan(probs(0, 0)));
  EXPECT_GT(probs(0, 0), probs(0, 1));
  EXPECT_NEAR(probs(0, 2), 0.0f, 1e-6f);
}

TEST(SoftmaxTest, PreservesArgMax) {
  Rng rng(6);
  const Matrix logits = RandomMatrix(20, 5, rng);
  Matrix probs;
  SoftmaxRows(logits, &probs);
  EXPECT_EQ(ArgMaxRows(logits), ArgMaxRows(probs));
}

TEST(ArgMaxTest, PicksFirstMaximum) {
  Matrix m(1, 4);
  m(0, 1) = 5.0f;
  m(0, 3) = 5.0f;
  EXPECT_EQ(ArgMaxRows(m), std::vector<int>{1});
}

}  // namespace
}  // namespace enld
