#include "common/row_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/kernel_backend.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace enld {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

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

/// Runs `body` once per kernel backend this CPU has.
template <typename Body>
void ForEachBackend(Body body) {
  KernelStateGuard guard;
  for (const char* backend : {"generic", "avx2", "avx512"}) {
    if (!SetKernelBackend(backend)) continue;
    SCOPED_TRACE(backend);
    body();
  }
}

/// Bitwise equality of two float arrays, so +0/-0 and NaN payloads count.
::testing::AssertionResult BitEqual(const std::vector<float>& got,
                                    const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    uint32_t g, w;
    std::memcpy(&g, &got[i], sizeof(g));
    std::memcpy(&w, &want[i], sizeof(w));
    if (g != w) {
      return ::testing::AssertionFailure()
             << "at " << i << ": " << got[i] << " (0x" << std::hex << g
             << ") vs " << want[i] << " (0x" << w << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<float> Gaussians(size_t n, float scale, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (float& v : out) v = scale * static_cast<float>(rng.Gaussian());
  return out;
}

/// Column counts around the 16-float vector and the 8-row block, and the
/// 100 classes of the fine-tune MLP.
constexpr size_t kColCounts[] = {1, 15, 16, 17, 100};

// ---- Scalar references: the loops the kernels replaced. ----

void ReferenceSoftmax(const std::vector<float>& in, size_t rows, size_t cols,
                      std::vector<float>* out) {
  out->assign(in.size(), 0.0f);
  for (size_t r = 0; r < rows; ++r) {
    const float* x = in.data() + r * cols;
    float* o = out->data() + r * cols;
    float maxv = x[0];
    for (size_t c = 1; c < cols; ++c) maxv = std::max(maxv, x[c]);
    float sum = 0.0f;
    for (size_t c = 0; c < cols; ++c) {
      o[c] = std::exp(x[c] - maxv);
      sum += o[c];
    }
    const float inv = 1.0f / sum;
    for (size_t c = 0; c < cols; ++c) o[c] *= inv;
  }
}

int ReferenceArgMax(const float* row, size_t cols) {
  size_t best = 0;
  for (size_t c = 1; c < cols; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return static_cast<int>(best);
}

/// Logits with the rows the vector paths must treat like the scalar loop:
/// a leading NaN, a NaN later on, +inf, -inf entries, all-equal values, a
/// +0 and a -0 maximum in both orders, values far below the maximum (their
/// exps leave the clone's [-87, 88] domain) and an all -inf row. The rest
/// are Gaussian. 21 rows: two full 8-row blocks and a short one.
std::vector<float> SpecialLogits(size_t rows, size_t cols, uint64_t seed) {
  std::vector<float> m = Gaussians(rows * cols, 4.0f, seed);
  auto row = [&](size_t r) { return m.data() + r * cols; };
  row(0)[0] = kNaN;
  row(1)[cols / 2] = kNaN;
  row(2)[cols - 1] = kInf;
  row(3)[0] = -kInf;
  std::fill(row(4), row(4) + cols, 3.0f);
  for (size_t c = 0; c < cols; ++c) {
    row(5)[c] = c % 2 == 0 ? -0.0f : -1.0f - static_cast<float>(c);
    row(6)[c] = c % 3 == 0 ? 0.0f : -0.0f;
  }
  row(6)[0] = -0.0f;
  for (size_t c = 0; c < cols; ++c) {
    row(7)[c] = -60.0f * static_cast<float>(c % 5);
  }
  std::fill(row(8), row(8) + cols, -kInf);
  return m;
}

TEST(RowKernelTest, SoftmaxMatchesScalarOnEveryBackend) {
  for (size_t cols : kColCounts) {
    SCOPED_TRACE("cols=" + std::to_string(cols));
    const size_t rows = 21;
    const std::vector<float> in = SpecialLogits(rows, cols, cols);
    std::vector<float> want;
    ReferenceSoftmax(in, rows, cols, &want);
    ForEachBackend([&] {
      std::vector<float> got(in.size());
      SoftmaxRowsKernel(in.data(), got.data(), rows, cols);
      EXPECT_TRUE(BitEqual(got, want));
    });
  }
}

/// The 4,000-row candidate view takes SoftmaxRows' parallel path; its
/// chunks call the same kernel, so the bits do not depend on the pool.
TEST(RowKernelTest, SoftmaxRowsParallelPathMatchesScalar) {
  const size_t rows = 4000, cols = 100;
  std::vector<float> in = Gaussians(rows * cols, 6.0f, 3);
  in[17 * cols + 3] = kNaN;
  in[2999 * cols] = kNaN;
  Matrix logits(rows, cols);
  std::copy(in.begin(), in.end(), logits.data());
  std::vector<float> want;
  ReferenceSoftmax(in, rows, cols, &want);
  ForEachBackend([&] {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SetParallelThreads(threads);
      Matrix probs;
      SoftmaxRows(logits, &probs);
      EXPECT_TRUE(BitEqual(std::vector<float>(probs.data(),
                                              probs.data() + probs.size()),
                           want))
          << "threads=" << threads;
    }
  });
}

TEST(RowKernelTest, ArgMaxMatchesScalarOnEveryBackend) {
  for (size_t cols : kColCounts) {
    SCOPED_TRACE("cols=" + std::to_string(cols));
    const size_t rows = 21;
    std::vector<float> m = SpecialLogits(rows, cols, 100 + cols);
    // Ties: the maximum twice, in the first and the second vector.
    for (size_t c = 0; c < cols; ++c) {
      m[9 * cols + c] = c % 7 == 3 ? 5.0f : 1.0f;
      m[10 * cols + c] = c >= cols / 2 ? 2.0f : 0.0f;
    }
    std::vector<int> want(rows);
    for (size_t r = 0; r < rows; ++r) {
      want[r] = ReferenceArgMax(m.data() + r * cols, cols);
    }
    ForEachBackend([&] {
      std::vector<int> got(rows, -1);
      ArgMaxRowsKernel(m.data(), rows, cols, got.data());
      EXPECT_EQ(got, want);
    });
  }
}

TEST(RowKernelTest, CrossEntropyGradMatchesScalarOnEveryBackend) {
  for (size_t cols : {size_t{2}, size_t{17}, size_t{100}}) {
    SCOPED_TRACE("cols=" + std::to_string(cols));
    const size_t rows = 13;
    std::vector<float> probs;
    ReferenceSoftmax(Gaussians(rows * cols, 3.0f, cols), rows, cols, &probs);
    probs[0] = 0.0f;  // Below the 1e-12 clamp.
    // One-hot targets on even rows, mixup two-hot targets on odd rows.
    std::vector<float> targets(rows * cols, 0.0f);
    for (size_t r = 0; r < rows; ++r) {
      float* t = targets.data() + r * cols;
      if (r % 2 == 0 || cols < 2) {
        t[(r * 7) % cols] = 1.0f;
      } else {
        t[r % cols] = 0.7f;
        t[(r + 1) % cols] = 0.3f;
      }
    }
    targets[0] = 1.0f;  // Meets the zero probability.
    const float scale = 1.0f / static_cast<float>(rows);
    std::vector<float> want_grad(probs.size());
    double want_loss = 0.0;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < cols; ++j) {
        const float p = probs[r * cols + j];
        const float t = targets[r * cols + j];
        if (t > 0.0f) {
          want_loss -= static_cast<double>(t) *
                       std::log(std::max(static_cast<double>(p), 1e-12));
        }
        want_grad[r * cols + j] = (p - t) * scale;
      }
    }
    ForEachBackend([&] {
      std::vector<float> grad = probs;
      const double loss = CrossEntropyGradKernel(
          grad.data(), targets.data(), rows, cols, scale);
      EXPECT_EQ(std::memcmp(&loss, &want_loss, sizeof(loss)), 0)
          << loss << " vs " << want_loss;
      EXPECT_TRUE(BitEqual(grad, want_grad));
    });
  }
}

TEST(RowKernelTest, AddBiasMatchesScalarOnEveryBackend) {
  for (size_t cols : kColCounts) {
    SCOPED_TRACE("cols=" + std::to_string(cols));
    const size_t rows = 11;
    std::vector<float> m = Gaussians(rows * cols, 1.0f, cols);
    m[0] = kNaN;
    m[m.size() - 1] = -0.0f;
    if (m.size() > 2) m[1] = -kInf;
    const std::vector<float> bias = Gaussians(cols, 1.0f, 50 + cols);
    for (bool relu : {false, true}) {
      SCOPED_TRACE(relu ? "relu" : "linear");
      std::vector<float> want = m;
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) {
          float& v = want[r * cols + c];
          const float z = v + bias[c];
          v = relu ? (z > 0.0f ? z : 0.0f) : z;
        }
      }
      ForEachBackend([&] {
        std::vector<float> got = m;
        AddBiasKernel(got.data(), rows, cols, bias.data(), relu);
        EXPECT_TRUE(BitEqual(got, want));
      });
    }
  }
}

TEST(RowKernelTest, ReluMaskMatchesScalarOnEveryBackend) {
  const size_t n = 203;
  std::vector<float> output = Gaussians(n, 1.0f, 5);
  for (size_t i = 0; i < n; i += 3) output[i] = 0.0f;  // What ReLU writes.
  std::vector<float> grad = Gaussians(n, 1.0f, 6);
  grad[0] = kNaN;
  grad[1] = kInf;
  std::vector<float> want(n);
  for (size_t i = 0; i < n; ++i) want[i] = output[i] > 0.0f ? grad[i] : 0.0f;
  ForEachBackend([&] {
    std::vector<float> got(n, -1.0f);
    ReluMaskKernel(output.data(), grad.data(), got.data(), n);
    EXPECT_TRUE(BitEqual(got, want));
  });
}

TEST(RowKernelTest, AddColumnSumsMatchesScalarOnEveryBackend) {
  for (size_t cols : {size_t{1}, size_t{17}, size_t{64}, size_t{100},
                      size_t{130}}) {
    SCOPED_TRACE("cols=" + std::to_string(cols));
    const size_t rows = 37;
    std::vector<float> m = Gaussians(rows * cols, 1.0f, cols);
    m[0] = -0.0f;  // A -0 column stays +0 when summed from +0.
    for (size_t r = 0; r < rows; ++r) m[r * cols] = -0.0f;
    const std::vector<float> start = Gaussians(cols, 1.0f, 9);
    std::vector<float> want = start;
    std::vector<float> sums(cols, 0.0f);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) sums[c] += m[r * cols + c];
    }
    for (size_t c = 0; c < cols; ++c) want[c] += sums[c];
    ForEachBackend([&] {
      std::vector<float> got = start;
      AddColumnSumsKernel(m.data(), rows, cols, got.data());
      EXPECT_TRUE(BitEqual(got, want));
    });
  }
}

TEST(RowKernelTest, SgdMatchesScalarOnEveryBackend) {
  const size_t n = 1000 + 7;
  const std::vector<float> w0 = Gaussians(n, 0.1f, 1);
  const std::vector<float> v0 = Gaussians(n, 0.01f, 2);
  const std::vector<float> g = Gaussians(n, 1.0f, 3);
  const float lr = 0.05f, momentum = 0.9f, weight_decay = 1e-4f;
  std::vector<float> want_w = w0, want_v = v0;
  for (size_t j = 0; j < n; ++j) {
    want_v[j] = momentum * want_v[j] - lr * (g[j] + weight_decay * want_w[j]);
    want_w[j] += want_v[j];
  }
  ForEachBackend([&] {
    std::vector<float> w = w0, v = v0;
    SgdKernel(w.data(), v.data(), g.data(), n, lr, momentum, weight_decay);
    EXPECT_TRUE(BitEqual(w, want_w));
    EXPECT_TRUE(BitEqual(v, want_v));
  });
}

TEST(RowKernelTest, TransposeCoversEveryTail) {
  for (size_t rows :
       {size_t{1}, size_t{7}, size_t{8}, size_t{13}, size_t{64}}) {
    for (size_t cols : {size_t{1}, size_t{9}, size_t{16}, size_t{100}}) {
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
      const std::vector<float> m = Gaussians(rows * cols, 1.0f, rows * cols);
      std::vector<float> want(m.size());
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) want[c * rows + r] = m[r * cols + c];
      }
      ForEachBackend([&] {
        std::vector<float> got(m.size(), kNaN);
        TransposeKernel(m.data(), rows, cols, got.data());
        EXPECT_TRUE(BitEqual(got, want));
      });
    }
  }
}

// ---- The expf clone against this process's libm. ----

/// Inputs whose exp std::exp must give, on every backend: the input where
/// glibc's FMA and non-FMA builds differ, the clone's domain ends, just
/// outside them, the special values, and inputs with subnormal results.
TEST(ExpKernelTest, ProbesMatchLibmOnEveryBackend) {
  std::vector<float> probes = {-0x1.f8cbb2p+5f, -87.0f, 88.0f, -87.5f,
                               -104.0f, -kInf, kInf, kNaN, 0.0f, -0.0f,
                               88.5f, -88.0f, -95.0f, -100.0f, -103.9f,
                               std::nextafter(-87.0f, 0.0f),
                               std::nextafter(-87.0f, -kInf),
                               std::nextafter(88.0f, kInf), 1e-30f, -1e-30f};
  std::vector<float> want(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    volatile float x = probes[i];
    want[i] = std::exp(static_cast<float>(x));
  }
  ForEachBackend([&] {
    std::vector<float> got(probes.size());
    ExpKernel(probes.data(), got.data(), probes.size());
    EXPECT_TRUE(BitEqual(got, want));
  });
}

/// Runs ExpKernel over every `stride`-th float of [-87, 0] and [0, 88] (by
/// bit pattern, both ends included) and returns how many differ from
/// std::exp.
uint64_t CountExpMismatches(uint32_t stride) {
  uint64_t mismatches = 0;
  constexpr size_t kBatch = 4096;
  std::vector<float> x, want(kBatch), got(kBatch);
  x.reserve(kBatch);
  auto flush = [&] {
    for (size_t i = 0; i < x.size(); ++i) want[i] = std::exp(x[i]);
    ExpKernel(x.data(), got.data(), x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      if (std::memcmp(&want[i], &got[i], sizeof(float)) != 0) {
        if (mismatches < 5) {
          ADD_FAILURE() << "exp(" << std::hexfloat << x[i] << ") = " << got[i]
                        << ", std::exp gives " << want[i];
        }
        ++mismatches;
      }
    }
    x.clear();
  };
  for (const float end : {-87.0f, 88.0f}) {
    uint32_t last;
    std::memcpy(&last, &end, sizeof(last));
    const uint32_t first = last & 0x80000000u;  // +0 or -0.
    for (uint64_t bits = first;; bits += stride) {
      const uint32_t b = static_cast<uint32_t>(std::min<uint64_t>(bits, last));
      float v;
      std::memcpy(&v, &b, sizeof(v));
      x.push_back(v);
      if (x.size() == kBatch) flush();
      if (b == last) break;
    }
  }
  flush();
  return mismatches;
}

/// Skips the calling test unless ExpKernel runs the AVX-512 clone.
#define SKIP_UNLESS_EXP_CLONE()                                             \
  KernelStateGuard guard;                                                   \
  if (!SetKernelBackend("avx512")) {                                        \
    GTEST_SKIP() << "the avx512 backend is unavailable on this CPU";        \
  }                                                                         \
  if (!ExpCloneActive()) {                                                  \
    GTEST_SKIP() << "the expf clone's self-check fell back to std::exp "    \
                    "(this libm is not glibc's FMA expf)";                  \
  }

/// Tier-1 sweep: every 64th float of the clone's domain, ~35M inputs.
TEST(ExpKernelTest, MatchesLibmOnStridedDomain) {
  SKIP_UNLESS_EXP_CLONE();
  EXPECT_EQ(CountExpMismatches(64), 0u);
}

/// The whole domain, 2.24 billion inputs (~15 s on one core). Disabled in
/// the suite; CI runs it with --gtest_also_run_disabled_tests.
TEST(ExpKernelTest, DISABLED_MatchesLibmOnWholeDomain) {
  SKIP_UNLESS_EXP_CLONE();
  EXPECT_EQ(CountExpMismatches(1), 0u);
}

}  // namespace
}  // namespace enld
