#include "common/distance.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/kernel_backend.h"
#include "common/matrix.h"
#include "common/rng.h"

namespace enld {
namespace {

Matrix RandomPoints(size_t n, size_t dim, Rng& rng) {
  Matrix m(n, dim);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < dim; ++c) {
      m(r, c) = static_cast<float>(rng.Gaussian());
    }
  }
  return m;
}

std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

/// Restores whatever backend was active before the test.
class BackendGuard {
 public:
  BackendGuard() : saved_(KernelBackend()) {}
  ~BackendGuard() { SetKernelBackend(saved_.c_str()); }

 private:
  std::string saved_;
};

TEST(DistanceTest, PaddedLaneCount) {
  EXPECT_EQ(PaddedLaneCount(0), 0u);
  EXPECT_EQ(PaddedLaneCount(1), 8u);
  EXPECT_EQ(PaddedLaneCount(7), 8u);
  EXPECT_EQ(PaddedLaneCount(8), 8u);
  EXPECT_EQ(PaddedLaneCount(9), 16u);
  EXPECT_EQ(PaddedLaneCount(16), 16u);
}

TEST(DistanceTest, ScalarReference) {
  const float a[3] = {1.0f, 2.0f, 3.0f};
  const float b[3] = {4.0f, 6.0f, 3.0f};
  EXPECT_FLOAT_EQ(SquaredDistance(a, b, 3), 9.0f + 16.0f);
  EXPECT_FLOAT_EQ(SquaredDistance(a, b, 0), 0.0f);
}

TEST(DistanceTest, PackSoaBlockLayoutAndPadding) {
  Matrix points(3, 2);
  points(0, 0) = 1.0f;
  points(0, 1) = 2.0f;
  points(1, 0) = 3.0f;
  points(1, 1) = 4.0f;
  points(2, 0) = 5.0f;
  points(2, 1) = 6.0f;
  const std::vector<size_t> rows = {2, 0};
  const size_t stride = PaddedLaneCount(rows.size());
  std::vector<float> soa(stride * 2, -1.0f);
  PackSoaBlock(points.data(), 2, rows.data(), rows.size(), stride,
               soa.data());
  // Dimension-major: dim 0 lanes first, then dim 1; padding zero-filled.
  EXPECT_FLOAT_EQ(soa[0], 5.0f);
  EXPECT_FLOAT_EQ(soa[1], 1.0f);
  for (size_t i = 2; i < stride; ++i) EXPECT_FLOAT_EQ(soa[i], 0.0f);
  EXPECT_FLOAT_EQ(soa[stride + 0], 6.0f);
  EXPECT_FLOAT_EQ(soa[stride + 1], 2.0f);
  for (size_t i = 2; i < stride; ++i) {
    EXPECT_FLOAT_EQ(soa[stride + i], 0.0f);
  }
}

/// Every backend must reproduce the scalar reference bitwise, for counts
/// around the 8-lane boundaries and a dim that is not a lane multiple.
TEST(DistanceTest, BatchedMatchesScalarBitwiseOnAllBackends) {
  BackendGuard guard;
  Rng rng(3);
  for (const char* backend : {"generic", "avx2", "avx512"}) {
    if (!SetKernelBackend(backend)) continue;  // CPU w/o AVX2 or AVX-512.
    ASSERT_STREQ(KernelBackend(), backend);
    for (size_t count : {1u, 7u, 8u, 9u, 16u, 17u, 100u}) {
      for (size_t dim : {1u, 3u, 8u, 21u}) {
        const Matrix points = RandomPoints(count, dim, rng);
        const auto rows = AllRows(count);
        const size_t stride = PaddedLaneCount(count);
        std::vector<float> soa(stride * dim);
        PackSoaBlock(points.data(), dim, rows.data(), count, stride,
                     soa.data());
        std::vector<float> query(dim);
        for (auto& q : query) q = static_cast<float>(rng.Gaussian());
        std::vector<float> out(count, -1.0f);
        BatchedSquaredDistances(soa.data(), stride, count, dim, query.data(),
                                out.data());
        for (size_t i = 0; i < count; ++i) {
          const float ref =
              SquaredDistance(points.Row(i), query.data(), dim);
          uint32_t got_bits, ref_bits;
          std::memcpy(&got_bits, &out[i], sizeof(got_bits));
          std::memcpy(&ref_bits, &ref, sizeof(ref_bits));
          EXPECT_EQ(got_bits, ref_bits)
              << backend << " count=" << count << " dim=" << dim
              << " i=" << i;
        }
      }
    }
  }
}

/// The two backends must agree with each other bitwise on the same block —
/// the runtime-dispatch contract that keeps results identical across
/// machines with and without AVX2.
TEST(DistanceTest, BackendsAgreeBitwise) {
  BackendGuard guard;
  if (!SetKernelBackend("avx2")) {
    GTEST_SKIP() << "AVX2 unavailable on this CPU";
  }
  Rng rng(4);
  const size_t count = 333, dim = 40;
  const Matrix points = RandomPoints(count, dim, rng);
  const auto rows = AllRows(count);
  const size_t stride = PaddedLaneCount(count);
  std::vector<float> soa(stride * dim);
  PackSoaBlock(points.data(), dim, rows.data(), count, stride, soa.data());
  std::vector<float> query(dim);
  for (auto& q : query) q = static_cast<float>(rng.Gaussian());

  std::vector<float> avx2(count), generic(count);
  BatchedSquaredDistances(soa.data(), stride, count, dim, query.data(),
                          avx2.data());
  ASSERT_TRUE(SetKernelBackend("generic"));
  BatchedSquaredDistances(soa.data(), stride, count, dim, query.data(),
                          generic.data());
  EXPECT_EQ(std::memcmp(avx2.data(), generic.data(), count * sizeof(float)),
            0);
}

TEST(DistanceTest, ZeroCountIsANoOp) {
  float out = 42.0f;
  BatchedSquaredDistances(nullptr, 0, 0, 5, nullptr, &out);
  EXPECT_FLOAT_EQ(out, 42.0f);
}

TEST(DistanceTest, UnknownBackendRejected) {
  BackendGuard guard;
  const std::string before = KernelBackend();
  EXPECT_FALSE(SetKernelBackend("sse9"));
  EXPECT_FALSE(SetKernelBackend(nullptr));
  EXPECT_EQ(before, KernelBackend());
  EXPECT_TRUE(SetKernelBackend("auto"));
}

/// ENLD_KERNEL names every backend: detection ("auto") takes the named one
/// when this CPU has it, and otherwise, as for an unknown name, picks the
/// widest backend the CPU supports.
TEST(DistanceTest, EnvNamesEveryBackend) {
  BackendGuard guard;
  const char* env = std::getenv("ENLD_KERNEL");
  const std::string saved_env = env == nullptr ? "" : env;
  unsetenv("ENLD_KERNEL");
  ASSERT_TRUE(SetKernelBackend("auto"));
  const std::string widest = KernelBackend();
  for (const char* name : {"generic", "avx2", "avx512", "sse9"}) {
    const bool available = SetKernelBackend(name);
    setenv("ENLD_KERNEL", name, /*overwrite=*/1);
    ASSERT_TRUE(SetKernelBackend("auto"));
    EXPECT_EQ(KernelBackend(), available ? std::string(name) : widest)
        << name;
  }
  if (env == nullptr) {
    unsetenv("ENLD_KERNEL");
  } else {
    setenv("ENLD_KERNEL", saved_env.c_str(), /*overwrite=*/1);
  }
}

}  // namespace
}  // namespace enld
