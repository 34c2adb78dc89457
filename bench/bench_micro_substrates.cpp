// Google-benchmark micro-benchmarks for the substrates the paper's
// implementation notes call out: the KD-tree that accelerates repeated
// k-nearest queries (Section IV-D reports O(k|A| log|H'|) vs the brute
// O(c|A||H'|)), the dense kernels the network substrate runs on, the
// union-find behind Topofilter's connected components, and the store's
// CRC-32.

#include <string>

#include <benchmark/benchmark.h>

#include "common/distance.h"
#include "common/kernel_backend.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/row_kernels.h"
#include "enld/model_view.h"
#include "graph/knn_graph.h"
#include "graph/union_find.h"
#include "knn/kdtree.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "store/io.h"

namespace enld {
namespace {

Matrix RandomPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, dim);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Gaussian());
  }
  return m;
}

void BM_KdTreeBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix points = RandomPoints(n, 64, 1);
  for (auto _ : state) {
    KdTree tree(points);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KdTreeBuild)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_KdTreeQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix points = RandomPoints(n, 64, 2);
  const KdTree tree(points);
  Rng rng(3);
  std::vector<float> query(64);
  for (auto _ : state) {
    for (auto& q : query) q = static_cast<float>(rng.Gaussian());
    benchmark::DoNotOptimize(tree.Nearest(query.data(), 3));
  }
}
BENCHMARK(BM_KdTreeQuery)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_BruteForceQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix points = RandomPoints(n, 64, 4);
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  Rng rng(5);
  std::vector<float> query(64);
  for (auto _ : state) {
    for (auto& q : query) q = static_cast<float>(rng.Gaussian());
    benchmark::DoNotOptimize(
        BruteForceNearest(points, rows, query.data(), 3));
  }
}
BENCHMARK(BM_BruteForceQuery)->Arg(1000)->Arg(4000)->Arg(16000);

// ---- Distance kernel rows (docs/BENCHMARKS.md, "Distance kernels") ----
// The scalar per-point loop the KD-tree leaf scans used before the SoA
// kernel landed, over the same candidate block. The kernel rows divide by
// this one for the tracked speedup number.

void BM_ScalarDistanceLoop(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = static_cast<size_t>(state.range(1));
  const Matrix points = RandomPoints(n, dim, 21);
  const std::vector<float> query(dim, 0.25f);
  std::vector<float> out(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = SquaredDistance(points.Row(i), query.data(), dim);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScalarDistanceLoop)
    ->Args({16, 64})
    ->Args({1024, 64})
    ->Args({16384, 64});

void BM_BatchedDistance(benchmark::State& state, const char* backend) {
  if (!SetKernelBackend(backend)) {
    state.SkipWithError("backend unavailable on this CPU");
    return;
  }
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = static_cast<size_t>(state.range(1));
  const Matrix points = RandomPoints(n, dim, 21);
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  const size_t stride = PaddedLaneCount(n);
  std::vector<float> soa(stride * dim);
  PackSoaBlock(points.data(), dim, rows.data(), n, stride, soa.data());
  const std::vector<float> query(dim, 0.25f);
  std::vector<float> out(n);
  for (auto _ : state) {
    BatchedSquaredDistances(soa.data(), stride, n, dim, query.data(),
                            out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  SetKernelBackend("auto");
}
BENCHMARK_CAPTURE(BM_BatchedDistance, generic, "generic")
    ->Args({16, 64})
    ->Args({1024, 64})
    ->Args({16384, 64});
BENCHMARK_CAPTURE(BM_BatchedDistance, avx2, "avx2")
    ->Args({16, 64})
    ->Args({1024, 64})
    ->Args({16384, 64});

// ---- GEMM kernel rows (docs/BENCHMARKS.md, "GEMM kernel") ----
// The fine-tune shapes: a batch of 64 through the 32 -> 128 -> 64 -> 100
// MLP. Args are the product's {m, k, n}. MatMul rows are the forward
// layers, MatMulAt rows the weight gradients X^T dY, MatMulBt rows the
// input gradients dY W^T (the first layer's is never computed).

void ForwardShapes(benchmark::internal::Benchmark* b) {
  b->Args({64, 32, 128})->Args({64, 128, 64})->Args({64, 64, 100});
}

void WeightGradShapes(benchmark::internal::Benchmark* b) {
  b->Args({32, 64, 128})->Args({128, 64, 64})->Args({64, 64, 100});
}

void InputGradShapes(benchmark::internal::Benchmark* b) {
  b->Args({64, 64, 128})->Args({64, 100, 64});
}

/// The naive triple loop, a separate fp32 multiply and add per term. Its
/// inner loop is a sequential fp32 sum, which the compiler cannot
/// vectorize, so this is the scalar baseline the kernel rows divide by.
/// It is not the kernels' fused contract on purpose: built for baseline
/// x86-64, std::fma is a libm call per term, a slower baseline that would
/// ease drill.hotpath's 2x gate.
void BM_MatMulScalar(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const size_t n = static_cast<size_t>(state.range(2));
  const Matrix a = RandomPoints(m, k, 6);
  const Matrix b = RandomPoints(k, n, 7);
  Matrix out(m, n);
  for (auto _ : state) {
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        float sum = 0.0f;
        for (size_t p = 0; p < k; ++p) sum += a(i, p) * b(p, j);
        out(i, j) = sum;
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMulScalar)->Apply(ForwardShapes);

using ProductFn = void (*)(const Matrix&, const Matrix&, Matrix*);

/// Times `product` on operands of the given shapes under `backend`.
void RunProduct(benchmark::State& state, const char* backend,
                ProductFn product, size_t a_rows, size_t a_cols,
                size_t b_rows, size_t b_cols) {
  if (!SetKernelBackend(backend)) {
    state.SkipWithError("backend unavailable on this CPU");
    return;
  }
  const Matrix a = RandomPoints(a_rows, a_cols, 6);
  const Matrix b = RandomPoints(b_rows, b_cols, 7);
  Matrix out;
  for (auto _ : state) {
    product(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1) * state.range(2));
  SetKernelBackend("auto");
}

void BM_MatMul(benchmark::State& state, const char* backend) {
  const size_t m = state.range(0), k = state.range(1), n = state.range(2);
  RunProduct(state, backend, MatMul, m, k, k, n);
}

void BM_MatMulAt(benchmark::State& state, const char* backend) {
  const size_t m = state.range(0), k = state.range(1), n = state.range(2);
  auto product = [](const Matrix& a, const Matrix& b, Matrix* out) {
    MatMulAt(a, b, out);
  };
  RunProduct(state, backend, product, k, m, k, n);
}

void BM_MatMulBt(benchmark::State& state, const char* backend) {
  const size_t m = state.range(0), k = state.range(1), n = state.range(2);
  RunProduct(state, backend, MatMulBt, m, k, n, k);
}

BENCHMARK_CAPTURE(BM_MatMul, generic, "generic")->Apply(ForwardShapes);
BENCHMARK_CAPTURE(BM_MatMul, avx2, "avx2")->Apply(ForwardShapes);
BENCHMARK_CAPTURE(BM_MatMul, avx512, "avx512")->Apply(ForwardShapes);
BENCHMARK_CAPTURE(BM_MatMul, auto, "auto")->Apply(ForwardShapes);
BENCHMARK_CAPTURE(BM_MatMulAt, generic, "generic")->Apply(WeightGradShapes);
BENCHMARK_CAPTURE(BM_MatMulAt, avx2, "avx2")->Apply(WeightGradShapes);
BENCHMARK_CAPTURE(BM_MatMulAt, avx512, "avx512")->Apply(WeightGradShapes);
BENCHMARK_CAPTURE(BM_MatMulAt, auto, "auto")->Apply(WeightGradShapes);
BENCHMARK_CAPTURE(BM_MatMulBt, generic, "generic")->Apply(InputGradShapes);
BENCHMARK_CAPTURE(BM_MatMulBt, avx2, "avx2")->Apply(InputGradShapes);
BENCHMARK_CAPTURE(BM_MatMulBt, avx512, "avx512")->Apply(InputGradShapes);
BENCHMARK_CAPTURE(BM_MatMulBt, auto, "auto")->Apply(InputGradShapes);

/// One SGD step of the fine-tune MLP on a batch of 64: forward, backward
/// and update, all on the dispatched backend.
void BM_MlpTrainStep(benchmark::State& state) {
  Rng rng(13);
  MlpModel model({32, 128, 64, 100}, rng);
  SgdOptimizer optimizer(SgdConfig{});
  const Matrix inputs = RandomPoints(64, 32, 14);
  std::vector<int> labels(64);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i * 37 % 100);
  }
  const Matrix targets = OneHot(labels, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.TrainStep(inputs, targets, &optimizer));
  }
  state.SetItemsProcessed(state.iterations() * inputs.rows());
}
BENCHMARK(BM_MlpTrainStep);

// ---- Row kernel rows (docs/BENCHMARKS.md, "Row kernels") ----
// Softmax at one fine-tune batch (64 x 100) and a 400-row view, on the
// generic loop (std::exp), the AVX-512 expf clone and the dispatched
// backend. Args are {rows, cols}. The exp_clone counter is 1 when the
// avx512 rows ran the clone, 0 when its self-check fell back to std::exp.

void BM_SoftmaxRows(benchmark::State& state, const char* backend) {
  if (!SetKernelBackend(backend)) {
    state.SkipWithError("backend unavailable on this CPU");
    return;
  }
  const Matrix logits = RandomPoints(state.range(0), state.range(1), 8);
  Matrix probs;
  for (auto _ : state) {
    SoftmaxRows(logits, &probs);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(state.iterations() * logits.size());
  state.counters["exp_clone"] = ExpCloneActive() ? 1 : 0;
  SetKernelBackend("auto");
}
BENCHMARK_CAPTURE(BM_SoftmaxRows, generic, "generic")
    ->Args({64, 100})
    ->Args({400, 100});
BENCHMARK_CAPTURE(BM_SoftmaxRows, avx512, "avx512")
    ->Args({64, 100})
    ->Args({400, 100});
BENCHMARK_CAPTURE(BM_SoftmaxRows, auto, "auto")
    ->Args({64, 100})
    ->Args({400, 100});

/// The fine-tune loss: softmax, loss and gradient of a 64 x 100 batch.
void BM_SoftmaxCrossEntropy(benchmark::State& state) {
  const Matrix logits = RandomPoints(64, 100, 8);
  std::vector<int> labels(64);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i * 37 % 100);
  }
  const Matrix targets = OneHot(labels, 100);
  Matrix grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftmaxCrossEntropy(logits, targets, &grad));
  }
  state.SetItemsProcessed(state.iterations() * logits.size());
}
BENCHMARK(BM_SoftmaxCrossEntropy);

/// Predictions of an increment (125 rows) and of the candidate view (4,000).
void BM_ArgMaxRows(benchmark::State& state) {
  const Matrix logits = RandomPoints(state.range(0), 100, 8);
  for (auto _ : state) benchmark::DoNotOptimize(ArgMaxRows(logits));
  state.SetItemsProcessed(state.iterations() * logits.size());
}
BENCHMARK(BM_ArgMaxRows)->Arg(125)->Arg(4000);

// ---- CRC-32 rows (docs/BENCHMARKS.md, "CRC-32 kernel") ----
// One 1 MiB buffer (about a snapshot's train shards) through the
// slicing-by-8 tables (generic) and the dispatched backend (auto: the
// carry-less-multiply fold where the CPU has PCLMULQDQ), in bytes/s. The
// clmul counter is 1 when the row ran the fold: a backend other than
// generic on a CPU with PCLMULQDQ and SSE4.1 (store/io.h).

void BM_Crc32(benchmark::State& state, const char* backend) {
  if (!SetKernelBackend(backend)) {
    state.SkipWithError("backend unavailable on this CPU");
    return;
  }
  std::string buffer(1 << 20, '\0');
  Rng rng(12);
  for (char& byte : buffer) byte = static_cast<char>(rng.NextUInt64());
  for (auto _ : state) benchmark::DoNotOptimize(store::Crc32(buffer));
  state.SetBytesProcessed(state.iterations() * buffer.size());
#ifdef ENLD_KERNEL_X86
  state.counters["clmul"] = ActiveKernelIsa() != KernelIsa::kGeneric &&
                            __builtin_cpu_supports("pclmul") &&
                            __builtin_cpu_supports("sse4.1");
#else
  state.counters["clmul"] = 0;
#endif
  SetKernelBackend("auto");
}
BENCHMARK_CAPTURE(BM_Crc32, generic, "generic");
BENCHMARK_CAPTURE(BM_Crc32, auto, "auto");

void BM_MlpForward(benchmark::State& state) {
  Rng rng(9);
  MlpModel model({32, 128, 64, 100}, rng);
  const Matrix inputs = RandomPoints(256, 32, 10);
  Matrix logits;
  for (auto _ : state) {
    model.Forward(inputs, &logits);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetItemsProcessed(state.iterations() * inputs.rows());
}
BENCHMARK(BM_MlpForward);

// ---- Inference rows (docs/BENCHMARKS.md, "Blocked inference") ----
// θ's view (softmax, features and argmax) through the fine-tune MLP over
// I' at an 8k-row inventory (400 rows), I_c at 8k (4,000) and I_c at 64k
// (32,000), at 1 and 4 pool threads. Args are {rows, threads}; wall time.

void BM_ComputeModelView(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  SetParallelThreads(static_cast<size_t>(state.range(1)));
  Rng rng(15);
  const MlpModel model({32, 128, 64, 100}, rng);
  Dataset dataset;
  dataset.features = RandomPoints(rows, 32, 16);
  dataset.observed_labels.assign(rows, 0);
  dataset.num_classes = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeModelView(&model, dataset));
  }
  state.SetItemsProcessed(state.iterations() * rows);
  SetParallelThreads(0);
}
BENCHMARK(BM_ComputeModelView)
    ->ArgsProduct({{400, 4000, 32000}, {1, 4}})
    ->UseRealTime();

void BM_UnionFind(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  std::vector<std::pair<size_t, size_t>> edges(4 * n);
  for (auto& e : edges) e = {rng.UniformInt(n), rng.UniformInt(n)};
  for (auto _ : state) {
    UnionFind uf(n);
    for (const auto& [a, b] : edges) uf.Union(a, b);
    benchmark::DoNotOptimize(uf.num_sets());
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_UnionFind)->Arg(1000)->Arg(10000);

void BM_KnnGraphComponents(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix points = RandomPoints(n, 64, 12);
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KnnGraphComponents(points, rows, 4, true));
  }
}
BENCHMARK(BM_KnnGraphComponents)->Arg(200)->Arg(1000);

}  // namespace
}  // namespace enld

BENCHMARK_MAIN();
