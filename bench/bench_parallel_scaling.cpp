// Thread-scaling benchmark for the parallel substrate (src/common/parallel):
// times each hot path at 1/2/4/8 threads and reports speedup vs the
// sequential path. Also asserts the determinism contract end-to-end: the
// ENLD detector must produce bit-identical clean/noisy partitions at every
// thread count.
//
// Hot paths measured:
//   matmul        — dense MatMul (trainer forward/backward kernels)
//   knn_build     — per-class KD-tree construction (ClassKnnIndex)
//   knn_query     — batched class-constrained nearest-neighbour queries
//   conf_joint    — confident-joint estimation over the candidate set
//   detect_e2e    — one full fine-grained detection request (Alg. 3)
//
// Also reports two hot-path numbers that must hold regardless of thread
// count (docs/BENCHMARKS.md):
//   distance_kernel — batched SoA squared-distance kernel vs the scalar
//                     per-point loop (common/distance.h);
//   detect_stream   — a multi-request detection stream at 1 and 4
//                     threads, asserting byte-identical partitions.
//
// Speedups depend on the host: on a single-core container every row is
// ~1.0x. ENLD_THREADS is ignored here (thread counts are swept in-process).

#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/distance.h"
#include "common/kernel_backend.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "common/telemetry/metrics.h"
#include "data/synthetic.h"
#include "enld/framework.h"
#include "knn/class_index.h"
#include "nn/confident_joint.h"
#include "nn/mlp.h"

namespace {

using namespace enld;

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

double TimeMatMul() {
  Rng rng(11);
  Matrix a(384, 256), b(256, 384), out;
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  Stopwatch watch;
  for (int rep = 0; rep < 20; ++rep) MatMul(a, b, &out);
  return watch.ElapsedSeconds();
}

Dataset MakeFeatureSet() {
  SyntheticConfig config = Cifar100SimConfig();
  config.samples_per_class = 40;
  return GenerateSynthetic(config);
}

double TimeKnnBuild(const Dataset& data) {
  std::vector<size_t> rows(data.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Stopwatch watch;
  for (int rep = 0; rep < 5; ++rep) {
    ClassKnnIndex index(data.features, data.observed_labels, rows,
                        data.num_classes);
  }
  return watch.ElapsedSeconds();
}

double TimeKnnQuery(const Dataset& data) {
  std::vector<size_t> rows(data.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  ClassKnnIndex index(data.features, data.observed_labels, rows,
                      data.num_classes);
  // Every sample queries the *next* class — forces cross-tree traffic.
  std::vector<int> labels(data.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = (data.observed_labels[i] + 1) % data.num_classes;
  }
  Stopwatch watch;
  for (int rep = 0; rep < 5; ++rep) {
    index.NearestBatch(labels, data.features, rows, 10);
  }
  return watch.ElapsedSeconds();
}

double TimeConfidentJoint(const Dataset& data) {
  Rng rng(29);
  MlpModel model({data.dim(), 64, static_cast<size_t>(data.num_classes)},
                 rng);
  Stopwatch watch;
  for (int rep = 0; rep < 5; ++rep) {
    EstimateConfidentJoint(&model, data);
  }
  return watch.ElapsedSeconds();
}

struct DetectRun {
  double seconds = 0.0;
  std::vector<size_t> clean;
  std::vector<size_t> noisy;
};

DetectRun TimeDetect() {
  WorkloadConfig config =
      PaperWorkloadConfig(PaperDataset::kEmnist, /*noise_rate=*/0.2);
  config.stream.num_datasets = 1;
  const Workload workload = BuildWorkload(config);

  EnldFramework enld(PaperEnldConfig(PaperDataset::kEmnist));
  enld.Setup(workload.inventory);

  DetectRun run;
  Stopwatch watch;
  DetectionResult result = enld.Detect(workload.incremental.front());
  run.seconds = watch.ElapsedSeconds();
  run.clean = std::move(result.clean_indices);
  run.noisy = std::move(result.noisy_indices);
  return run;
}

/// Distance-kernel rows: scalar per-point loop vs the batched SoA kernel
/// on one 1024 x 64 candidate block — the BruteForceNearest chunk size,
/// so the block is L2-resident like the real leaf scans (at 16k+ points
/// both paths go memory-bound and converge). Single-threaded by
/// construction — the kernel win is orthogonal to the thread sweep.
/// Returns the batched/scalar speedup of the dispatched backend.
double PrintDistanceKernelTable() {
  const size_t n = 1024, dim = 64;
  Rng rng(41);
  Matrix points(n, dim);
  for (size_t i = 0; i < points.size(); ++i) {
    points.data()[i] = static_cast<float>(rng.Gaussian());
  }
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  const size_t stride = PaddedLaneCount(n);
  std::vector<float> soa(stride * dim);
  PackSoaBlock(points.data(), dim, rows.data(), n, stride, soa.data());
  std::vector<float> query(dim, 0.25f);
  std::vector<float> out(n);
  constexpr int kReps = 2000;

  Stopwatch scalar_watch;
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = SquaredDistance(points.Row(i), query.data(), dim);
    }
  }
  const double scalar_seconds = scalar_watch.ElapsedSeconds();

  TablePrinter table({"kernel", "seconds", "speedup_vs_scalar"});
  table.AddRow({"scalar_loop", TablePrinter::Num(scalar_seconds, 4),
                TablePrinter::Num(1.0, 2)});
  double dispatched_speedup = 0.0;
  for (const char* backend : {"generic", "avx2", "avx512"}) {
    if (!SetKernelBackend(backend)) continue;
    Stopwatch watch;
    for (int rep = 0; rep < kReps; ++rep) {
      BatchedSquaredDistances(soa.data(), stride, n, dim, query.data(),
                              out.data());
    }
    const double seconds = watch.ElapsedSeconds();
    table.AddRow({backend, TablePrinter::Num(seconds, 4),
                  TablePrinter::Num(scalar_seconds / seconds, 2)});
    dispatched_speedup = scalar_seconds / seconds;
  }
  SetKernelBackend("auto");
  table.Print("distance kernel — 1024 points x 64 dims per query");
  return dispatched_speedup;
}

struct StreamRun {
  double seconds = 0.0;
  uint64_t trees_built = 0;
  std::vector<std::vector<size_t>> clean;
  std::vector<std::vector<size_t>> noisy;
};

/// A short multi-request detection stream against one framework. The
/// stream runs two passes over the incremental datasets — the second pass
/// replays each request, the pattern the store's quarantine-replay ops
/// produce. Counts the KD-trees built during the Detect calls via the
/// exact knn/trees_built counter.
StreamRun TimeDetectStream() {
  WorkloadConfig config =
      PaperWorkloadConfig(PaperDataset::kEmnist, /*noise_rate=*/0.2);
  config.stream.num_datasets = 3;
  const Workload workload = BuildWorkload(config);

  EnldFramework enld(PaperEnldConfig(PaperDataset::kEmnist));
  enld.Setup(workload.inventory);

  auto* trees_built =
      telemetry::MetricsRegistry::Global().GetCounter("knn/trees_built");
  StreamRun run;
  const uint64_t before = trees_built->Value();
  Stopwatch watch;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Dataset& d : workload.incremental) {
      DetectionResult result = enld.Detect(d);
      run.clean.push_back(std::move(result.clean_indices));
      run.noisy.push_back(std::move(result.noisy_indices));
    }
  }
  run.seconds = watch.ElapsedSeconds();
  run.trees_built = trees_built->Value() - before;
  return run;
}

}  // namespace

int main() {
  std::printf("hardware threads available: %u\n\n",
              std::thread::hardware_concurrency());

  const Dataset features = MakeFeatureSet();

  TablePrinter table({"hot_path", "threads", "seconds", "speedup_vs_1"});
  std::vector<DetectRun> detect_runs;

  struct PathResult {
    const char* name;
    double baseline = 0.0;
  };
  PathResult paths[] = {{"matmul"}, {"knn_build"}, {"knn_query"},
                        {"conf_joint"}, {"detect_e2e"}};

  for (size_t threads : kThreadCounts) {
    SetParallelThreads(threads);
    double seconds[5];
    seconds[0] = TimeMatMul();
    seconds[1] = TimeKnnBuild(features);
    seconds[2] = TimeKnnQuery(features);
    seconds[3] = TimeConfidentJoint(features);
    DetectRun run = TimeDetect();
    seconds[4] = run.seconds;
    detect_runs.push_back(std::move(run));

    for (int p = 0; p < 5; ++p) {
      if (threads == 1) paths[p].baseline = seconds[p];
      table.AddRow({paths[p].name, TablePrinter::Num(threads, 0),
                    TablePrinter::Num(seconds[p], 4),
                    TablePrinter::Num(paths[p].baseline / seconds[p], 2)});
    }
  }
  table.Print("parallel scaling — wall clock per hot path");

  // Determinism: the detector partition must be bit-identical at every
  // thread count.
  bool identical = true;
  for (size_t i = 1; i < detect_runs.size(); ++i) {
    identical = identical && detect_runs[i].clean == detect_runs[0].clean &&
                detect_runs[i].noisy == detect_runs[0].noisy;
  }
  std::printf("\ndeterminism across thread counts: %s (clean=%zu noisy=%zu)\n",
              identical ? "PASS" : "FAIL", detect_runs[0].clean.size(),
              detect_runs[0].noisy.size());

  SetParallelThreads(1);
  std::printf("\n");
  const double kernel_speedup = PrintDistanceKernelTable();

  // The multi-request stream at 1 and 4 threads: same partitions.
  std::vector<StreamRun> stream_runs;
  TablePrinter stream_table({"threads", "seconds", "knn_trees_built"});
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SetParallelThreads(threads);
    StreamRun run = TimeDetectStream();
    stream_table.AddRow({TablePrinter::Num(threads, 0),
                         TablePrinter::Num(run.seconds, 4),
                         TablePrinter::Num(run.trees_built, 0)});
    stream_runs.push_back(std::move(run));
  }
  SetParallelThreads(0);
  stream_table.Print("detect stream (3 requests + replay)");

  const bool stream_identical = stream_runs[1].clean == stream_runs[0].clean &&
                                stream_runs[1].noisy == stream_runs[0].noisy;
  std::printf(
      "\ndetect stream byte-identity at 1 and 4 threads: %s\n"
      "distance kernel speedup vs scalar loop: %.2fx\n",
      stream_identical ? "PASS" : "FAIL", kernel_speedup);
  return identical && stream_identical ? 0 : 1;
}
