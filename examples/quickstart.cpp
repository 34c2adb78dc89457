// Quickstart: stand up a small data lake, initialize ENLD, and detect the
// noisy labels of one arriving dataset.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Pass --snapshot_dir=<dir> to persist the platform after the run; a
// second invocation with the same flag restores it from disk and skips
// the (expensive) setup stage entirely. Pass --telemetry_out=report.json
// (or set ENLD_TELEMETRY) to also dump the machine-readable telemetry
// report of the run.

#include <cstdio>
#include <string>

#include "common/stopwatch.h"
#include "common/telemetry/report.h"
#include "data/workload.h"
#include "enld/platform.h"
#include "eval/metrics.h"
#include "eval/reporting.h"
#include "flags.h"
#include "store/snapshot.h"

int main(int argc, char** argv) {
  using namespace enld;
  const std::string snapshot_dir = flags::Value(argc, argv, "snapshot_dir");

  // A small CIFAR100-like task: 40 classes, pair-asymmetric noise at 20%.
  WorkloadConfig workload_config;
  workload_config.profile = Cifar100SimConfig();
  workload_config.profile.num_classes = 40;
  workload_config.profile.samples_per_class = 90;
  workload_config.noise_rate = 0.2;
  workload_config.stream.num_datasets = 4;
  workload_config.stream.min_classes_per_dataset = 8;
  workload_config.stream.max_classes_per_dataset = 8;
  const Workload workload = BuildWorkload(workload_config);

  std::printf("inventory: %zu samples, %d classes\n",
              workload.inventory.size(), workload.inventory.num_classes);

  // Stage 0: initialize the general model and the mislabeling probability
  // behind the DataPlatform façade — or restore all of it from a snapshot
  // written by an earlier run.
  DataPlatformConfig config;
  config.enld.general.train.epochs = 20;
  config.enld.iterations = 5;
  config.min_update_samples = 1;
  DataPlatform platform(config);

  bool resumed = false;
  if (!snapshot_dir.empty()) {
    const Status restored = platform.RestoreFromSnapshot(snapshot_dir);
    if (restored.ok()) {
      resumed = true;
      std::printf("restored platform from snapshot in %s (setup skipped)\n",
                  snapshot_dir.c_str());
    } else if (restored.code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "snapshot restore failed: %s\n",
                   restored.ToString().c_str());
      return 1;
    }
  }
  if (!resumed) {
    Stopwatch setup;
    const Status init = platform.Initialize(workload.inventory);
    if (!init.ok()) {
      std::fprintf(stderr, "initialization failed: %s\n",
                   init.ToString().c_str());
      return 1;
    }
    std::printf("setup: %.2fs (general model + probability estimation)\n",
                setup.ElapsedSeconds());
  }

  // Stage 1: detect noisy labels in each arriving dataset.
  for (size_t i = 0; i < workload.incremental.size(); ++i) {
    const Dataset& arriving = workload.incremental[i];
    Stopwatch process;
    const StatusOr<DetectionResult> result = platform.Process(arriving);
    if (!result.ok()) {
      std::fprintf(stderr, "request failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const DetectionMetrics m =
        EvaluateDetection(arriving, result->noisy_indices);
    std::printf(
        "dataset %zu: %zu samples, detected %zu noisy "
        "(P=%.3f R=%.3f F1=%.3f) in %.2fs\n",
        i, arriving.size(), result->noisy_indices.size(), m.precision,
        m.recall, m.f1, process.ElapsedSeconds());
  }

  // Optional: refresh the general model from the clean inventory samples
  // accumulated across requests.
  std::printf("inventory samples selected clean: %zu\n",
              platform.framework().selected_clean_count());
  const Status update = platform.Update();
  std::printf("model update: %s\n", update.ToString().c_str());

  // Persist everything — the next run with the same --snapshot_dir picks
  // up this exact state.
  if (!snapshot_dir.empty()) {
    const Status saved = platform.SaveSnapshot(snapshot_dir);
    std::printf("snapshot -> %s: %s\n", snapshot_dir.c_str(),
                saved.ToString().c_str());
    if (!saved.ok()) return 1;
  }

  // What the run looked like from the inside: the telemetry subsystem has
  // been recording spans, counters and series throughout.
  const telemetry::RunReport report = telemetry::CaptureRunReport();
  std::printf("\n%s", TelemetrySummary(report).c_str());
  const std::string out_path = telemetry::TelemetryOutPath(argc, argv);
  if (!out_path.empty()) {
    const Status written = telemetry::WriteRunReport(report, out_path);
    std::printf("telemetry report -> %s: %s\n", out_path.c_str(),
                written.ToString().c_str());
  }
  return 0;
}
