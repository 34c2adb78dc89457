// Section V-H: missing labels as a special case of noisy labels. A portion
// of an arriving dataset has no labels at all; ENLD assigns pseudo labels
// by per-step voting during fine-grained detection and still detects the
// noisy labels among the labeled portion.
//
//   ./build/examples/missing_label_recovery [missing_rate]

#include <cstdio>

#include "data/noise.h"
#include "data/workload.h"
#include "enld/framework.h"
#include "eval/metrics.h"
#include "eval/paper_setup.h"
#include "flags.h"

int main(int argc, char** argv) {
  using namespace enld;
  const double missing_rate =
      flags::LeadingRate(argc, argv, "missing_rate", 0.5);

  WorkloadConfig workload_config = Cifar100WorkloadConfig(0.2);
  workload_config.stream.num_datasets = 6;
  Workload workload = BuildWorkload(workload_config);

  // Strip labels from a fraction of every arriving dataset.
  Rng rng(2024);
  std::vector<std::vector<size_t>> masked;
  for (Dataset& d : workload.incremental) {
    masked.push_back(MaskMissingLabels(&d, missing_rate, rng));
  }
  std::printf("noise 0.2, missing-label rate %.0f%%\n\n",
              missing_rate * 100);

  EnldFramework enld(PaperEnldConfig(PaperDataset::kCifar100));
  enld.Setup(workload.inventory);

  double recovery_sum = 0.0;
  double detection_sum = 0.0;
  for (size_t i = 0; i < workload.incremental.size(); ++i) {
    const Dataset& d = workload.incremental[i];
    const DetectionResult result = enld.Detect(d);
    const double recovery =
        PseudoLabelAccuracy(d, result.recovered_labels, masked[i]);
    const DetectionMetrics detection =
        EvaluateDetection(d, result.noisy_indices);
    recovery_sum += recovery;
    detection_sum += detection.f1;
    std::printf(
        "dataset %zu: %3zu samples (%3zu unlabeled) -> pseudo-label "
        "accuracy %.3f, detection F1 %.3f\n",
        i, d.size(), masked[i].size(), recovery, detection.f1);
  }
  const double n = static_cast<double>(workload.incremental.size());
  std::printf("\naverages: pseudo-label accuracy %.4f, detection F1 %.4f\n",
              recovery_sum / n, detection_sum / n);
  return 0;
}
