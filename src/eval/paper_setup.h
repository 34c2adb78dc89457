#ifndef ENLD_EVAL_PAPER_SETUP_H_
#define ENLD_EVAL_PAPER_SETUP_H_

#include "data/workload.h"
#include "detect/registry.h"
#include "enld/config.h"

namespace enld {

/// The three evaluation tasks of Section V-A1 (our scaled synthetic
/// stand-ins; see DESIGN.md §2).
enum class PaperDataset {
  kEmnist,
  kCifar100,
  kTinyImagenet,
};

/// Display name matching the paper ("EMNIST", "CIFAR100", "Tiny-Imagenet").
const char* PaperDatasetName(PaperDataset dataset);

/// Workload (profile + stream shape + noise) for a task — the scaled
/// equivalent of the paper's data split of Section V-A1.
WorkloadConfig PaperWorkloadConfig(PaperDataset dataset, double noise_rate);

/// General-model initialization shared by Default / CL / ENLD (identical
/// setup cost, as in the paper's Fig. 8 accounting).
GeneralModelConfig PaperGeneralConfig(PaperDataset dataset);

/// Calibrated ENLD configuration per task. Follows the paper's
/// hyperparameters (k = 3, s = 5, warm-up 2) with iteration counts and
/// fine-tune learning rates scaled to this repository's substrate
/// (the paper uses t = 5 for EMNIST and t = 17 for CIFAR100 /
/// Tiny-ImageNet at full scale).
EnldConfig PaperEnldConfig(PaperDataset dataset);

/// The per-task base configurations bundled for the detector table:
/// detect::CreateDetector(key, options, PaperDetectorContext(dataset))
/// builds any detector calibrated the way the paper benches run it. Only
/// the general model and ENLD are calibrated per task; every other
/// detector keeps its library defaults on all three.
detect::DetectorContext PaperDetectorContext(PaperDataset dataset);

}  // namespace enld

#endif  // ENLD_EVAL_PAPER_SETUP_H_
