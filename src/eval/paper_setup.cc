#include "eval/paper_setup.h"

namespace enld {

const char* PaperDatasetName(PaperDataset dataset) {
  switch (dataset) {
    case PaperDataset::kEmnist:
      return "EMNIST";
    case PaperDataset::kCifar100:
      return "CIFAR100";
    case PaperDataset::kTinyImagenet:
      return "Tiny-Imagenet";
  }
  return "unknown";
}

WorkloadConfig PaperWorkloadConfig(PaperDataset dataset, double noise_rate) {
  switch (dataset) {
    case PaperDataset::kEmnist:
      return EmnistWorkloadConfig(noise_rate);
    case PaperDataset::kCifar100:
      return Cifar100WorkloadConfig(noise_rate);
    case PaperDataset::kTinyImagenet:
      return TinyImagenetWorkloadConfig(noise_rate);
  }
  return Cifar100WorkloadConfig(noise_rate);
}

GeneralModelConfig PaperGeneralConfig(PaperDataset dataset) {
  GeneralModelConfig config;
  (void)dataset;  // One shared schedule, as in the paper.
  return config;
}

EnldConfig PaperEnldConfig(PaperDataset dataset) {
  EnldConfig config;
  config.general = PaperGeneralConfig(dataset);
  switch (dataset) {
    case PaperDataset::kEmnist:
      config.iterations = 5;  // Paper: t = 5 for EMNIST.
      config.finetune.sgd.learning_rate = 0.001;
      break;
    case PaperDataset::kCifar100:
      config.iterations = 5;  // Paper: t = 17, scaled down with the data.
      config.finetune.sgd.learning_rate = 0.002;
      break;
    case PaperDataset::kTinyImagenet:
      config.iterations = 8;  // Paper: t = 17, scaled down with the data.
      config.finetune.sgd.learning_rate = 0.002;
      break;
  }
  return config;
}

detect::DetectorContext PaperDetectorContext(PaperDataset dataset) {
  detect::DetectorContext context;
  context.general = PaperGeneralConfig(dataset);
  context.enld = PaperEnldConfig(dataset);
  return context;
}

}  // namespace enld
