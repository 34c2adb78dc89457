#include "detect/pls.h"

#include <vector>

#include "common/check.h"
#include "nn/trainer.h"

namespace enld {

void PlsDetector::Setup(const Dataset& inventory) {
  general_ = InitGeneralModel(inventory, config_.general);
  request_counter_ = 0;
}

DetectionResult PlsDetector::Detect(const Dataset& incremental) {
  ENLD_CHECK(general_.model != nullptr);  // Setup must run first.
  ++request_counter_;

  DetectionResult result;
  const std::vector<size_t> missing = incremental.MissingLabelIndices();
  std::vector<size_t> labeled;
  labeled.reserve(incremental.size() - missing.size());
  for (size_t i = 0; i < incremental.size(); ++i) {
    if (incremental.observed_labels[i] != kMissingLabel) labeled.push_back(i);
  }
  if (labeled.empty()) return result;

  // Stage 1: split by self-confidence against the per-class mean. The high
  // side is the trusted seed; only the low side goes to stage 2.
  const Matrix probs = general_.model->Probabilities(incremental.features);
  std::vector<double> self_conf(incremental.size(), 0.0);
  std::vector<double> class_sum(incremental.num_classes, 0.0);
  std::vector<size_t> class_count(incremental.num_classes, 0);
  for (size_t i : labeled) {
    const int y = incremental.observed_labels[i];
    self_conf[i] = static_cast<double>(probs.Row(i)[y]);
    class_sum[y] += self_conf[i];
    ++class_count[y];
  }
  std::vector<uint8_t> high(incremental.size(), 0);
  std::vector<size_t> high_positions;
  for (size_t i : labeled) {
    const int y = incremental.observed_labels[i];
    const double mean = class_sum[y] / static_cast<double>(class_count[y]);
    if (self_conf[i] >= config_.confidence_margin * mean) {
      high[i] = 1;
      high_positions.push_back(i);
    }
  }

  // Stage 2: refine a copy of θ on the high-confidence split, then re-judge
  // the low side with the refined model. When the split is empty (or
  // refinement is disabled) the unrefined θ judges instead.
  MlpModel refined(general_.model->layer_dims(),
                   general_.model->GetWeights());
  if (!high_positions.empty() && config_.refine_epochs > 0) {
    const Dataset seed_set = incremental.Subset(high_positions);
    TrainConfig refine;
    refine.epochs = config_.refine_epochs;
    refine.batch_size = 64;
    refine.sgd.learning_rate = 0.01;
    refine.sgd.momentum = 0.9;
    refine.seed = config_.seed + request_counter_;
    TrainModel(&refined, seed_set, /*validation=*/nullptr, refine);
  }

  const std::vector<int> predicted = refined.Predict(incremental.features);
  for (size_t i : labeled) {
    if (high[i] || predicted[i] == incremental.observed_labels[i]) {
      result.clean_indices.push_back(i);
    } else {
      result.noisy_indices.push_back(i);
    }
  }
  return result;
}

}  // namespace enld
