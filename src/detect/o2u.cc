#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "detect/builders.h"
#include "detect/related.h"
#include "nn/loss.h"

namespace enld {
namespace detect {
namespace {

/// O2U-Net: train on the related inventory subset + D with a cyclical
/// learning rate and record every sample's loss after each epoch. Samples
/// whose *mean tracked loss* lands in the high cluster of a 1-D 2-means
/// split are flagged noisy (mislabeled samples stay hard through the
/// oscillation, so their average loss stays high).
///
/// Another training-per-request method: accuracy from training, process
/// cost comparable to Topofilter.
class O2UDetector : public NoisyLabelDetector {
 public:
  explicit O2UDetector(const O2UConfig& config) : config_(config) {}

  void Setup(const Dataset& inventory) override {
    inventory_ = inventory;
    request_counter_ = 0;
  }
  DetectionResult Detect(const Dataset& incremental) override;
  std::string name() const override { return "o2u"; }

 private:
  O2UConfig config_;
  Dataset inventory_;
  uint64_t request_counter_ = 0;
};

DetectionResult O2UDetector::Detect(const Dataset& incremental) {
  ENLD_CHECK(!inventory_.empty());  // Setup must run first.
  ENLD_CHECK_GT(config_.cycles, 0u);
  ENLD_CHECK_GT(config_.epochs_per_cycle, 0u);
  ++request_counter_;

  Dataset train_set = RelatedInventorySubset(inventory_, incremental);
  train_set.Append(incremental);

  Rng rng(config_.seed + request_counter_);
  auto model = MakeBackboneModel(config_.backbone, train_set.dim(),
                                 train_set.num_classes, rng);

  // Tracked mean loss per D sample across all post-epoch snapshots.
  std::vector<double> tracked(incremental.size(), 0.0);
  size_t snapshots = 0;
  const std::vector<int>& d_labels = incremental.observed_labels;

  for (size_t cycle = 0; cycle < config_.cycles; ++cycle) {
    for (size_t epoch = 0; epoch < config_.epochs_per_cycle; ++epoch) {
      // Cyclical schedule: linear decay within the cycle, reset at the
      // start of the next one.
      const double progress =
          config_.epochs_per_cycle <= 1
              ? 0.0
              : static_cast<double>(epoch) /
                    static_cast<double>(config_.epochs_per_cycle - 1);
      TrainConfig step;
      step.epochs = 1;
      step.batch_size = config_.batch_size;
      step.sgd.learning_rate =
          config_.lr_max + (config_.lr_min - config_.lr_max) * progress;
      step.sgd.weight_decay = config_.weight_decay;
      step.seed = rng.NextUInt64();
      TrainModel(model.get(), train_set, /*validation=*/nullptr, step);

      Matrix logits;
      model->Forward(incremental.features, &logits);
      const std::vector<double> losses =
          PerSampleCrossEntropy(logits, d_labels);
      for (size_t i = 0; i < incremental.size(); ++i) {
        tracked[i] += losses[i];
      }
      ++snapshots;
    }
  }

  std::vector<double> labeled_losses;
  for (size_t i = 0; i < incremental.size(); ++i) {
    tracked[i] /= static_cast<double>(snapshots);  // The mean.
    if (incremental.observed_labels[i] == kMissingLabel) continue;
    labeled_losses.push_back(tracked[i]);
  }

  if (labeled_losses.empty()) return DetectionResult();
  const double threshold = TwoMeansThreshold(labeled_losses);
  return PartitionLabeled(
      incremental, [&](size_t i) { return tracked[i] > threshold; });
}

}  // namespace

std::unique_ptr<NoisyLabelDetector> NewO2U(const DetectorContext& context) {
  return std::make_unique<O2UDetector>(context.o2u);
}

}  // namespace detect
}  // namespace enld
