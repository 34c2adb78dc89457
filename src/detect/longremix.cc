#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "detect/builders.h"
#include "nn/loss.h"

namespace enld {
namespace detect {
namespace {

/// LongReMix-style detection (after Cordeiro et al. 2023's two-stage
/// "high-confidence seed then expand" scheme): judge D against a general
/// model trained once on the inventory, seed a high-confidence clean set
/// with the samples the model agrees with at small loss (per-class
/// lowest-loss fallback so no observed class starts empty), then
/// alternately fine-tune a copy of the model on the seed and admit
/// samples it newly agrees with. D-samples never admitted across all
/// rounds are flagged noisy.
///
/// The conservative counterpoint to threshold detectors: precision comes
/// from seeding strictly, recall from the expansion rounds.
class LongRemixDetector : public NoisyLabelDetector {
 public:
  LongRemixDetector(const GeneralModelConfig& general,
                    const LongRemixConfig& config)
      : general_config_(general), config_(config) {}

  void Setup(const Dataset& inventory) override {
    general_ = InitGeneralModel(inventory, general_config_);
    request_counter_ = 0;
  }
  DetectionResult Detect(const Dataset& incremental) override;
  std::string name() const override { return "longremix"; }

 private:
  GeneralModelConfig general_config_;
  LongRemixConfig config_;
  GeneralModel general_;
  uint64_t request_counter_ = 0;
};

DetectionResult LongRemixDetector::Detect(const Dataset& incremental) {
  ENLD_CHECK(general_.model != nullptr);  // Setup must run first.
  ++request_counter_;
  Rng rng(config_.seed + request_counter_);

  std::vector<size_t> labeled;
  for (size_t i = 0; i < incremental.size(); ++i) {
    if (incremental.observed_labels[i] != kMissingLabel) labeled.push_back(i);
  }
  if (labeled.empty()) return DetectionResult();

  Matrix logits;
  general_.model->Forward(incremental.features, &logits);
  const std::vector<double> losses =
      PerSampleCrossEntropy(logits, incremental.observed_labels);
  std::vector<int> predicted = general_.model->Predict(incremental.features);

  // High-confidence seed: the general model agrees with the observed
  // label AND the loss lands in the small-loss cluster.
  std::vector<double> labeled_losses;
  labeled_losses.reserve(labeled.size());
  for (size_t i : labeled) labeled_losses.push_back(losses[i]);
  const double loss_cut = TwoMeansThreshold(labeled_losses);
  std::vector<uint8_t> admitted(incremental.size(), 0);
  for (size_t i : labeled) {
    if (predicted[i] == incremental.observed_labels[i] &&
        losses[i] <= loss_cut) {
      admitted[i] = 1;
    }
  }

  // Per-class fallback: a class whose seed came out empty gets its
  // lowest-loss `seed_fraction` instead, so expansion can reach it at all.
  for (int label : incremental.ObservedLabelSet()) {
    std::vector<size_t> members;
    bool has_seed = false;
    for (size_t i : labeled) {
      if (incremental.observed_labels[i] != label) continue;
      members.push_back(i);
      if (admitted[i]) has_seed = true;
    }
    if (has_seed || members.empty()) continue;
    const size_t take = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(config_.seed_fraction * members.size())));
    std::partial_sort(members.begin(),
                      members.begin() + std::min(take, members.size()),
                      members.end(), [&](size_t a, size_t b) {
                        return losses[a] < losses[b];
                      });
    for (size_t j = 0; j < std::min(take, members.size()); ++j) {
      admitted[members[j]] = 1;
    }
  }

  // Expansion rounds: fine-tune a copy of the general model on the
  // current seed, then admit samples it now agrees with. Monotone —
  // nothing is evicted. The copy keeps the inventory-trained general
  // model untouched for later requests.
  MlpModel refined(general_.model->layer_dims(), rng);
  refined.SetWeights(general_.model->GetWeights());
  for (size_t round = 0; round < config_.iterations; ++round) {
    std::vector<size_t> seed_positions;
    for (size_t i : labeled) {
      if (admitted[i]) seed_positions.push_back(i);
    }
    if (seed_positions.empty() || seed_positions.size() == labeled.size()) {
      break;
    }
    if (config_.refine_epochs > 0) {
      const Dataset seed_set = incremental.Subset(seed_positions);
      TrainConfig refine;
      refine.epochs = config_.refine_epochs;
      refine.batch_size = general_config_.train.batch_size;
      refine.sgd.learning_rate =
          general_config_.train.sgd.learning_rate * 0.2;
      refine.sgd.weight_decay = general_config_.train.sgd.weight_decay;
      refine.seed = rng.NextUInt64();
      TrainModel(&refined, seed_set, /*validation=*/nullptr, refine);
    }
    const std::vector<int> updated = refined.Predict(incremental.features);
    for (size_t i : labeled) {
      if (!admitted[i] && updated[i] == incremental.observed_labels[i]) {
        admitted[i] = 1;
      }
    }
  }

  return PartitionLabeled(incremental, [&](size_t i) { return !admitted[i]; });
}

}  // namespace

std::unique_ptr<NoisyLabelDetector> NewLongRemix(
    const DetectorContext& context) {
  return std::make_unique<LongRemixDetector>(context.general,
                                             context.longremix);
}

}  // namespace detect
}  // namespace enld
