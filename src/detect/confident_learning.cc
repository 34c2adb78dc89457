#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "detect/builders.h"
#include "nn/confident_joint.h"

namespace enld {
namespace detect {
namespace {

/// The two pruning rules of Confident Learning (Northcutt et al. 2021)
/// the paper reports as CL-1 and CL-2.
enum class ClVariant {
  /// Prune-by-class: per observed class i, remove the n_i least
  /// self-confident samples, n_i = estimated off-diagonal mass of row i.
  kPruneByClass,
  /// Prune-by-noise-rate: per off-diagonal cell (i, j), remove the
  /// J[i][j]-proportional count of samples observed as i with the largest
  /// margin toward class j.
  kPruneByNoiseRate,
};

/// Confident Learning baseline: uses the pretrained general model's softmax
/// outputs, re-estimating the confident joint over I_c together with the
/// arriving dataset (the paper's adaptation, Section V-A4), then pruning
/// the arriving samples by the selected rule. No per-request training.
class ConfidentLearningDetector : public NoisyLabelDetector {
 public:
  ConfidentLearningDetector(const GeneralModelConfig& config,
                            ClVariant variant)
      : config_(config), variant_(variant) {}

  void Setup(const Dataset& inventory) override {
    general_ = InitGeneralModel(inventory, config_);
  }
  DetectionResult Detect(const Dataset& incremental) override;
  std::string name() const override {
    return variant_ == ClVariant::kPruneByClass ? "cl1" : "cl2";
  }

 private:
  GeneralModelConfig config_;
  ClVariant variant_;
  GeneralModel general_;
};

DetectionResult ConfidentLearningDetector::Detect(
    const Dataset& incremental) {
  ENLD_CHECK(general_.model != nullptr);  // Setup must run first.
  MlpModel* model = general_.model.get();

  // Estimate the confident joint over I_c together with the arriving
  // dataset (Section V-A4: "validate on I_c together with D_i").
  Dataset combined = general_.candidate_set;
  combined.Append(incremental);
  const JointCounts joint = EstimateConfidentJoint(model, combined);

  const Matrix probs = model->Probabilities(incremental.features);
  const int classes = incremental.num_classes;

  std::vector<bool> is_noisy(incremental.size(), false);

  // Positions of D grouped by observed class.
  std::vector<std::vector<size_t>> by_class(classes);
  for (size_t i = 0; i < incremental.size(); ++i) {
    const int y = incremental.observed_labels[i];
    if (y != kMissingLabel) by_class[y].push_back(i);
  }

  for (int i = 0; i < classes; ++i) {
    if (by_class[i].empty()) continue;
    double row_sum = 0.0;
    for (int j = 0; j < classes; ++j) row_sum += joint[i][j];
    if (row_sum <= 0.0) continue;

    if (variant_ == ClVariant::kPruneByClass) {
      // Remove the n_i least self-confident samples of class i, where n_i
      // is the estimated off-diagonal fraction of the row.
      const double noise_frac = (row_sum - joint[i][i]) / row_sum;
      const size_t n_i = static_cast<size_t>(
          std::lround(noise_frac * static_cast<double>(by_class[i].size())));
      if (n_i == 0) continue;
      std::vector<size_t> order = by_class[i];
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return probs(a, i) < probs(b, i);
      });
      for (size_t r = 0; r < std::min(n_i, order.size()); ++r) {
        is_noisy[order[r]] = true;
      }
    } else {
      // Per off-diagonal cell (i, j): remove the n_ij samples of class i
      // with the largest margin toward class j.
      for (int j = 0; j < classes; ++j) {
        if (j == i) continue;
        const size_t n_ij = static_cast<size_t>(std::lround(
            joint[i][j] / row_sum * static_cast<double>(by_class[i].size())));
        if (n_ij == 0) continue;
        std::vector<size_t> order = by_class[i];
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return probs(a, j) - probs(a, i) > probs(b, j) - probs(b, i);
        });
        for (size_t r = 0; r < std::min(n_ij, order.size()); ++r) {
          is_noisy[order[r]] = true;
        }
      }
    }
  }

  return PartitionLabeled(incremental, [&](size_t i) { return is_noisy[i]; });
}

}  // namespace

std::unique_ptr<NoisyLabelDetector> NewCl1(const DetectorContext& context) {
  return std::make_unique<ConfidentLearningDetector>(
      context.general, ClVariant::kPruneByClass);
}

std::unique_ptr<NoisyLabelDetector> NewCl2(const DetectorContext& context) {
  return std::make_unique<ConfidentLearningDetector>(
      context.general, ClVariant::kPruneByNoiseRate);
}

}  // namespace detect
}  // namespace enld
