#include <algorithm>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "detect/builders.h"
#include "nn/loss.h"

namespace enld {
namespace detect {
namespace {

/// Probe ranking: train a probe on the inventory, keeping the weights of
/// the last `checkpoints` epochs, then score every arriving D-sample by
/// its *mean* cross-entropy across those checkpoints (mislabeled samples
/// stay hard across the trajectory; a single final snapshot is noisier).
/// Instead of a fixed cut, the detector sweeps `sweep_points` candidate
/// thresholds over the ranked losses and keeps the one maximizing the
/// between-class variance (Otsu's criterion) — a noise-rate-free split
/// that adapts to each arriving dataset.
///
/// The O2U family's loss-tracking signal with a sweep in place of
/// 2-means; the two disagree exactly when the loss histogram is skewed,
/// which is what the detector matrix surfaces.
class ProbeDetector : public NoisyLabelDetector {
 public:
  ProbeDetector(const GeneralModelConfig& general, const ProbeConfig& config)
      : general_(general), config_(config) {}

  void Setup(const Dataset& inventory) override;
  DetectionResult Detect(const Dataset& incremental) override;
  std::string name() const override { return "probe"; }

 private:
  /// Backbone, training schedule and seed of the probe.
  GeneralModelConfig general_;
  ProbeConfig config_;
  std::unique_ptr<MlpModel> probe_;
  /// Weight snapshots of the last `checkpoints` training epochs, oldest
  /// first (the last entry is the final trained state).
  std::vector<std::vector<float>> checkpoints_;
};

/// Otsu's criterion over 1-D values: the split (among `points` quantile
/// positions of the sorted values) maximizing w0 * w1 * (mu0 - mu1)^2.
/// Quantile candidates — rather than an evenly spaced grid over
/// [min, max] — keep the sweep meaningful for the right-skewed loss
/// distributions training produces, where a grid would spend most
/// candidates inside the empty tail gap. Returns the midpoint of the
/// range when the values are degenerate.
double BetweenClassVarianceThreshold(const std::vector<double>& values,
                                     size_t points) {
  ENLD_CHECK(!values.empty());
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  if (sorted.front() >= sorted.back() || points < 2 || n < 2) {
    return (sorted.front() + sorted.back()) / 2.0;
  }

  // Prefix sums make each candidate split O(1).
  std::vector<double> prefix(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + sorted[i];

  double best_threshold = (sorted.front() + sorted.back()) / 2.0;
  double best_score = -1.0;
  for (size_t p = 1; p < points; ++p) {
    // Split below the p-th `points`-quantile: low cluster = sorted[0..k).
    const size_t k = std::max<size_t>(1, std::min(n - 1, p * n / points));
    if (sorted[k - 1] >= sorted[k]) continue;  // No separating midpoint.
    const double w0 = static_cast<double>(k) / n;
    const double w1 = 1.0 - w0;
    const double mu0 = prefix[k] / k;
    const double mu1 = (prefix[n] - prefix[k]) / (n - k);
    const double score = w0 * w1 * (mu1 - mu0) * (mu1 - mu0);
    if (score > best_score) {
      best_score = score;
      best_threshold = (sorted[k - 1] + sorted[k]) / 2.0;
    }
  }
  return best_threshold;
}

void ProbeDetector::Setup(const Dataset& inventory) {
  ENLD_CHECK(!inventory.empty());
  const size_t total = std::max<size_t>(1, general_.train.epochs);
  const size_t tracked =
      std::min(std::max<size_t>(1, config_.checkpoints), total);

  Rng rng(general_.seed);
  probe_ = MakeBackboneModel(general_.backbone, inventory.dim(),
                             inventory.num_classes, rng);
  checkpoints_.clear();
  // Epoch-at-a-time training so the trailing epochs can be snapshotted.
  // lr_decay_per_epoch is applied manually across the single-epoch calls.
  TrainConfig step = general_.train;
  step.epochs = 1;
  for (size_t epoch = 0; epoch < total; ++epoch) {
    step.seed = rng.NextUInt64();
    TrainModel(probe_.get(), inventory, /*validation=*/nullptr, step);
    step.sgd.learning_rate *= step.lr_decay_per_epoch;
    if (epoch + tracked >= total) checkpoints_.push_back(probe_->GetWeights());
  }
}

DetectionResult ProbeDetector::Detect(const Dataset& incremental) {
  ENLD_CHECK(probe_ != nullptr);  // Setup must run first.
  ENLD_CHECK(!checkpoints_.empty());

  // Trajectory score: mean loss across the checkpoint snapshots.
  std::vector<double> tracked(incremental.size(), 0.0);
  for (const std::vector<float>& weights : checkpoints_) {
    probe_->SetWeights(weights);
    Matrix logits;
    probe_->Forward(incremental.features, &logits);
    const std::vector<double> losses =
        PerSampleCrossEntropy(logits, incremental.observed_labels);
    for (size_t i = 0; i < incremental.size(); ++i) tracked[i] += losses[i];
  }
  // Leave the probe in its final trained state for the next request.
  probe_->SetWeights(checkpoints_.back());

  std::vector<double> labeled_losses;
  for (size_t i = 0; i < incremental.size(); ++i) {
    tracked[i] /= static_cast<double>(checkpoints_.size());  // The mean.
    if (incremental.observed_labels[i] == kMissingLabel) continue;
    labeled_losses.push_back(tracked[i]);
  }

  if (labeled_losses.empty()) return DetectionResult();
  const double threshold =
      BetweenClassVarianceThreshold(labeled_losses, config_.sweep_points);
  return PartitionLabeled(
      incremental, [&](size_t i) { return tracked[i] > threshold; });
}

}  // namespace

std::unique_ptr<NoisyLabelDetector> NewProbe(const DetectorContext& context) {
  return std::make_unique<ProbeDetector>(context.general, context.probe);
}

}  // namespace detect
}  // namespace enld
