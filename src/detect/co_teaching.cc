#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "detect/builders.h"
#include "detect/related.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace enld {
namespace detect {
namespace {

/// Co-teaching: two networks train simultaneously on the related inventory
/// subset + D; in every batch each network selects its smallest-loss
/// samples and the *peer* updates on them, so the two networks filter each
/// other's noise. A sample of D is flagged noisy when both trained networks
/// disagree with its observed label.
class CoTeachingDetector : public NoisyLabelDetector {
 public:
  explicit CoTeachingDetector(const CoTeachingConfig& config)
      : config_(config) {}

  void Setup(const Dataset& inventory) override {
    inventory_ = inventory;
    request_counter_ = 0;
  }
  DetectionResult Detect(const Dataset& incremental) override;
  std::string name() const override { return "coteaching"; }

 private:
  CoTeachingConfig config_;
  Dataset inventory_;
  uint64_t request_counter_ = 0;
};

/// Gathers rows of `source` into a batch matrix plus the matching one-hot
/// targets.
void GatherBatch(const Dataset& source, const std::vector<size_t>& rows,
                 Matrix* inputs, Matrix* targets) {
  const size_t dim = source.dim();
  inputs->Reset(rows.size(), dim);
  targets->Reset(rows.size(), source.num_classes);
  for (size_t b = 0; b < rows.size(); ++b) {
    const float* src = source.features.Row(rows[b]);
    std::copy(src, src + dim, inputs->Row(b));
    (*targets)(b, source.observed_labels[rows[b]]) = 1.0f;
  }
}

/// Positions (into `rows`) of the `keep` smallest values.
std::vector<size_t> SmallestPositions(const std::vector<double>& values,
                                      size_t keep) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  keep = std::min(keep, order.size());
  std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                    [&](size_t a, size_t b) { return values[a] < values[b]; });
  order.resize(keep);
  return order;
}

DetectionResult CoTeachingDetector::Detect(const Dataset& incremental) {
  ENLD_CHECK(!inventory_.empty());  // Setup must run first.
  ++request_counter_;

  Dataset train_set = RelatedInventorySubset(inventory_, incremental);
  train_set.Append(incremental);

  Rng rng(config_.seed + request_counter_);
  auto model_a = MakeBackboneModel(config_.backbone, train_set.dim(),
                                   train_set.num_classes, rng);
  auto model_b = MakeBackboneModel(config_.backbone, train_set.dim(),
                                   train_set.num_classes, rng);
  SgdOptimizer optimizer_a(
      {config_.learning_rate, 0.9, config_.weight_decay});
  SgdOptimizer optimizer_b(
      {config_.learning_rate, 0.9, config_.weight_decay});

  // Trainable positions (observed label present).
  std::vector<size_t> positions;
  for (size_t i = 0; i < train_set.size(); ++i) {
    if (train_set.observed_labels[i] != kMissingLabel) positions.push_back(i);
  }
  if (positions.empty()) return DetectionResult();

  double forget_rate = config_.forget_rate;
  Matrix batch_x, batch_y, logits;
  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    // R(t): keep everything at first, then anneal down to 1 - forget_rate.
    double keep_fraction = 1.0;
    if (forget_rate >= 0.0 && config_.anneal_epochs > 0) {
      const double anneal = std::min(
          1.0, static_cast<double>(epoch) /
                   static_cast<double>(config_.anneal_epochs));
      keep_fraction = 1.0 - forget_rate * anneal;
    }

    rng.Shuffle(positions);
    std::vector<double> first_epoch_losses;
    for (size_t start = 0; start < positions.size();
         start += config_.batch_size) {
      const size_t count =
          std::min(config_.batch_size, positions.size() - start);
      std::vector<size_t> batch(positions.begin() + start,
                                positions.begin() + start + count);
      GatherBatch(train_set, batch, &batch_x, &batch_y);

      // Each network scores the batch; the peer updates on the selection.
      std::vector<int> batch_labels(count);
      for (size_t b = 0; b < count; ++b) {
        batch_labels[b] = train_set.observed_labels[batch[b]];
      }
      model_a->Forward(batch_x, &logits);
      const auto loss_a = PerSampleCrossEntropy(logits, batch_labels);
      model_b->Forward(batch_x, &logits);
      const auto loss_b = PerSampleCrossEntropy(logits, batch_labels);

      if (epoch == 0 && forget_rate < 0.0) {
        first_epoch_losses.insert(first_epoch_losses.end(), loss_a.begin(),
                                  loss_a.end());
      }

      const size_t keep = std::max<size_t>(
          1, static_cast<size_t>(std::lround(keep_fraction * count)));
      const auto pick_a = SmallestPositions(loss_a, keep);  // For B.
      const auto pick_b = SmallestPositions(loss_b, keep);  // For A.

      Matrix sel_x, sel_y;
      std::vector<size_t> selected_rows;
      selected_rows.reserve(keep);
      for (size_t p : pick_b) selected_rows.push_back(batch[p]);
      GatherBatch(train_set, selected_rows, &sel_x, &sel_y);
      model_a->TrainStep(sel_x, sel_y, &optimizer_a);

      selected_rows.clear();
      for (size_t p : pick_a) selected_rows.push_back(batch[p]);
      GatherBatch(train_set, selected_rows, &sel_x, &sel_y);
      model_b->TrainStep(sel_x, sel_y, &optimizer_b);
    }

    if (epoch == 0 && forget_rate < 0.0 && !first_epoch_losses.empty()) {
      // Self-estimate the forget rate: the fraction of samples in the
      // high-loss cluster of the first epoch.
      const double threshold = TwoMeansThreshold(first_epoch_losses);
      size_t high = 0;
      for (double v : first_epoch_losses) {
        if (v > threshold) ++high;
      }
      forget_rate = std::min(
          0.5, static_cast<double>(high) / first_epoch_losses.size());
    }
  }

  // A sample is noisy when both networks disagree with the observed label.
  const std::vector<int> pred_a = model_a->Predict(incremental.features);
  const std::vector<int> pred_b = model_b->Predict(incremental.features);
  return PartitionLabeled(incremental, [&](size_t i) {
    const int observed = incremental.observed_labels[i];
    return pred_a[i] != observed && pred_b[i] != observed;
  });
}

}  // namespace

std::unique_ptr<NoisyLabelDetector> NewCoTeaching(
    const DetectorContext& context) {
  return std::make_unique<CoTeachingDetector>(context.coteaching);
}

}  // namespace detect
}  // namespace enld
