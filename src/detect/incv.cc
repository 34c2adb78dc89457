#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "detect/builders.h"
#include "detect/related.h"

namespace enld {
namespace detect {
namespace {

/// INCV (Iterative Noisy Cross-Validation): randomly split the data into
/// two halves; train on one half, keep in the *other* half the samples the
/// model agrees with; swap roles; iterate on the kept set. Samples of D
/// never kept by the cross-validation are flagged noisy.
class IncvDetector : public NoisyLabelDetector {
 public:
  explicit IncvDetector(const IncvConfig& config) : config_(config) {}

  void Setup(const Dataset& inventory) override {
    inventory_ = inventory;
    request_counter_ = 0;
  }
  DetectionResult Detect(const Dataset& incremental) override;
  std::string name() const override { return "incv"; }

 private:
  IncvConfig config_;
  Dataset inventory_;
  uint64_t request_counter_ = 0;
};

DetectionResult IncvDetector::Detect(const Dataset& incremental) {
  ENLD_CHECK(!inventory_.empty());  // Setup must run first.
  ENLD_CHECK_GT(config_.iterations, 0u);
  ++request_counter_;

  Dataset train_set = RelatedInventorySubset(inventory_, incremental);
  const size_t d_offset = train_set.size();
  train_set.Append(incremental);

  Rng rng(config_.seed + request_counter_);

  std::vector<size_t> labeled;
  for (size_t i = 0; i < train_set.size(); ++i) {
    if (train_set.observed_labels[i] != kMissingLabel) labeled.push_back(i);
  }
  if (labeled.size() < 4) {
    // Too small to cross-validate; everything stays unjudged -> noisy.
    return PartitionLabeled(incremental, [](size_t) { return true; });
  }

  std::vector<size_t> selection = labeled;
  for (size_t iter = 0; iter < config_.iterations; ++iter) {
    // Split the current selection into two training halves.
    rng.Shuffle(selection);
    const size_t half = selection.size() / 2;
    std::vector<size_t> half_a(selection.begin(), selection.begin() + half);
    std::vector<size_t> half_b(selection.begin() + half, selection.end());
    if (half_a.empty() || half_b.empty()) break;

    std::vector<int> membership(train_set.size(), 0);  // 0=out, 1=A, 2=B.
    for (size_t pos : half_a) membership[pos] = 1;
    for (size_t pos : half_b) membership[pos] = 2;

    Rng model_rng = rng.Fork();
    auto model_a = MakeBackboneModel(config_.backbone, train_set.dim(),
                                     train_set.num_classes, model_rng);
    auto model_b = MakeBackboneModel(config_.backbone, train_set.dim(),
                                     train_set.num_classes, model_rng);
    TrainConfig train = config_.train;
    train.seed = rng.NextUInt64();
    TrainModel(model_a.get(), train_set.Subset(half_a), nullptr, train);
    train.seed = rng.NextUInt64();
    TrainModel(model_b.get(), train_set.Subset(half_b), nullptr, train);

    const std::vector<int> pred_a = model_a->Predict(train_set.features);
    const std::vector<int> pred_b = model_b->Predict(train_set.features);

    // Cross-validated keep rule: a sample is judged by the model that did
    // NOT train on it; dropped samples can be re-admitted when both models
    // agree with their label.
    std::vector<size_t> next;
    next.reserve(labeled.size());
    for (size_t pos : labeled) {
      const int observed = train_set.observed_labels[pos];
      bool keep = false;
      switch (membership[pos]) {
        case 1:
          keep = pred_b[pos] == observed;
          break;
        case 2:
          keep = pred_a[pos] == observed;
          break;
        default:
          keep = pred_a[pos] == observed && pred_b[pos] == observed;
          break;
      }
      if (keep) next.push_back(pos);
    }
    if (next.size() < 4) break;  // Degenerate; keep previous selection.
    selection = std::move(next);
  }

  std::vector<bool> selected(train_set.size(), false);
  for (size_t pos : selection) selected[pos] = true;

  return PartitionLabeled(
      incremental, [&](size_t i) { return !selected[d_offset + i]; });
}

}  // namespace

std::unique_ptr<NoisyLabelDetector> NewIncv(const DetectorContext& context) {
  return std::make_unique<IncvDetector>(context.incv);
}

}  // namespace detect
}  // namespace enld
