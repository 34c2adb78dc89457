#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "detect/builders.h"
#include "detect/related.h"
#include "graph/knn_graph.h"
#include "knn/kdtree.h"

namespace enld {
namespace detect {
namespace {

/// Topofilter: for every arriving dataset, train a fresh model on the
/// inventory subset whose labels appear in label(D) plus D itself (the
/// paper's fairness adaptation, Section V-A4), embed D in the model's
/// latent space, build a kNN graph per observed class over D together with
/// the related inventory samples of that class, and keep the largest
/// connected component as clean; D-samples outside it are noisy.
///
/// Accurate (training-based) but pays a full training run per request —
/// the efficiency foil of Fig. 8.
class TopofilterDetector : public NoisyLabelDetector {
 public:
  explicit TopofilterDetector(const TopofilterConfig& config)
      : config_(config) {}

  // Topofilter has no pretraining stage: it trains per request. Setup only
  // retains the inventory to draw related samples from.
  void Setup(const Dataset& inventory) override {
    inventory_ = inventory;
    request_counter_ = 0;
  }
  DetectionResult Detect(const Dataset& incremental) override;
  std::string name() const override { return "topofilter"; }

 private:
  TopofilterConfig config_;
  Dataset inventory_;
  uint64_t request_counter_ = 0;
};

DetectionResult TopofilterDetector::Detect(const Dataset& incremental) {
  ENLD_CHECK(!inventory_.empty());  // Setup must run first.
  ++request_counter_;

  // Related inventory subset: samples whose observed label is in label(D).
  const std::vector<int> label_set = incremental.ObservedLabelSet();
  Dataset related = RelatedInventorySubset(inventory_, incremental);

  // Fresh training run on related ∪ D (this is the per-request cost).
  // Clean sets are collected at several evenly spaced checkpoints during
  // training — the later the checkpoint, the stronger the latent structure
  // but the more label memorization has blended mislabeled samples into
  // their observed class. A sample is clean when a majority of checkpoints
  // put it in a kept component.
  Dataset train_set = related;
  train_set.Append(incremental);
  Rng rng(config_.seed + request_counter_);
  auto model = MakeBackboneModel(config_.backbone, train_set.dim(),
                                 train_set.num_classes, rng);
  const size_t d_offset = related.size();
  const size_t checkpoints = std::max<size_t>(1, config_.checkpoints);

  // Pre-group per-class rows once; they do not change across checkpoints.
  std::vector<std::vector<size_t>> class_rows;
  class_rows.reserve(label_set.size());
  for (int y : label_set) {
    std::vector<size_t> rows;
    for (size_t i = 0; i < train_set.size(); ++i) {
      if (train_set.observed_labels[i] == y) rows.push_back(i);
    }
    class_rows.push_back(std::move(rows));
  }

  std::vector<uint32_t> clean_votes(incremental.size(), 0);
  size_t epochs_done = 0;
  for (size_t ckpt = 0; ckpt < checkpoints; ++ckpt) {
    const size_t target = config_.train.epochs * (ckpt + 1) / checkpoints;
    if (target > epochs_done) {
      TrainConfig segment = config_.train;
      segment.epochs = target - epochs_done;
      segment.seed = rng.NextUInt64();
      TrainModel(model.get(), train_set, /*validation=*/nullptr, segment);
      epochs_done = target;
    }
    const Matrix features = model->Features(train_set.features);
    for (const auto& rows : class_rows) {
      if (rows.empty()) continue;
      auto components = KnnGraphComponents(features, rows, config_.graph_k,
                                           config_.mutual_knn);
      size_t largest = 0;
      for (const auto& comp : components) {
        largest = std::max(largest, comp.size());
      }
      const double keep_threshold =
          config_.component_keep_ratio * static_cast<double>(largest);
      std::vector<bool> kept(rows.size(), false);
      for (const auto& comp : components) {
        if (static_cast<double>(comp.size()) < keep_threshold) continue;
        for (size_t pos : comp) kept[pos] = true;
      }

      // Reattachment pass: fringe points that failed the mutual-kNN
      // criterion but whose local neighbourhood lies in a kept component
      // are clean, not isolated. Genuinely isolated points (mislabeled
      // sub-clusters) have non-kept neighbourhoods and stay dropped.
      std::vector<std::pair<size_t, size_t>> sorted_rows(rows.size());
      for (size_t pos = 0; pos < rows.size(); ++pos) {
        sorted_rows[pos] = {rows[pos], pos};
      }
      std::sort(sorted_rows.begin(), sorted_rows.end());
      KdTree class_tree(features, rows);
      std::vector<bool> reattached(rows.size(), false);
      for (size_t pos = 0; pos < rows.size(); ++pos) {
        if (kept[pos] || rows[pos] < d_offset) continue;
        const auto near =
            class_tree.Nearest(features.Row(rows[pos]), config_.graph_k + 1);
        size_t kept_neighbors = 0;
        size_t counted = 0;
        for (const Neighbor& n : near) {
          auto it = std::lower_bound(
              sorted_rows.begin(), sorted_rows.end(),
              std::make_pair(n.index, size_t{0}),
              [](const auto& a, const auto& b) { return a.first < b.first; });
          const size_t other = it->second;
          if (other == pos) continue;
          ++counted;
          if (kept[other]) ++kept_neighbors;
        }
        if (counted > 0 && 2 * kept_neighbors > counted) {
          reattached[pos] = true;
        }
      }

      for (size_t pos = 0; pos < rows.size(); ++pos) {
        if (!kept[pos] && !reattached[pos]) continue;
        const size_t row = rows[pos];
        if (row >= d_offset) ++clean_votes[row - d_offset];
      }
    }
  }

  const uint32_t majority = static_cast<uint32_t>(checkpoints / 2 + 1);
  return PartitionLabeled(
      incremental, [&](size_t i) { return clean_votes[i] < majority; });
}

}  // namespace

std::unique_ptr<NoisyLabelDetector> NewTopofilter(
    const DetectorContext& context) {
  return std::make_unique<TopofilterDetector>(context.topofilter);
}

}  // namespace detect
}  // namespace enld
