#ifndef ENLD_ENLD_FEATURE_CACHE_H_
#define ENLD_ENLD_FEATURE_CACHE_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "data/dataset.h"
#include "nn/mlp.h"

namespace enld {

/// Model outputs over a fixed dataset: softmax probabilities, penultimate
/// features and the argmax prediction per row.
struct ModelView {
  Matrix probs;
  Matrix features;
  std::vector<int> predicted;

  bool empty() const { return predicted.empty(); }
};

/// Computes the view (forward pass + softmax + parallel argmax). Every row
/// of every member depends only on the same row of `dataset` — the MLP has
/// no cross-row coupling at inference — so a view over a subset of rows
/// equals the row-selection of the full view, bit for bit. FeatureCache
/// relies on exactly this property.
ModelView ComputeModelView(MlpModel* model, const Dataset& dataset);

/// Selects rows of a full view: result row i == full row rows[i], bitwise
/// (see the row-independence note on ComputeModelView).
ModelView SelectViewRows(const ModelView& full, const std::vector<size_t>& rows);

/// Cross-request memo for the fine-grained hot path (Algorithm 3): the
/// candidate inventory I_c is fixed between trainer updates, yet every
/// request used to recompute its full forward pass. The cache keeps the
/// full candidate-set ModelView, keyed on the model version — a counter
/// bumped only by trainer updates (EnldFramework::Setup / UpdateModel /
/// RestoreState, or an explicit InvalidateFeatureCache). Fine-grained
/// detection consults the cache only while its per-request model copy is
/// still at the cached version — the first fine-tune step marks it dirty
/// and everything recomputes — so detection output is bitwise identical
/// with the cache on or off (docs/ARCHITECTURE.md, "FeatureCache
/// invalidation contract").
///
/// Not thread-safe: the request pipeline serializes detections through a
/// single dispatcher, and the framework owns exactly one cache.
class FeatureCache {
 public:
  struct Stats {
    uint64_t view_hits = 0;
    uint64_t view_misses = 0;
    uint64_t invalidations = 0;
  };

  FeatureCache();

  /// Current model version. Entries are only served at this version.
  uint64_t model_version() const { return model_version_; }

  /// Invalidates everything: bumps the version and drops the cached view.
  /// Counts an invalidation only when a view was actually dropped.
  void BumpModelVersion();

  /// Cached full candidate view for `version`, or nullptr. Counts hit/miss.
  const ModelView* FindView(uint64_t version);

  /// Stores the view for `version` (replacing any previous) and returns a
  /// stable pointer to the stored copy.
  const ModelView* StoreView(uint64_t version, ModelView view);

  const Stats& stats() const { return stats_; }

 private:
  uint64_t model_version_ = 1;
  bool has_view_ = false;
  uint64_t view_version_ = 0;
  ModelView view_;
  Stats stats_;
};

}  // namespace enld

#endif  // ENLD_ENLD_FEATURE_CACHE_H_
