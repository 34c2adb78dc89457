#ifndef ENLD_ENLD_FRAMEWORK_H_
#define ENLD_ENLD_FRAMEWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/detector.h"
#include "common/rng.h"
#include "common/status.h"
#include "enld/config.h"
#include "enld/feature_cache.h"
#include "nn/confident_joint.h"
#include "nn/general_model.h"

namespace enld {

/// The complete restorable state of an EnldFramework, as captured by
/// CaptureState and persisted by the durable store (src/store/): the
/// general model θ (architecture + weights), the I_t / I_c split, P̃, the
/// accumulated S_c membership and the RNG stream position. Restoring this
/// state into a framework built from the same EnldConfig reproduces the
/// byte-exact behaviour of the original instance for all future calls.
///
/// I_t and I_c are shared, not copied: the framework never mutates a
/// dataset it holds (UpdateModel swaps the two pointers), so a captured
/// state stays valid while the framework moves on.
struct EnldFrameworkState {
  std::vector<size_t> model_dims;
  std::vector<float> model_weights;
  std::shared_ptr<const Dataset> train_set;      // I_t.
  std::shared_ptr<const Dataset> candidate_set;  // I_c.
  /// P̃(y* = j | ỹ = i), square over all classes.
  std::vector<std::vector<double>> conditional;
  /// S_c membership (0/1), parallel to candidate_set.
  std::vector<uint8_t> selected_clean;
  RngState rng;
};

/// The ENLD framework (Algorithm 1): one-time model initialization and
/// probability estimation on the inventory, then per-arriving-dataset
/// fine-grained detection with contrastive sampling, plus the optional
/// model-update process (Algorithm 4).
///
/// Usage:
///   EnldFramework enld(config);
///   enld.Setup(inventory);                  // Stage 0.
///   for (const Dataset& d : arriving) {
///     DetectionResult r = enld.Detect(d);   // Stage 1 per dataset.
///   }
///   enld.UpdateModel();                     // Optional refresh.
class EnldFramework : public NoisyLabelDetector {
 public:
  explicit EnldFramework(const EnldConfig& config);

  /// Splits I into I_t / I_c, trains the general model θ on I_t with
  /// mixup, and estimates P̃(y* = j | ỹ = i) on I_c (Section IV-B).
  void Setup(const Dataset& inventory) override;

  /// Fine-grained noisy-label detection on one arriving dataset. Fine-tunes
  /// a *copy* of θ; the general model itself only changes via UpdateModel.
  /// Also accumulates the inventory clean-selection S_c.
  DetectionResult Detect(const Dataset& incremental) override;

  std::string name() const override {
    return SamplingPolicyKey(config_.policy);
  }
  std::string display_name() const override {
    return SamplingPolicyName(config_.policy);
  }

  /// Algorithm 4: retrains the general model on the accumulated S_c, swaps
  /// I_t and I_c, and re-estimates P̃ on the new candidate set. Fails with
  /// FailedPrecondition when no clean inventory samples have been selected
  /// yet (run Detect first).
  Status UpdateModel();

  /// The general model θ (valid after Setup).
  MlpModel* general_model() { return model_.get(); }
  /// The candidate set I_c (valid after Setup).
  const Dataset& candidate_set() const { return *candidate_set_; }
  /// The training set I_t (valid after Setup).
  const Dataset& train_set() const { return *train_set_; }
  /// P̃(y* = j | ỹ = i), row i = observed label.
  const std::vector<std::vector<double>>& conditional() const {
    return conditional_;
  }
  /// Number of inventory samples currently in S_c.
  size_t selected_clean_count() const;
  /// Positions of S_c inside candidate_set().
  std::vector<size_t> selected_clean_positions() const;

  const EnldConfig& config() const { return config_; }

  /// The cross-request feature/KNN-index cache. Its model version bumps on
  /// Setup, UpdateModel, RestoreState and InvalidateFeatureCache; Detect
  /// passes it to the fine-grained run when `feature_cache_enabled()`.
  const FeatureCache& feature_cache() const { return feature_cache_; }

  /// True when EnldConfig::use_feature_cache is set and the
  /// ENLD_FEATURE_CACHE env var (read at construction) does not disable it.
  bool feature_cache_enabled() const { return feature_cache_enabled_; }

  /// Explicit ops-level invalidation: drops every cached entry and bumps
  /// the model version. Never changes detection output — only whether the
  /// next request recomputes its view/index.
  void InvalidateFeatureCache() { feature_cache_.BumpModelVersion(); }

  /// Captures the complete framework state for snapshotting: the model,
  /// P̃, S_c and RNG are copied, I_t and I_c shared. Requires Setup (or
  /// RestoreState) to have run.
  EnldFrameworkState CaptureState() const;

  /// Replaces the framework's state with a previously captured one,
  /// skipping Setup entirely. Validates the state first and fails with
  /// InvalidArgument — leaving the framework untouched — on any
  /// inconsistency (a null dataset, mismatched column lengths, weight
  /// counts, a non-square P̃, a degenerate RNG state).
  Status RestoreState(EnldFrameworkState state);

 private:
  EnldConfig config_;
  std::unique_ptr<MlpModel> model_;                // θ.
  std::shared_ptr<const Dataset> train_set_;      // I_t.
  std::shared_ptr<const Dataset> candidate_set_;  // I_c.
  std::vector<std::vector<double>> conditional_;
  /// S_c membership, parallel to candidate_set_.
  std::vector<bool> selected_clean_;
  Rng rng_;
  FeatureCache feature_cache_;
  bool feature_cache_enabled_ = true;
};

}  // namespace enld

#endif  // ENLD_ENLD_FRAMEWORK_H_
