#include "common/check.h"
#include "detect/builders.h"

namespace enld {
namespace detect {
namespace {

/// The paper's "Default" baseline: train the general model θ once on the
/// inventory, then flag any incremental sample with
/// argmax M(x, θ) != ỹ as noisy. Zero per-request training cost, but its
/// quality is bounded by θ's generalization to the arriving distribution.
class DefaultDetector : public NoisyLabelDetector {
 public:
  explicit DefaultDetector(const GeneralModelConfig& config)
      : config_(config) {}

  void Setup(const Dataset& inventory) override {
    general_ = InitGeneralModel(inventory, config_);
  }
  DetectionResult Detect(const Dataset& incremental) override;
  std::string name() const override { return "default"; }

 private:
  GeneralModelConfig config_;
  GeneralModel general_;
};

DetectionResult DefaultDetector::Detect(const Dataset& incremental) {
  ENLD_CHECK(general_.model != nullptr);  // Setup must run first.
  const std::vector<int> predicted =
      general_.model->Predict(incremental.features);
  return PartitionLabeled(incremental, [&](size_t i) {
    return predicted[i] != incremental.observed_labels[i];
  });
}

}  // namespace

std::unique_ptr<NoisyLabelDetector> NewDefault(const DetectorContext& context) {
  return std::make_unique<DefaultDetector>(context.general);
}

}  // namespace detect
}  // namespace enld
