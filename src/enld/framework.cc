#include "enld/framework.h"

#include <cmath>

#include "common/check.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "enld/fine_grained.h"
#include "nn/trainer.h"

namespace enld {

namespace {

/// Appends the diagonal of P̃ (the per-class "observed label is right"
/// probability) to `series_name`, one value per class, so reports capture
/// the estimated confusion structure and its drift across model updates.
void RecordConditionalDiagonal(
    const std::vector<std::vector<double>>& conditional,
    const std::string& series_name) {
  telemetry::Series* series =
      telemetry::MetricsRegistry::Global().GetSeries(series_name);
  for (size_t c = 0; c < conditional.size(); ++c) {
    series->Append(conditional[c][c]);
  }
}

}  // namespace

EnldFramework::EnldFramework(const EnldConfig& config)
    : config_(config), rng_(config.seed) {}

void EnldFramework::Setup(const Dataset& inventory) {
  ENLD_TRACE_SPAN("setup");
  {
    ENLD_TRACE_SPAN("setup/general_model");
    GeneralModel general = InitGeneralModel(inventory, config_.general);
    model_ = std::move(general.model);
    train_set_ = std::make_shared<const Dataset>(std::move(general.train_set));
    candidate_set_ =
        std::make_shared<const Dataset>(std::move(general.candidate_set));
  }
  {
    ENLD_TRACE_SPAN("setup/joint_estimation");
    const JointCounts joint = EstimateJointCounts(model_.get(), *candidate_set_);
    conditional_ = ConditionalFromJoint(joint);
  }
  RecordConditionalDiagonal(conditional_, "setup/ptilde_diag");
  selected_clean_.assign(candidate_set_->size(), false);
  candidate_view_ = ModelView();
}

DetectionResult EnldFramework::Detect(const Dataset& incremental) {
  ENLD_CHECK(model_ != nullptr);  // Setup must run first.
  ENLD_CHECK_EQ(incremental.num_classes, candidate_set_->num_classes);
  ENLD_TRACE_SPAN("detect");

  // θ's view of I_c: computed by the first Detect after Setup or a
  // restore, found by every other.
  static telemetry::Counter* view_hits =
      telemetry::MetricsRegistry::Global().GetCounter("cache/view_hits");
  static telemetry::Counter* view_misses =
      telemetry::MetricsRegistry::Global().GetCounter("cache/view_misses");
  if (candidate_view_.empty()) {
    ENLD_TRACE_SPAN("detect/inference");
    view_misses->Increment();
    candidate_view_ = ComputeModelView(model_.get(), *candidate_set_);
  } else {
    view_hits->Increment();
  }

  // Fine-tune a copy of θ so the general model survives the request. The
  // fork keeps rng_'s stream where it was when the copy drew a throwaway
  // He init from it.
  rng_.Fork();
  MlpModel finetuned(model_->layer_dims(), model_->GetWeights());

  FineGrainedInputs inputs;
  inputs.model = &finetuned;
  inputs.incremental = &incremental;
  inputs.candidate = candidate_set_.get();
  inputs.conditional = &conditional_;
  inputs.candidate_view = &candidate_view_;
  FineGrainedOutputs outputs = FineGrainedDetect(inputs, config_, rng_);

  for (size_t pos : outputs.selected_candidate) {
    ENLD_CHECK_LT(pos, selected_clean_.size());
    selected_clean_[pos] = true;
  }
  return std::move(outputs.result);
}

size_t EnldFramework::selected_clean_count() const {
  size_t count = 0;
  for (bool b : selected_clean_) count += b ? 1 : 0;
  return count;
}

std::vector<size_t> EnldFramework::selected_clean_positions() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < selected_clean_.size(); ++i) {
    if (selected_clean_[i]) out.push_back(i);
  }
  return out;
}

EnldFrameworkState EnldFramework::CaptureState() const {
  ENLD_CHECK(model_ != nullptr);  // Setup must run first.
  EnldFrameworkState state;
  state.model_dims = model_->layer_dims();
  state.model_weights = model_->GetWeights();
  state.train_set = train_set_;
  state.candidate_set = candidate_set_;
  state.conditional = conditional_;
  state.selected_clean.reserve(selected_clean_.size());
  for (bool b : selected_clean_) {
    state.selected_clean.push_back(b ? 1 : 0);
  }
  state.rng = rng_.GetState();
  return state;
}

Status EnldFramework::RestoreState(EnldFrameworkState state) {
  // Validate everything before touching any member so a bad state leaves
  // the framework exactly as it was.
  if (state.train_set == nullptr || state.candidate_set == nullptr) {
    return Status::InvalidArgument("train or candidate set is missing");
  }
  const Dataset& train = *state.train_set;
  const Dataset& candidate = *state.candidate_set;
  if (train.num_classes != candidate.num_classes) {
    return Status::InvalidArgument(
        "train and candidate sets disagree on num_classes");
  }
  if (!train.empty() && !candidate.empty() && train.dim() != candidate.dim()) {
    return Status::InvalidArgument(
        "train and candidate sets disagree on feature dim");
  }
  if (state.model_dims.size() < 3) {
    return Status::InvalidArgument("model needs at least one hidden layer");
  }
  size_t expected_weights = 0;
  for (size_t i = 0; i + 1 < state.model_dims.size(); ++i) {
    if (state.model_dims[i] == 0 || state.model_dims[i + 1] == 0) {
      return Status::InvalidArgument("model layer dims must be positive");
    }
    expected_weights +=
        state.model_dims[i] * state.model_dims[i + 1] + state.model_dims[i + 1];
  }
  if (state.model_weights.size() != expected_weights) {
    return Status::InvalidArgument(
        "model weight count does not match the architecture");
  }
  if (state.model_dims.back() != static_cast<size_t>(candidate.num_classes)) {
    return Status::InvalidArgument(
        "model output dim does not match num_classes");
  }
  const size_t classes = state.conditional.size();
  if (classes != static_cast<size_t>(candidate.num_classes)) {
    return Status::InvalidArgument("P~ row count does not match num_classes");
  }
  for (const auto& row : state.conditional) {
    if (row.size() != classes) {
      return Status::InvalidArgument("P~ must be square");
    }
  }
  if (state.selected_clean.size() != candidate.size()) {
    return Status::InvalidArgument(
        "S_c bitmap length does not match the candidate set");
  }
  if (state.rng.state[0] == 0 && state.rng.state[1] == 0 &&
      state.rng.state[2] == 0 && state.rng.state[3] == 0) {
    return Status::InvalidArgument("degenerate (all-zero) RNG state");
  }

  // Commit.
  model_ = std::make_unique<MlpModel>(state.model_dims, state.model_weights);
  train_set_ = std::move(state.train_set);
  candidate_set_ = std::move(state.candidate_set);
  conditional_ = std::move(state.conditional);
  selected_clean_.assign(state.selected_clean.size(), false);
  for (size_t i = 0; i < state.selected_clean.size(); ++i) {
    selected_clean_[i] = state.selected_clean[i] != 0;
  }
  rng_.SetState(state.rng);
  // The first Detect computes the restored θ's view: a restore stays a
  // copy, with no forward pass.
  candidate_view_ = ModelView();
  return Status::OK();
}

Status EnldFramework::UpdateModel() {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("Setup has not been run");
  }
  const std::vector<size_t> positions = selected_clean_positions();
  if (positions.empty()) {
    return Status::FailedPrecondition(
        "no clean inventory samples selected yet; run Detect first");
  }
  ENLD_TRACE_SPAN("update");
  telemetry::MetricsRegistry::Global()
      .GetCounter("update/clean_samples")
      ->Add(positions.size());

  // θ^u = train(S_c): the updated model is warm-started from the current
  // general model so classes under-represented in S_c keep their learned
  // structure, then trained on the selected clean samples.
  const Dataset clean = candidate_set_->Subset(positions);
  rng_.Fork();  // Keeps rng_'s stream, as in Detect.
  auto updated =
      std::make_unique<MlpModel>(model_->layer_dims(), model_->GetWeights());
  TrainConfig train = config_.general.train;
  train.seed = rng_.NextUInt64();
  TrainModel(updated.get(), clean, /*validation=*/nullptr, train);
  model_ = std::move(updated);

  // Swap I_t and I_c — the pointers, so a captured state keeps the sets it
  // shares — then re-estimate P̃ on the new candidate set. P̃'s forward
  // pass over the new I_c under the new θ is the new candidate view: count
  // the joint from its predictions (the argmax EstimateJointCounts takes
  // of the same logits) and keep it for the next Detect. The old view goes
  // first, so the two never share the memory peak.
  std::swap(train_set_, candidate_set_);
  const std::vector<std::vector<double>> previous = conditional_;
  candidate_view_ = ModelView();
  candidate_view_ = ComputeModelView(model_.get(), *candidate_set_);
  conditional_ = ConditionalFromJoint(
      CountJoint(*candidate_set_, candidate_view_.predicted));

  // Per-class P̃ drift: L1 distance between the old and new conditional
  // rows, one series value per class per update.
  telemetry::Series* drift =
      telemetry::MetricsRegistry::Global().GetSeries("update/ptilde_drift");
  for (size_t c = 0; c < conditional_.size(); ++c) {
    double l1 = 0.0;
    if (c < previous.size()) {
      for (size_t j = 0; j < conditional_[c].size(); ++j) {
        l1 += std::abs(conditional_[c][j] - previous[c][j]);
      }
    }
    drift->Append(l1);
  }
  RecordConditionalDiagonal(conditional_, "update/ptilde_diag");

  selected_clean_.assign(candidate_set_->size(), false);
  return Status::OK();
}

}  // namespace enld
