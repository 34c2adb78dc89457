#include "enld/fine_grained.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/noise.h"
#include "enld/framework.h"
#include "enld/sample_sets.h"
#include "eval/metrics.h"
#include "nn/confident_joint.h"
#include "test_util.h"

namespace enld {
namespace {

using testing_util::TinyGeneralConfig;
using testing_util::TinyWorkloadConfig;

/// Shared expensive fixture: one workload + one general model, reused by
/// every test in this file.
class FineGrainedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new Workload(BuildWorkload(TinyWorkloadConfig(0.2)));
    general_ = new GeneralModel(
        InitGeneralModel(workload_->inventory, TinyGeneralConfig()));
    conditional_ = new std::vector<std::vector<double>>(ConditionalFromJoint(
        EstimateJointCounts(general_->model.get(),
                            general_->candidate_set)));
    candidate_view_ = new ModelView(
        ComputeModelView(general_->model.get(), general_->candidate_set));
  }
  static void TearDownTestSuite() {
    delete candidate_view_;
    delete conditional_;
    delete general_;
    delete workload_;
    candidate_view_ = nullptr;
    conditional_ = nullptr;
    general_ = nullptr;
    workload_ = nullptr;
  }

  /// Runs fine-grained detection on incremental dataset `idx` with `config`
  /// against a fresh copy of the general model; `final_weights`, when
  /// given, receives the copy's weights after the run.
  FineGrainedOutputs Run(const EnldConfig& config, size_t idx = 0,
                         const Dataset* override_data = nullptr,
                         std::vector<float>* final_weights = nullptr) {
    const Dataset& data =
        override_data != nullptr ? *override_data : workload_->incremental[idx];
    MlpModel finetuned(general_->model->layer_dims(),
                       general_->model->GetWeights());
    FineGrainedInputs inputs;
    inputs.model = &finetuned;
    inputs.incremental = &data;
    inputs.candidate = &general_->candidate_set;
    inputs.conditional = conditional_;
    inputs.candidate_view = candidate_view_;
    Rng rng(config.seed);
    FineGrainedOutputs out = FineGrainedDetect(inputs, config, rng);
    if (final_weights != nullptr) *final_weights = finetuned.GetWeights();
    return out;
  }

  static EnldConfig FastConfig() {
    EnldConfig config;
    config.general = TinyGeneralConfig();
    config.iterations = 3;
    config.steps_per_iteration = 3;
    return config;
  }

  static Workload* workload_;
  static GeneralModel* general_;
  static std::vector<std::vector<double>>* conditional_;
  static ModelView* candidate_view_;
};

Workload* FineGrainedTest::workload_ = nullptr;
GeneralModel* FineGrainedTest::general_ = nullptr;
std::vector<std::vector<double>>* FineGrainedTest::conditional_ = nullptr;
ModelView* FineGrainedTest::candidate_view_ = nullptr;

TEST_F(FineGrainedTest, CleanAndNoisyPartitionLabeledSamples) {
  const FineGrainedOutputs out = Run(FastConfig());
  const Dataset& d = workload_->incremental[0];
  std::set<size_t> seen;
  for (size_t i : out.result.clean_indices) {
    EXPECT_TRUE(seen.insert(i).second);
  }
  for (size_t i : out.result.noisy_indices) {
    EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_EQ(seen.size(), d.size() - d.MissingLabelIndices().size());
}

TEST_F(FineGrainedTest, TrajectoriesHaveOneEntryPerIteration) {
  EnldConfig config = FastConfig();
  config.iterations = 4;
  const FineGrainedOutputs out = Run(config);
  EXPECT_EQ(out.result.per_iteration_clean.size(), 4u);
  EXPECT_EQ(out.result.per_iteration_ambiguous.size(), 4u);
}

TEST_F(FineGrainedTest, CleanSetGrowsMonotonically) {
  const FineGrainedOutputs out = Run(FastConfig());
  for (size_t i = 1; i < out.result.per_iteration_clean.size(); ++i) {
    EXPECT_GE(out.result.per_iteration_clean[i].size(),
              out.result.per_iteration_clean[i - 1].size());
  }
  // Final clean set equals the last snapshot.
  EXPECT_EQ(out.result.clean_indices.size(),
            out.result.per_iteration_clean.back().size());
}

TEST_F(FineGrainedTest, AmbiguousCountShrinks) {
  // Fig. 13(b): |A| decreases as fine-tuning adapts. Compare first vs last.
  EnldConfig config = FastConfig();
  config.iterations = 4;
  const FineGrainedOutputs out = Run(config);
  EXPECT_LE(out.result.per_iteration_ambiguous.back(),
            out.result.per_iteration_ambiguous.front());
}

/// Each iteration's ambiguous set comes from its last voting pass: the
/// model does not move after it, so the last iteration's |A| is that of the
/// model the run ends with. Increment 2 is one whose |A| moves while the
/// model fine-tunes.
TEST_F(FineGrainedTest, AmbiguousSetComesFromTheIterationsFinalModel) {
  for (size_t iterations : {size_t{1}, size_t{2}, size_t{3}}) {
    EnldConfig config = FastConfig();
    config.iterations = iterations;
    std::vector<float> weights;
    const FineGrainedOutputs out = Run(config, 2, nullptr, &weights);
    const Dataset& d = workload_->incremental[2];
    MlpModel final_model(general_->model->layer_dims(), weights);
    EXPECT_EQ(out.result.per_iteration_ambiguous.back(),
              AmbiguousPositions(&final_model, d).size())
        << "iterations=" << iterations;
  }
}

TEST_F(FineGrainedTest, DetectionBeatsChance) {
  const FineGrainedOutputs out = Run(FastConfig());
  const Dataset& d = workload_->incremental[0];
  const DetectionMetrics m = EvaluateDetection(d, out.result.noisy_indices);
  // Chance precision equals the noise rate (0.2); require clearly better.
  EXPECT_GT(m.precision, 0.4);
  EXPECT_GT(m.recall, 0.4);
}

TEST_F(FineGrainedTest, DeterministicGivenSeed) {
  const FineGrainedOutputs a = Run(FastConfig());
  const FineGrainedOutputs b = Run(FastConfig());
  EXPECT_EQ(a.result.noisy_indices, b.result.noisy_indices);
  EXPECT_EQ(a.selected_candidate, b.selected_candidate);
}

TEST_F(FineGrainedTest, MajorityVotingStricterThanWithout) {
  EnldConfig with = FastConfig();
  EnldConfig without = FastConfig();
  without.ablation.use_majority_voting = false;
  const size_t clean_with = Run(with).result.clean_indices.size();
  const size_t clean_without = Run(without).result.clean_indices.size();
  // ENLD-2 admits on a single agreeing step -> at least as many cleans.
  EXPECT_GE(clean_without, clean_with);
}

TEST_F(FineGrainedTest, SelectedCandidatesAreMostlyClean) {
  const FineGrainedOutputs out = Run(FastConfig());
  const Dataset& candidate = general_->candidate_set;
  ASSERT_FALSE(out.selected_candidate.empty());
  size_t actually_clean = 0;
  for (size_t pos : out.selected_candidate) {
    ASSERT_LT(pos, candidate.size());
    if (candidate.observed_labels[pos] == candidate.true_labels[pos]) {
      ++actually_clean;
    }
  }
  EXPECT_GT(static_cast<double>(actually_clean) /
                static_cast<double>(out.selected_candidate.size()),
            0.9);
}

TEST_F(FineGrainedTest, MissingLabelsRecovered) {
  Dataset data = workload_->incremental[0];
  Rng rng(55);
  const auto masked = MaskMissingLabels(&data, 0.3, rng);
  EnldConfig config = FastConfig();
  const FineGrainedOutputs out = Run(config, 0, &data);
  ASSERT_EQ(out.result.recovered_labels.size(), data.size());
  // Every masked sample gets some recovered label.
  for (size_t pos : masked) {
    EXPECT_NE(out.result.recovered_labels[pos], kMissingLabel);
  }
  // Recovery accuracy must beat chance by a wide margin.
  const double acc =
      PseudoLabelAccuracy(data, out.result.recovered_labels, masked);
  EXPECT_GT(acc, 0.5);
  // Labeled positions carry no recovered label.
  for (size_t i = 0; i < data.size(); ++i) {
    if (data.observed_labels[i] != kMissingLabel) {
      EXPECT_EQ(out.result.recovered_labels[i], kMissingLabel);
    }
  }
}

TEST_F(FineGrainedTest, MissingRecoveryCanBeDisabled) {
  Dataset data = workload_->incremental[0];
  Rng rng(56);
  MaskMissingLabels(&data, 0.3, rng);
  EnldConfig config = FastConfig();
  config.recover_missing_labels = false;
  const FineGrainedOutputs out = Run(config, 0, &data);
  EXPECT_TRUE(out.result.recovered_labels.empty());
}

TEST_F(FineGrainedTest, AblationsChangeBehaviour) {
  // On a small easy workload individual datasets may coincide, so compare
  // across all datasets and require that at least one switch changes at
  // least one outcome (each switch is exercised end-to-end regardless).
  int differing = 0;
  for (int which = 0; which < 4; ++which) {
    EnldConfig config = FastConfig();
    switch (which) {
      case 0: config.ablation.use_contrastive = false; break;
      case 1: config.ablation.use_majority_voting = false; break;
      case 2: config.ablation.merge_clean_into_c = false; break;
      case 3: config.ablation.use_probability_label = false; break;
    }
    for (size_t idx = 0; idx < workload_->incremental.size(); ++idx) {
      const auto base = Run(FastConfig(), idx).result.noisy_indices;
      if (Run(config, idx).result.noisy_indices != base) {
        ++differing;
        break;
      }
    }
  }
  EXPECT_GE(differing, 1);
}

TEST_F(FineGrainedTest, AlternativePoliciesRun) {
  for (SamplingPolicy policy :
       {SamplingPolicy::kRandom, SamplingPolicy::kHighestConfidence,
        SamplingPolicy::kLeastConfidence, SamplingPolicy::kEntropy,
        SamplingPolicy::kPseudo}) {
    EnldConfig config = FastConfig();
    config.policy = policy;
    const FineGrainedOutputs out = Run(config);
    const Dataset& d = workload_->incremental[0];
    EXPECT_EQ(out.result.clean_indices.size() +
                  out.result.noisy_indices.size(),
              d.size())
        << SamplingPolicyName(policy);
  }
}

TEST_F(FineGrainedTest, ZeroIterationsYieldsAllNoisy) {
  EnldConfig config = FastConfig();
  config.iterations = 0;
  const FineGrainedOutputs out = Run(config);
  // No iteration ever selects clean samples; everything stays in N.
  EXPECT_TRUE(out.result.clean_indices.empty());
  EXPECT_TRUE(out.selected_candidate.empty());
}

TEST_F(FineGrainedTest, AllContrastiveSizesProduceValidPartitions) {
  // k = 1..4 (the Fig. 11 sweep) must all run and partition the dataset.
  const Dataset& d = workload_->incremental[0];
  for (size_t k = 1; k <= 4; ++k) {
    EnldConfig config = FastConfig();
    config.contrastive_k = k;
    const FineGrainedOutputs out = Run(config);
    EXPECT_EQ(out.result.clean_indices.size() +
                  out.result.noisy_indices.size(),
              d.size())
        << "k=" << k;
  }
}

}  // namespace
}  // namespace enld
