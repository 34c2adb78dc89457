#include "enld/framework.h"

#include <gtest/gtest.h>

#include "detect/registry.h"
#include "eval/metrics.h"
#include "nn/trainer.h"
#include "test_util.h"

namespace enld {
namespace {

using testing_util::TinyGeneralConfig;
using testing_util::TinyWorkloadConfig;

EnldConfig FastEnldConfig() {
  EnldConfig config;
  config.general = TinyGeneralConfig();
  config.iterations = 3;
  config.steps_per_iteration = 3;
  return config;
}

class FrameworkTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new Workload(BuildWorkload(TinyWorkloadConfig(0.2)));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }
  static Workload* workload_;
};

Workload* FrameworkTest::workload_ = nullptr;

TEST_F(FrameworkTest, SetupEstimatesConditional) {
  EnldFramework enld(FastEnldConfig());
  enld.Setup(workload_->inventory);
  const auto& conditional = enld.conditional();
  ASSERT_EQ(conditional.size(),
            static_cast<size_t>(workload_->inventory.num_classes));
  double diag = 0.0;
  for (size_t i = 0; i < conditional.size(); ++i) {
    double sum = 0.0;
    for (double v : conditional[i]) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    diag += conditional[i][i];
  }
  // Diagonal dominance at 20% noise.
  EXPECT_GT(diag / conditional.size(), 0.5);
}

TEST_F(FrameworkTest, SetupSplitsInventoryInHalves) {
  EnldFramework enld(FastEnldConfig());
  enld.Setup(workload_->inventory);
  EXPECT_EQ(enld.train_set().size() + enld.candidate_set().size(),
            workload_->inventory.size());
  EXPECT_EQ(enld.train_set().size(), workload_->inventory.size() / 2);
  EXPECT_NE(enld.general_model(), nullptr);
}

TEST_F(FrameworkTest, DetectReturnsValidPartition) {
  EnldFramework enld(FastEnldConfig());
  enld.Setup(workload_->inventory);
  const Dataset& d = workload_->incremental[0];
  const DetectionResult result = enld.Detect(d);
  EXPECT_EQ(result.clean_indices.size() + result.noisy_indices.size(),
            d.size());
}

TEST_F(FrameworkTest, NameFollowsPolicy) {
  EnldConfig config = FastEnldConfig();
  EXPECT_EQ(EnldFramework(config).name(), "enld");
  EXPECT_EQ(detect::FindDetector("enld")->display_name, "ENLD");
  config.policy = SamplingPolicy::kPseudo;
  EXPECT_EQ(EnldFramework(config).name(), "enld-pseudo");
  EXPECT_EQ(detect::FindDetector("enld-pseudo")->display_name, "Pseudo-ENLD");
}

TEST_F(FrameworkTest, OutperformsDefaultBaseline) {
  EnldFramework enld(FastEnldConfig());
  detect::DetectorContext context;
  context.general = TinyGeneralConfig();
  auto baseline = detect::CreateDetector("default", {}, context);
  ASSERT_TRUE(baseline.ok());
  enld.Setup(workload_->inventory);
  (*baseline)->Setup(workload_->inventory);

  double enld_f1 = 0.0;
  double default_f1 = 0.0;
  for (const Dataset& d : workload_->incremental) {
    enld_f1 += EvaluateDetection(d, enld.Detect(d).noisy_indices).f1;
    default_f1 +=
        EvaluateDetection(d, (*baseline)->Detect(d).noisy_indices).f1;
  }
  EXPECT_GT(enld_f1, default_f1);
}

TEST_F(FrameworkTest, DetectAccumulatesCleanInventorySelection) {
  EnldFramework enld(FastEnldConfig());
  enld.Setup(workload_->inventory);
  EXPECT_EQ(enld.selected_clean_count(), 0u);
  enld.Detect(workload_->incremental[0]);
  const size_t after_one = enld.selected_clean_count();
  EXPECT_GT(after_one, 0u);
  enld.Detect(workload_->incremental[1]);
  EXPECT_GE(enld.selected_clean_count(), after_one);
  // Positions are inside the candidate set.
  for (size_t pos : enld.selected_clean_positions()) {
    EXPECT_LT(pos, enld.candidate_set().size());
  }
}

TEST_F(FrameworkTest, UpdateModelRequiresSetup) {
  EnldFramework enld(FastEnldConfig());
  const Status status = enld.UpdateModel();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(FrameworkTest, UpdateModelRequiresSelectedSamples) {
  EnldFramework enld(FastEnldConfig());
  enld.Setup(workload_->inventory);
  const Status status = enld.UpdateModel();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(FrameworkTest, CaptureSharesDatasetsAcrossUpdate) {
  EnldFramework enld(FastEnldConfig());
  enld.Setup(workload_->inventory);
  enld.Detect(workload_->incremental[0]);

  // The capture shares I_t and I_c instead of copying them.
  const EnldFrameworkState captured = enld.CaptureState();
  EXPECT_EQ(captured.train_set.get(), &enld.train_set());
  EXPECT_EQ(captured.candidate_set.get(), &enld.candidate_set());
  const std::vector<uint64_t> train_ids = captured.train_set->ids;
  const std::vector<uint64_t> candidate_ids = captured.candidate_set->ids;

  // UpdateModel swaps the framework's sets; the capture keeps its own.
  ASSERT_TRUE(enld.UpdateModel().ok());
  EXPECT_EQ(captured.train_set->ids, train_ids);
  EXPECT_EQ(captured.candidate_set->ids, candidate_ids);
  EXPECT_EQ(enld.candidate_set().ids, train_ids);
  EXPECT_EQ(captured.train_set.get(), &enld.candidate_set());

  // A state without its datasets is rejected, leaving the framework as is.
  EnldFrameworkState missing = enld.CaptureState();
  missing.candidate_set = nullptr;
  EXPECT_EQ(enld.RestoreState(std::move(missing)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(enld.candidate_set().ids, train_ids);
}

TEST_F(FrameworkTest, UpdateModelSwapsSetsAndResets) {
  EnldFramework enld(FastEnldConfig());
  enld.Setup(workload_->inventory);
  enld.Detect(workload_->incremental[0]);
  ASSERT_GT(enld.selected_clean_count(), 0u);

  const std::vector<uint64_t> old_train_ids = enld.train_set().ids;
  const std::vector<uint64_t> old_candidate_ids = enld.candidate_set().ids;
  ASSERT_TRUE(enld.UpdateModel().ok());

  // Algorithm 4: I_t and I_c swap roles.
  EXPECT_EQ(enld.train_set().ids, old_candidate_ids);
  EXPECT_EQ(enld.candidate_set().ids, old_train_ids);
  // S_c resets against the new candidate set.
  EXPECT_EQ(enld.selected_clean_count(), 0u);
  // Detection still works after the update.
  const DetectionResult result = enld.Detect(workload_->incremental[2]);
  EXPECT_EQ(result.clean_indices.size() + result.noisy_indices.size(),
            workload_->incremental[2].size());
}

TEST_F(FrameworkTest, UpdatedModelStillDetects) {
  EnldFramework enld(FastEnldConfig());
  enld.Setup(workload_->inventory);
  for (const Dataset& d : workload_->incremental) enld.Detect(d);
  ASSERT_TRUE(enld.UpdateModel().ok());
  const Dataset& d = workload_->incremental[0];
  const auto metrics =
      EvaluateDetection(d, enld.Detect(d).noisy_indices);
  EXPECT_GT(metrics.f1, 0.3);
}

TEST_F(FrameworkTest, DeterministicAcrossInstances) {
  auto run = [this] {
    EnldFramework enld(FastEnldConfig());
    enld.Setup(workload_->inventory);
    return enld.Detect(workload_->incremental[0]).noisy_indices;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace enld
