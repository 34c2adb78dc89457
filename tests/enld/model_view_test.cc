#include "enld/model_view.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/telemetry/metrics.h"
#include "enld/framework.h"
#include "nn/confident_joint.h"
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

void ExpectSameResult(const DetectionResult& a, const DetectionResult& b) {
  EXPECT_EQ(a.clean_indices, b.clean_indices);
  EXPECT_EQ(a.noisy_indices, b.noisy_indices);
  EXPECT_EQ(a.per_iteration_clean, b.per_iteration_clean);
  EXPECT_EQ(a.per_iteration_ambiguous, b.per_iteration_ambiguous);
  EXPECT_EQ(a.recovered_labels, b.recovered_labels);
}

void ExpectSameMatrixBits(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  if (a.rows() * a.cols() == 0) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        a.rows() * a.cols() * sizeof(float)),
            0);
}

class ModelViewTest : public ::testing::Test {
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

Workload* ModelViewTest::workload_ = nullptr;

TEST_F(ModelViewTest, SelectViewRowsMatchesDirectCompute) {
  const Dataset& full_set = workload_->incremental[0];
  Rng rng(11);
  MlpModel model({full_set.dim(), 24, static_cast<size_t>(
                                          full_set.num_classes)},
                 rng);
  const ModelView full = ComputeModelView(&model, full_set);
  const std::vector<size_t> rows = {0, 2, 5, 7, full_set.size() - 1};
  const ModelView selected = SelectViewRows(full, rows);
  const ModelView direct = ComputeModelView(&model, full_set.Subset(rows));
  // The bit-identity the candidate view depends on: selecting rows of the
  // full view equals forwarding the subset directly.
  ExpectSameMatrixBits(selected.probs, direct.probs);
  ExpectSameMatrixBits(selected.features, direct.features);
  EXPECT_EQ(selected.predicted, direct.predicted);
}

TEST_F(ModelViewTest, UpdateModelEstimatesConditionalOfTheNewModel) {
  // UpdateModel counts P̃'s joint from the candidate view it keeps; that
  // must be the joint EstimateJointCounts gives for the new θ and I_c.
  EnldFramework enld(FastEnldConfig());
  enld.Setup(workload_->inventory);
  (void)enld.Detect(workload_->incremental[0]);
  ASSERT_TRUE(enld.UpdateModel().ok());
  EXPECT_EQ(enld.conditional(),
            ConditionalFromJoint(EstimateJointCounts(enld.general_model(),
                                                     enld.candidate_set())));
}

TEST_F(ModelViewTest, RestoredFrameworkFillsItsViewOnFirstDetect) {
  EnldFramework updated(FastEnldConfig());
  updated.Setup(workload_->inventory);
  (void)updated.Detect(workload_->incremental[0]);
  ASSERT_TRUE(updated.UpdateModel().ok());

  // The restore target already holds a view, of the pre-update θ over the
  // pre-update I_c; RestoreState must drop it.
  EnldFramework restored(FastEnldConfig());
  restored.Setup(workload_->inventory);
  (void)restored.Detect(workload_->incremental[0]);
  ASSERT_TRUE(restored.RestoreState(updated.CaptureState()).ok());

  auto& registry = telemetry::MetricsRegistry::Global();
  telemetry::Counter* hits = registry.GetCounter("cache/view_hits");
  telemetry::Counter* misses = registry.GetCounter("cache/view_misses");
  const uint64_t hits_before = hits->Value();
  const uint64_t misses_before = misses->Value();
  // UpdateModel set the updated framework's view; the restored one
  // computes its own in its first Detect.
  const DetectionResult from_update = updated.Detect(workload_->incremental[1]);
  const DetectionResult from_restore =
      restored.Detect(workload_->incremental[1]);
  EXPECT_EQ(hits->Value(), hits_before + 1);
  EXPECT_EQ(misses->Value(), misses_before + 1);
  ExpectSameResult(from_update, from_restore);
}

}  // namespace
}  // namespace enld
