#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "data/noise.h"
#include "detect/registry.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace enld {
namespace {

using detect::DetectorContext;
using testing_util::TinyGeneralConfig;
using testing_util::TinyWorkloadConfig;

/// A table detector; the context's general model is the tests' fast one.
std::unique_ptr<NoisyLabelDetector> Create(const std::string& key,
                                           DetectorContext context = {}) {
  context.general = TinyGeneralConfig();
  auto detector = detect::CreateDetector(key, {}, context);
  EXPECT_TRUE(detector.ok()) << detector.status().ToString();
  return std::move(detector).value();
}

DetectorContext TopofilterEpochs(size_t epochs) {
  DetectorContext context;
  context.topofilter.train.epochs = epochs;
  return context;
}

class BaselinesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new Workload(BuildWorkload(TinyWorkloadConfig(0.2)));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  static void ExpectValidPartition(const Dataset& d,
                                   const DetectionResult& result) {
    std::set<size_t> seen;
    for (size_t i : result.clean_indices) EXPECT_TRUE(seen.insert(i).second);
    for (size_t i : result.noisy_indices) EXPECT_TRUE(seen.insert(i).second);
    EXPECT_EQ(seen.size(), d.size() - d.MissingLabelIndices().size());
  }

  static Workload* workload_;
};

Workload* BaselinesTest::workload_ = nullptr;

TEST_F(BaselinesTest, DefaultDetectorPartitionAndSemantics) {
  auto detector = Create("default");
  detector->Setup(workload_->inventory);
  const Dataset& d = workload_->incremental[0];
  const DetectionResult result = detector->Detect(d);
  ExpectValidPartition(d, result);
  // Semantics: flagged iff the general model's prediction != observed. The
  // same config trains the same model.
  const GeneralModel general =
      InitGeneralModel(workload_->inventory, TinyGeneralConfig());
  const auto predicted = general.model->Predict(d.features);
  for (size_t i : result.noisy_indices) {
    EXPECT_NE(predicted[i], d.observed_labels[i]);
  }
  for (size_t i : result.clean_indices) {
    EXPECT_EQ(predicted[i], d.observed_labels[i]);
  }
}

TEST_F(BaselinesTest, DefaultDetectorBeatsChance) {
  auto detector = Create("default");
  detector->Setup(workload_->inventory);
  double f1 = 0.0;
  for (const Dataset& d : workload_->incremental) {
    f1 += EvaluateDetection(d, detector->Detect(d).noisy_indices).f1;
  }
  EXPECT_GT(f1 / workload_->incremental.size(), 0.4);
}

TEST_F(BaselinesTest, DefaultDetectorName) {
  EXPECT_EQ(Create("default")->name(), "default");
  EXPECT_EQ(detect::FindDetector("default")->display_name, "Default");
}

TEST_F(BaselinesTest, DefaultSkipsMissingLabels) {
  auto detector = Create("default");
  detector->Setup(workload_->inventory);
  Dataset d = workload_->incremental[0];
  Rng rng(1);
  const auto masked = MaskMissingLabels(&d, 0.4, rng);
  const DetectionResult result = detector->Detect(d);
  ExpectValidPartition(d, result);
  std::set<size_t> flagged(result.noisy_indices.begin(),
                           result.noisy_indices.end());
  for (size_t i : masked) EXPECT_EQ(flagged.count(i), 0u);
}

TEST_F(BaselinesTest, ConfidentLearningVariantsDiffer) {
  auto cl1 = Create("cl1");
  auto cl2 = Create("cl2");
  EXPECT_EQ(cl1->name(), "cl1");
  EXPECT_EQ(cl2->name(), "cl2");
  EXPECT_EQ(detect::FindDetector("cl1")->display_name, "CL-1");
  EXPECT_EQ(detect::FindDetector("cl2")->display_name, "CL-2");
  cl1->Setup(workload_->inventory);
  cl2->Setup(workload_->inventory);
  const Dataset& d = workload_->incremental[0];
  const auto r1 = cl1->Detect(d);
  const auto r2 = cl2->Detect(d);
  ExpectValidPartition(d, r1);
  ExpectValidPartition(d, r2);
}

TEST_F(BaselinesTest, ConfidentLearningDetectsRoughlyNoiseRateFraction) {
  auto detector = Create("cl1");
  detector->Setup(workload_->inventory);
  size_t flagged = 0;
  size_t total = 0;
  for (const Dataset& d : workload_->incremental) {
    flagged += detector->Detect(d).noisy_indices.size();
    total += d.size();
  }
  const double fraction = static_cast<double>(flagged) / total;
  // Prune-by-class removes approximately the estimated noise mass.
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.5);
}

TEST_F(BaselinesTest, ConfidentLearningBeatsChance) {
  auto detector = Create("cl2");
  detector->Setup(workload_->inventory);
  double f1 = 0.0;
  for (const Dataset& d : workload_->incremental) {
    f1 += EvaluateDetection(d, detector->Detect(d).noisy_indices).f1;
  }
  EXPECT_GT(f1 / workload_->incremental.size(), 0.4);
}

TEST_F(BaselinesTest, TopofilterPartitionAndQuality) {
  auto detector = Create("topofilter", TopofilterEpochs(5));
  detector->Setup(workload_->inventory);
  double f1 = 0.0;
  for (const Dataset& d : workload_->incremental) {
    const DetectionResult result = detector->Detect(d);
    ExpectValidPartition(d, result);
    f1 += EvaluateDetection(d, result.noisy_indices).f1;
  }
  EXPECT_GT(f1 / workload_->incremental.size(), 0.3);
}

TEST_F(BaselinesTest, TopofilterName) {
  EXPECT_EQ(Create("topofilter")->name(), "topofilter");
  EXPECT_EQ(detect::FindDetector("topofilter")->display_name, "Topofilter");
}

TEST_F(BaselinesTest, TopofilterDeterministicPerRequestIndex) {
  auto run = [&] {
    auto detector = Create("topofilter", TopofilterEpochs(3));
    detector->Setup(workload_->inventory);
    return detector->Detect(workload_->incremental[0]).noisy_indices;
  };
  EXPECT_EQ(run(), run());
}

TEST_F(BaselinesTest, TopofilterSkipsMissingLabels) {
  auto detector = Create("topofilter", TopofilterEpochs(3));
  detector->Setup(workload_->inventory);
  Dataset d = workload_->incremental[0];
  Rng rng(2);
  const auto masked = MaskMissingLabels(&d, 0.3, rng);
  const DetectionResult result = detector->Detect(d);
  ExpectValidPartition(d, result);
}

TEST_F(BaselinesTest, TopofilterCheckpointVotingConfig) {
  // checkpoints = 1 and = 3 must both run and may differ in output.
  DetectorContext one = TopofilterEpochs(6);
  one.topofilter.checkpoints = 1;
  DetectorContext three = TopofilterEpochs(6);
  three.topofilter.checkpoints = 3;
  auto d1 = Create("topofilter", one);
  auto d3 = Create("topofilter", three);
  d1->Setup(workload_->inventory);
  d3->Setup(workload_->inventory);
  const Dataset& d = workload_->incremental[0];
  ExpectValidPartition(d, d1->Detect(d));
  ExpectValidPartition(d, d3->Detect(d));
}

}  // namespace
}  // namespace enld
