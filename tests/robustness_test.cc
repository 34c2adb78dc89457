// Failure-injection tests: degenerate inputs every detector must survive —
// single-class arriving datasets, fully-noisy datasets, one-sample
// requests, classes absent from the inventory, extreme imbalance.

#include <memory>

#include <gtest/gtest.h>

#include "detect/registry.h"
#include "enld/framework.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace enld {
namespace {

using testing_util::TinyGeneralConfig;
using testing_util::TinyWorkloadConfig;

class RobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new Workload(BuildWorkload(TinyWorkloadConfig(0.2)));
    enld_ = new EnldFramework([] {
      EnldConfig config;
      config.general = TinyGeneralConfig();
      config.iterations = 2;
      config.steps_per_iteration = 3;
      return config;
    }());
    enld_->Setup(workload_->inventory);
  }
  static void TearDownTestSuite() {
    delete enld_;
    delete workload_;
    enld_ = nullptr;
    workload_ = nullptr;
  }

  static void ExpectPartition(const Dataset& d, const DetectionResult& r) {
    EXPECT_EQ(r.clean_indices.size() + r.noisy_indices.size(),
              d.size() - d.MissingLabelIndices().size());
  }

  static Workload* workload_;
  static EnldFramework* enld_;
};

Workload* RobustnessTest::workload_ = nullptr;
EnldFramework* RobustnessTest::enld_ = nullptr;

TEST_F(RobustnessTest, SingleClassArrivingDataset) {
  const Dataset& d0 = workload_->incremental[0];
  const int label = d0.ObservedLabelSet().front();
  const Dataset single = d0.Subset(d0.IndicesWithObservedLabel(label));
  ASSERT_FALSE(single.empty());
  ExpectPartition(single, enld_->Detect(single));
}

TEST_F(RobustnessTest, OneSampleRequest) {
  const Dataset one = workload_->incremental[0].Subset({0});
  const DetectionResult r = enld_->Detect(one);
  EXPECT_EQ(r.clean_indices.size() + r.noisy_indices.size(), 1u);
}

TEST_F(RobustnessTest, FullyNoisyDataset) {
  // Every observed label shifted by one: 100% noise.
  Dataset all_noisy = workload_->incremental[0];
  for (size_t i = 0; i < all_noisy.size(); ++i) {
    all_noisy.observed_labels[i] =
        (all_noisy.true_labels[i] + 1) % all_noisy.num_classes;
  }
  const DetectionResult r = enld_->Detect(all_noisy);
  ExpectPartition(all_noisy, r);
  const DetectionMetrics m = EvaluateDetection(all_noisy, r.noisy_indices);
  // Precision is trivially 1; most samples should be flagged.
  EXPECT_GT(m.recall, 0.5);
}

TEST_F(RobustnessTest, FullyCleanDataset) {
  Dataset clean = workload_->incremental[0];
  clean.observed_labels = clean.true_labels;
  const DetectionResult r = enld_->Detect(clean);
  ExpectPartition(clean, r);
  // Most samples should be kept (false-positive rate bounded).
  EXPECT_GT(r.clean_indices.size(), clean.size() / 2);
}

TEST_F(RobustnessTest, AllLabelsMissing) {
  Dataset unlabeled = workload_->incremental[0];
  for (auto& y : unlabeled.observed_labels) y = kMissingLabel;
  const DetectionResult r = enld_->Detect(unlabeled);
  EXPECT_TRUE(r.clean_indices.empty());
  EXPECT_TRUE(r.noisy_indices.empty());
  // Every sample still receives a recovered pseudo label.
  ASSERT_EQ(r.recovered_labels.size(), unlabeled.size());
  for (int label : r.recovered_labels) EXPECT_NE(label, kMissingLabel);
}

TEST_F(RobustnessTest, DuplicatedSamples) {
  // The same sample repeated: KD-trees and voting must not blow up.
  Dataset d = workload_->incremental[0];
  std::vector<size_t> rows(20, 3);  // Position 3, twenty times.
  const Dataset dupes = d.Subset(rows);
  ExpectPartition(dupes, enld_->Detect(dupes));
}

TEST_F(RobustnessTest, BaselinesSurviveSingleClassRequests) {
  const Dataset& d0 = workload_->incremental[0];
  const int label = d0.ObservedLabelSet().front();
  const Dataset single = d0.Subset(d0.IndicesWithObservedLabel(label));

  detect::DetectorContext context;
  context.general = TinyGeneralConfig();
  context.topofilter.train.epochs = 3;
  for (const char* key : {"default", "cl2", "topofilter"}) {
    auto detector = detect::CreateDetector(key, {}, context);
    ASSERT_TRUE(detector.ok()) << key;
    (*detector)->Setup(workload_->inventory);
    ExpectPartition(single, (*detector)->Detect(single));
  }
}

TEST_F(RobustnessTest, RepeatDetectionsAreIndependent) {
  // Detecting the same dataset twice gives the same answer (the general
  // model is copied per request, never mutated).
  const Dataset& d = workload_->incremental[1];
  const auto first = enld_->Detect(d).noisy_indices;
  const auto second = enld_->Detect(d).noisy_indices;
  EXPECT_EQ(first, second);
}

TEST_F(RobustnessTest, ExtremelyImbalancedInventoryStillInitializes) {
  // 90% of the inventory from one class.
  WorkloadConfig config = TinyWorkloadConfig(0.1, 777);
  Workload skewed = BuildWorkload(config);
  std::vector<size_t> keep;
  for (size_t i = 0; i < skewed.inventory.size(); ++i) {
    if (skewed.inventory.true_labels[i] == 0 || i % 10 == 0) {
      keep.push_back(i);
    }
  }
  const Dataset imbalanced = skewed.inventory.Subset(keep);
  EnldConfig enld_config;
  enld_config.general = TinyGeneralConfig();
  enld_config.iterations = 2;
  EnldFramework framework(enld_config);
  framework.Setup(imbalanced);
  ExpectPartition(skewed.incremental[0],
                  framework.Detect(skewed.incremental[0]));
}

}  // namespace
}  // namespace enld
