#include "eval/experiment.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "eval/paper_setup.h"
#include "test_util.h"

namespace enld {
namespace {

using testing_util::TinyWorkloadConfig;

/// A scripted detector: flags every sample whose position is even, and
/// sleeps a little so timings are observable.
class FakeDetector : public NoisyLabelDetector {
 public:
  void Setup(const Dataset& inventory) override {
    setup_calls_++;
    inventory_size_ = inventory.size();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  DetectionResult Detect(const Dataset& incremental) override {
    detect_calls_++;
    DetectionResult result;
    for (size_t i = 0; i < incremental.size(); ++i) {
      if (incremental.observed_labels[i] == kMissingLabel) continue;
      (i % 2 == 0 ? result.noisy_indices : result.clean_indices)
          .push_back(i);
    }
    return result;
  }

  std::string name() const override { return "Fake"; }

  int setup_calls_ = 0;
  int detect_calls_ = 0;
  size_t inventory_size_ = 0;
};

TEST(RunDetectorTest, DrivesSetupThenEveryDataset) {
  const Workload workload = BuildWorkload(TinyWorkloadConfig(0.2));
  FakeDetector detector;
  const MethodRunResult result = RunDetector(&detector, workload);
  EXPECT_EQ(detector.setup_calls_, 1);
  EXPECT_EQ(detector.detect_calls_,
            static_cast<int>(workload.incremental.size()));
  EXPECT_EQ(detector.inventory_size_, workload.inventory.size());
  EXPECT_EQ(result.method, "Fake");
  EXPECT_EQ(result.method_display, "Fake");  // Not a table key: its name.
  EXPECT_DOUBLE_EQ(result.noise_rate, 0.2);
}

TEST(RunDetectorTest, RecordsTimings) {
  const Workload workload = BuildWorkload(TinyWorkloadConfig(0.2));
  FakeDetector detector;
  const MethodRunResult result = RunDetector(&detector, workload);
  EXPECT_GE(result.setup_seconds, 0.004);
  EXPECT_EQ(result.process_seconds.size(), workload.incremental.size());
  EXPECT_GE(result.average_process_seconds(), 0.0);
}

TEST(RunDetectorTest, ComputesPerDatasetMetrics) {
  const Workload workload = BuildWorkload(TinyWorkloadConfig(0.2));
  FakeDetector detector;
  const MethodRunResult result = RunDetector(&detector, workload);
  ASSERT_EQ(result.per_dataset.size(), workload.incremental.size());
  for (const DetectionMetrics& m : result.per_dataset) {
    EXPECT_GE(m.recall, 0.0);
    EXPECT_LE(m.recall, 1.0);
  }
  // The fake flags ~half of all samples; average recall should be near 0.5.
  const DetectionMetrics avg = result.average();
  EXPECT_NEAR(avg.recall, 0.5, 0.3);
}

TEST(RunDetectorTest, RetainsRawResults) {
  const Workload workload = BuildWorkload(TinyWorkloadConfig(0.2));
  FakeDetector detector;
  const MethodRunResult run = RunDetector(&detector, workload);
  ASSERT_EQ(run.raw_results.size(), workload.incremental.size());
  for (size_t d = 0; d < run.raw_results.size(); ++d) {
    EXPECT_EQ(EvaluateDetection(workload.incremental[d],
                                run.raw_results[d].noisy_indices)
                  .f1,
              run.per_dataset[d].f1);
  }
}

TEST(RunDetectorTest, AverageProcessSecondsEmptySafe) {
  MethodRunResult empty;
  EXPECT_DOUBLE_EQ(empty.average_process_seconds(), 0.0);
}

TEST(PaperSetupTest, NamesMatchPaper) {
  EXPECT_STREQ(PaperDatasetName(PaperDataset::kEmnist), "EMNIST");
  EXPECT_STREQ(PaperDatasetName(PaperDataset::kCifar100), "CIFAR100");
  EXPECT_STREQ(PaperDatasetName(PaperDataset::kTinyImagenet),
               "Tiny-Imagenet");
}

TEST(PaperSetupTest, WorkloadShapesMatchPaperStreams) {
  EXPECT_EQ(PaperWorkloadConfig(PaperDataset::kEmnist, 0.1)
                .stream.num_datasets,
            10u);
  EXPECT_EQ(PaperWorkloadConfig(PaperDataset::kCifar100, 0.1)
                .stream.num_datasets,
            20u);
  EXPECT_EQ(PaperWorkloadConfig(PaperDataset::kTinyImagenet, 0.1)
                .profile.num_classes,
            200);
}

TEST(PaperSetupTest, EnldConfigsUsePaperHyperparameters) {
  for (PaperDataset dataset :
       {PaperDataset::kEmnist, PaperDataset::kCifar100,
        PaperDataset::kTinyImagenet}) {
    const EnldConfig config = PaperEnldConfig(dataset);
    EXPECT_EQ(config.contrastive_k, 3u);       // Paper: k = 3.
    EXPECT_EQ(config.steps_per_iteration, 5u); // Paper: s = 5.
    EXPECT_EQ(config.warmup_epochs, 2u);       // Paper: 2 warm-up epochs.
  }
  // Harder tasks run more fine-grained iterations.
  EXPECT_GE(PaperEnldConfig(PaperDataset::kTinyImagenet).iterations,
            PaperEnldConfig(PaperDataset::kEmnist).iterations);
}

}  // namespace
}  // namespace enld
