// End-to-end pipeline tests: the full data-platform scenario of the paper
// on a scaled-down workload — stream construction, every detector, the
// model-update loop and missing-label recovery, all in one place.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "data/noise.h"
#include "detect/registry.h"
#include "enld/framework.h"
#include "eval/experiment.h"
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

/// A table detector with the tests' fast general model.
std::unique_ptr<NoisyLabelDetector> Create(
    const std::string& key, detect::DetectorContext context = {}) {
  context.general = TinyGeneralConfig();
  auto detector = detect::CreateDetector(key, {}, context);
  EXPECT_TRUE(detector.ok()) << detector.status().ToString();
  return std::move(detector).value();
}

TEST(IntegrationTest, AllDetectorsCompleteOnSameStream) {
  const Workload workload = BuildWorkload(TinyWorkloadConfig(0.2));
  std::vector<std::unique_ptr<NoisyLabelDetector>> detectors;
  detectors.push_back(Create("default"));
  detectors.push_back(Create("cl1"));
  detectors.push_back(Create("cl2"));
  detect::DetectorContext topo;
  topo.topofilter.train.epochs = 5;
  detectors.push_back(Create("topofilter", topo));
  detectors.push_back(std::make_unique<EnldFramework>(FastEnldConfig()));

  for (auto& detector : detectors) {
    const MethodRunResult run = RunDetector(detector.get(), workload);
    const DetectionMetrics avg = run.average();
    EXPECT_GT(avg.f1, 0.25) << detector->name();
    EXPECT_EQ(run.per_dataset.size(), workload.incremental.size());
  }
}

TEST(IntegrationTest, EnldBestOrNearBestAtModerateNoise) {
  const Workload workload = BuildWorkload(TinyWorkloadConfig(0.2));
  EnldFramework enld(FastEnldConfig());
  const double enld_f1 = RunDetector(&enld, workload).average().f1;
  const double default_f1 =
      RunDetector(Create("default").get(), workload).average().f1;
  EXPECT_GT(enld_f1, default_f1);
}

TEST(IntegrationTest, EnldFasterThanTopofilterPerRequest) {
  const Workload workload = BuildWorkload(TinyWorkloadConfig(0.2));
  EnldFramework enld(FastEnldConfig());
  const double enld_time =
      RunDetector(&enld, workload).average_process_seconds();
  const double topo_time =
      RunDetector(Create("topofilter").get(), workload)
          .average_process_seconds();
  // The paper's efficiency claim: fine-tuning beats per-request training.
  EXPECT_LT(enld_time, topo_time);
}

TEST(IntegrationTest, QualityDegradesWithNoiseRate) {
  auto f1_at = [](double noise) {
    const Workload workload = BuildWorkload(TinyWorkloadConfig(noise));
    EnldFramework enld(FastEnldConfig());
    return RunDetector(&enld, workload).average().f1;
  };
  EXPECT_GT(f1_at(0.1), f1_at(0.4));
}

TEST(IntegrationTest, ContinuousOperationWithModelUpdate) {
  // The deployment loop of Fig. 1: detect over the stream, refresh the
  // general model from the accumulated clean inventory, keep detecting.
  const Workload workload = BuildWorkload(TinyWorkloadConfig(0.2));
  EnldFramework enld(FastEnldConfig());
  enld.Setup(workload.inventory);
  for (const Dataset& d : workload.incremental) enld.Detect(d);
  ASSERT_TRUE(enld.UpdateModel().ok());
  for (const Dataset& d : workload.incremental) {
    const DetectionResult result = enld.Detect(d);
    EXPECT_EQ(result.clean_indices.size() + result.noisy_indices.size(),
              d.size());
  }
}

TEST(IntegrationTest, ModelUpdateTrainsOnCleanSelection) {
  // Table II's full-scale improvement is reproduced by bench_paper's
  // table2 row; at this test's tiny scale (3 datasets over
  // a few classes) the selected set is too small to beat the original, so
  // assert that the update trains a *functional* model far above chance.
  const Workload workload = BuildWorkload(TinyWorkloadConfig(0.2));
  EnldFramework enld(FastEnldConfig());
  enld.Setup(workload.inventory);
  for (const Dataset& d : workload.incremental) enld.Detect(d);
  ASSERT_TRUE(enld.UpdateModel().ok());
  double after = 0.0;
  for (const Dataset& d : workload.incremental) {
    after += AccuracyAgainstTrue(enld.general_model(), d);
  }
  after /= workload.incremental.size();
  EXPECT_GT(after, 3.0 / workload.inventory.num_classes);
}

TEST(IntegrationTest, MissingLabelPipelineEndToEnd) {
  Workload workload = BuildWorkload(TinyWorkloadConfig(0.2));
  Rng rng(77);
  std::vector<std::vector<size_t>> masked;
  for (Dataset& d : workload.incremental) {
    masked.push_back(MaskMissingLabels(&d, 0.25, rng));
  }
  EnldFramework enld(FastEnldConfig());
  enld.Setup(workload.inventory);
  double recovery = 0.0;
  for (size_t i = 0; i < workload.incremental.size(); ++i) {
    const DetectionResult result = enld.Detect(workload.incremental[i]);
    recovery += PseudoLabelAccuracy(workload.incremental[i],
                                    result.recovered_labels, masked[i]);
  }
  recovery /= workload.incremental.size();
  EXPECT_GT(recovery, 0.5);
}

TEST(IntegrationTest, FullyDeterministicPipeline) {
  auto run = [] {
    const Workload workload = BuildWorkload(TinyWorkloadConfig(0.3));
    EnldFramework enld(FastEnldConfig());
    enld.Setup(workload.inventory);
    std::vector<size_t> signature;
    for (const Dataset& d : workload.incremental) {
      const DetectionResult r = enld.Detect(d);
      signature.push_back(r.noisy_indices.size());
      for (size_t i : r.noisy_indices) signature.push_back(i);
    }
    return signature;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace enld
