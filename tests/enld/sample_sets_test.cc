#include "enld/sample_sets.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "data/noise.h"
#include "data/synthetic.h"
#include "nn/trainer.h"

namespace enld {
namespace {

struct TestSetup {
  Dataset data;
  std::unique_ptr<MlpModel> model;
};

TestSetup MakeSetup() {
  SyntheticConfig config;
  config.num_classes = 5;
  config.samples_per_class = 40;
  config.feature_dim = 8;
  config.class_separation = 7.0;
  config.seed = 41;
  TestSetup s;
  s.data = GenerateSynthetic(config);
  Rng rng(42);
  const auto t = TransitionMatrix::PairAsymmetric(5, 0.2);
  ApplyLabelNoise(&s.data, t, rng);
  Rng model_rng(43);
  s.model = std::make_unique<MlpModel>(std::vector<size_t>{8, 16, 5},
                                       model_rng);
  TrainConfig train;
  train.epochs = 8;
  train.seed = 44;
  TrainModel(s.model.get(), s.data, nullptr, train);
  return s;
}

TEST(SampleSetsTest, HighQualityAndAmbiguousPartitionLabeled) {
  TestSetup s = MakeSetup();
  const auto hq = HighQualityPositions(s.model.get(), s.data);
  const auto amb = AmbiguousPositions(s.model.get(), s.data);
  EXPECT_EQ(hq.size() + amb.size(), s.data.size());
  std::vector<bool> seen(s.data.size(), false);
  for (size_t i : hq) seen[i] = true;
  for (size_t i : amb) {
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](bool b) { return b; }));
}

TEST(SampleSetsTest, DefinitionsMatchModelPredictions) {
  TestSetup s = MakeSetup();
  const auto predicted = s.model->Predict(s.data.features);
  for (size_t i : HighQualityPositions(s.model.get(), s.data)) {
    EXPECT_EQ(predicted[i], s.data.observed_labels[i]);
  }
  for (size_t i : AmbiguousPositions(s.model.get(), s.data)) {
    EXPECT_NE(predicted[i], s.data.observed_labels[i]);
  }
}

TEST(SampleSetsTest, MissingLabelsInNeitherSet) {
  TestSetup s = MakeSetup();
  Rng rng(45);
  MaskMissingLabels(&s.data, 0.3, rng);
  const auto hq = HighQualityPositions(s.model.get(), s.data);
  const auto amb = AmbiguousPositions(s.model.get(), s.data);
  const size_t missing = s.data.MissingLabelIndices().size();
  EXPECT_EQ(hq.size() + amb.size() + missing, s.data.size());
  for (size_t i : hq) {
    EXPECT_NE(s.data.observed_labels[i], kMissingLabel);
  }
}

TEST(SampleSetsTest, EmptyDataset) {
  TestSetup s = MakeSetup();
  Dataset empty;
  EXPECT_TRUE(HighQualityPositions(s.model.get(), empty).empty());
  EXPECT_TRUE(AmbiguousPositions(s.model.get(), empty).empty());
}

TEST(ConfidenceFilterTest, KeepsAboveClassMean) {
  // Handcrafted probabilities: class 0 predictions with confidences
  // 0.9, 0.5, 0.7 -> mean 0.7 -> keep the 0.9 and 0.7 entries.
  Matrix probs(3, 2, 0.0f);
  probs(0, 0) = 0.9f;
  probs(1, 0) = 0.5f;
  probs(2, 0) = 0.7f;
  const std::vector<int> predicted = {0, 0, 0};
  const auto kept =
      FilterHighQualityByConfidence(probs, predicted, {0, 1, 2});
  EXPECT_EQ(kept, (std::vector<size_t>{0, 2}));
}

TEST(ConfidenceFilterTest, PerClassThresholds) {
  // Two predicted classes with different confidence scales; the filter
  // must threshold per class, not globally.
  Matrix probs(4, 2, 0.0f);
  probs(0, 0) = 0.9f;   // class 0, above its mean (0.8).
  probs(1, 0) = 0.7f;   // class 0, below.
  probs(2, 1) = 0.3f;   // class 1, above its mean (0.25).
  probs(3, 1) = 0.2f;   // class 1, below.
  const std::vector<int> predicted = {0, 0, 1, 1};
  const auto kept =
      FilterHighQualityByConfidence(probs, predicted, {0, 1, 2, 3});
  EXPECT_EQ(kept, (std::vector<size_t>{0, 2}));
}

TEST(ConfidenceFilterTest, StrictnessShrinksSelection) {
  TestSetup s = MakeSetup();
  Matrix logits;
  Matrix features;
  s.model->Forward(s.data.features, &logits, &features);
  Matrix probs;
  SoftmaxRows(logits, &probs);
  const std::vector<int> predicted = ArgMaxRows(logits);
  const auto hq = HighQualityPositions(s.model.get(), s.data);
  const auto relaxed =
      FilterHighQualityByConfidence(probs, predicted, hq, 1.0);
  const auto strict =
      FilterHighQualityByConfidence(probs, predicted, hq, 1.5);
  EXPECT_LE(strict.size(), relaxed.size());
  EXPECT_LE(relaxed.size(), hq.size());
  EXPECT_FALSE(relaxed.empty());
}

TEST(ConfidenceFilterTest, EmptyInput) {
  Matrix probs(0, 2);
  EXPECT_TRUE(FilterHighQualityByConfidence(probs, {}, {}).empty());
}

TEST(LabelMaskTest, BuildsMask) {
  const auto mask = LabelMask({1, 3}, 5);
  EXPECT_EQ(mask, (std::vector<bool>{false, true, false, true, false}));
}

TEST(RestrictToLabelSetTest, FiltersByObservedLabel) {
  Matrix features(4, 1);
  Dataset data =
      MakeDataset(std::move(features), {0, 1, 2, kMissingLabel},
                  {0, 1, 2, 0}, 3);
  const auto mask = LabelMask({0, 2}, 3);
  const auto kept = RestrictToLabelSet(data, {0, 1, 2, 3}, mask);
  EXPECT_EQ(kept, (std::vector<size_t>{0, 2}));
}

}  // namespace
}  // namespace enld
