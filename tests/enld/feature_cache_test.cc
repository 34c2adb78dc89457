#include "enld/feature_cache.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/telemetry/metrics.h"
#include "enld/framework.h"
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

class FeatureCacheTest : public ::testing::Test {
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

Workload* FeatureCacheTest::workload_ = nullptr;

TEST(FeatureCacheUnitTest, ViewKeyedOnVersion) {
  FeatureCache cache;
  const uint64_t v = cache.model_version();
  EXPECT_EQ(cache.FindView(v), nullptr);
  EXPECT_EQ(cache.stats().view_misses, 1u);

  ModelView view;
  view.predicted = {1, 2, 3};
  const ModelView* stored = cache.StoreView(v, std::move(view));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(cache.FindView(v), stored);
  EXPECT_EQ(cache.stats().view_hits, 1u);

  cache.BumpModelVersion();
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_NE(cache.model_version(), v);
  EXPECT_EQ(cache.FindView(cache.model_version()), nullptr);
  // A second bump with nothing cached is not an invalidation.
  cache.BumpModelVersion();
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST_F(FeatureCacheTest, SelectViewRowsMatchesDirectCompute) {
  const Dataset& full_set = workload_->incremental[0];
  Rng rng(11);
  MlpModel model({full_set.dim(), 24, static_cast<size_t>(
                                          full_set.num_classes)},
                 rng);
  const ModelView full = ComputeModelView(&model, full_set);
  const std::vector<size_t> rows = {0, 2, 5, 7, full_set.size() - 1};
  const ModelView selected = SelectViewRows(full, rows);
  const ModelView direct = ComputeModelView(&model, full_set.Subset(rows));
  // The bit-identity FeatureCache depends on: selecting rows of the full
  // view equals forwarding the subset directly.
  ExpectSameMatrixBits(selected.probs, direct.probs);
  ExpectSameMatrixBits(selected.features, direct.features);
  EXPECT_EQ(selected.predicted, direct.predicted);
}

TEST_F(FeatureCacheTest, CachedDetectionIsByteIdenticalAndBuildsSameTrees) {
  EnldConfig cached_config = FastEnldConfig();
  EnldConfig uncached_config = cached_config;
  uncached_config.use_feature_cache = false;

  auto* trees_built =
      telemetry::MetricsRegistry::Global().GetCounter("knn/trees_built");

  EnldFramework cached(cached_config);
  EnldFramework uncached(uncached_config);
  ASSERT_TRUE(cached.feature_cache_enabled());
  ASSERT_FALSE(uncached.feature_cache_enabled());
  cached.Setup(workload_->inventory);
  uncached.Setup(workload_->inventory);

  // Detect the same dataset twice per framework: the second request reuses
  // the cached view (same model version). The view cache saves forward
  // passes only; every sampling round builds its class KD-trees afresh.
  const Dataset& d = workload_->incremental[0];
  const uint64_t uncached_before = trees_built->Value();
  const DetectionResult u1 = uncached.Detect(d);
  const DetectionResult u2 = uncached.Detect(d);
  const uint64_t uncached_trees = trees_built->Value() - uncached_before;

  const uint64_t cached_before = trees_built->Value();
  const DetectionResult c1 = cached.Detect(d);
  const DetectionResult c2 = cached.Detect(d);
  const uint64_t cached_trees = trees_built->Value() - cached_before;

  ExpectSameResult(c1, u1);
  ExpectSameResult(c2, u2);
  EXPECT_EQ(cached_trees, uncached_trees);
  const FeatureCache::Stats& stats = cached.feature_cache().stats();
  EXPECT_GE(stats.view_hits, 1u);
}

TEST_F(FeatureCacheTest, TrainerUpdatesInvalidate) {
  EnldFramework enld(FastEnldConfig());
  enld.Setup(workload_->inventory);
  const uint64_t after_setup = enld.feature_cache().model_version();
  (void)enld.Detect(workload_->incremental[0]);
  EXPECT_EQ(enld.feature_cache().model_version(), after_setup);

  ASSERT_TRUE(enld.UpdateModel().ok());
  EXPECT_GT(enld.feature_cache().model_version(), after_setup);
  EXPECT_GE(enld.feature_cache().stats().invalidations, 1u);

  // Restore also lands on a fresh version: nothing cached from the
  // pre-restore lineage may be served.
  EnldFrameworkState state = enld.CaptureState();
  const uint64_t before_restore = enld.feature_cache().model_version();
  ASSERT_TRUE(enld.RestoreState(std::move(state)).ok());
  EXPECT_GT(enld.feature_cache().model_version(), before_restore);

  // Explicit ops invalidation.
  const uint64_t before_manual = enld.feature_cache().model_version();
  enld.InvalidateFeatureCache();
  EXPECT_GT(enld.feature_cache().model_version(), before_manual);
}

TEST_F(FeatureCacheTest, UpdateSeedsTheNextVersionsView) {
  EnldConfig uncached_config = FastEnldConfig();
  uncached_config.use_feature_cache = false;
  EnldFramework cached(FastEnldConfig());
  EnldFramework uncached(uncached_config);
  cached.Setup(workload_->inventory);
  uncached.Setup(workload_->inventory);
  for (EnldFramework* enld : {&cached, &uncached}) {
    (void)enld->Detect(workload_->incremental[0]);
    ASSERT_TRUE(enld->UpdateModel().ok());
  }
  EXPECT_EQ(cached.conditional(), uncached.conditional());

  // UpdateModel's P̃ pass stored the new version's candidate view, so the
  // next request reuses it instead of forwarding I_c again.
  const FeatureCache::Stats before = cached.feature_cache().stats();
  const DetectionResult c = cached.Detect(workload_->incremental[1]);
  const DetectionResult u = uncached.Detect(workload_->incremental[1]);
  const FeatureCache::Stats& after = cached.feature_cache().stats();
  EXPECT_EQ(after.view_hits, before.view_hits + 1);
  EXPECT_EQ(after.view_misses, before.view_misses);
  ExpectSameResult(c, u);
}

TEST(FeatureCacheEnvTest, EnvVarDisablesCache) {
  ASSERT_EQ(setenv("ENLD_FEATURE_CACHE", "0", 1), 0);
  EnldFramework disabled(FastEnldConfig());
  EXPECT_FALSE(disabled.feature_cache_enabled());
  ASSERT_EQ(setenv("ENLD_FEATURE_CACHE", "1", 1), 0);
  EnldFramework enabled(FastEnldConfig());
  EXPECT_TRUE(enabled.feature_cache_enabled());
  ASSERT_EQ(unsetenv("ENLD_FEATURE_CACHE"), 0);
}

}  // namespace
}  // namespace enld
