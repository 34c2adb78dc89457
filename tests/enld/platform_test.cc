#include "enld/platform.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/faults.h"
#include "common/telemetry/metrics.h"
#include "test_util.h"

namespace enld {
namespace {

using testing_util::TinyGeneralConfig;
using testing_util::TinyWorkloadConfig;

DataPlatformConfig FastPlatformConfig() {
  DataPlatformConfig config;
  config.enld.general = TinyGeneralConfig();
  config.enld.iterations = 3;
  config.enld.steps_per_iteration = 3;
  return config;
}

class PlatformTest : public ::testing::Test {
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

Workload* PlatformTest::workload_ = nullptr;

TEST_F(PlatformTest, ProcessBeforeInitializeFails) {
  DataPlatform platform(FastPlatformConfig());
  EXPECT_FALSE(platform.initialized());
  const auto result = platform.Process(workload_->incremental[0]);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PlatformTest, InitializeValidatesInventory) {
  DataPlatform platform(FastPlatformConfig());
  Dataset empty;
  EXPECT_EQ(platform.Initialize(empty).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(platform.Initialize(workload_->inventory).ok());
  EXPECT_TRUE(platform.initialized());
  // Double initialization is rejected.
  EXPECT_EQ(platform.Initialize(workload_->inventory).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PlatformTest, ProcessValidatesRequest) {
  DataPlatform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());

  EXPECT_EQ(platform.Process(Dataset()).status().code(),
            StatusCode::kInvalidArgument);

  // Wrong feature dimension.
  Dataset wrong_dim = workload_->incremental[0];
  wrong_dim.features = Matrix(wrong_dim.size(), wrong_dim.dim() + 1);
  EXPECT_EQ(platform.Process(wrong_dim).status().code(),
            StatusCode::kInvalidArgument);

  // Wrong class count.
  Dataset wrong_classes = workload_->incremental[0];
  wrong_classes.num_classes += 5;
  EXPECT_EQ(platform.Process(wrong_classes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PlatformTest, ProcessServesRequestsAndTracksStats) {
  DataPlatform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());
  size_t total = 0;
  size_t flagged = 0;
  for (const Dataset& d : workload_->incremental) {
    const auto result = platform.Process(d);
    ASSERT_TRUE(result.ok());
    total += d.size();
    flagged += result->noisy_indices.size();
  }
  const PlatformStats& stats = platform.stats();
  EXPECT_EQ(stats.requests, workload_->incremental.size());
  EXPECT_EQ(stats.samples_processed, total);
  EXPECT_EQ(stats.samples_flagged_noisy, flagged);
  EXPECT_GT(platform.last_request_timings().detect_seconds, 0.0);
  EXPECT_EQ(stats.model_updates, 0u);
}

TEST_F(PlatformTest, AutoUpdatePolicyFiresWhenEnoughSelected) {
  DataPlatformConfig config = FastPlatformConfig();
  config.update_every = 2;
  config.min_update_samples = 1;  // Fire as soon as anything is selected.
  DataPlatform platform(config);
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());
  for (const Dataset& d : workload_->incremental) {
    ASSERT_TRUE(platform.Process(d).ok());
  }
  EXPECT_GE(platform.stats().model_updates, 1u);
}

TEST_F(PlatformTest, AutoUpdateSkippedBelowMinimum) {
  DataPlatformConfig config = FastPlatformConfig();
  config.update_every = 1;
  config.min_update_samples = 1'000'000;  // Never enough.
  DataPlatform platform(config);
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());
  for (const Dataset& d : workload_->incremental) {
    ASSERT_TRUE(platform.Process(d).ok());
  }
  EXPECT_EQ(platform.stats().model_updates, 0u);
}

TEST_F(PlatformTest, ManualUpdateRespectsMinimum) {
  DataPlatformConfig config = FastPlatformConfig();
  config.min_update_samples = 1'000'000;
  DataPlatform platform(config);
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());
  ASSERT_TRUE(platform.Process(workload_->incremental[0]).ok());
  EXPECT_EQ(platform.Update().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PlatformTest, ManualUpdateSucceedsWithSelection) {
  DataPlatformConfig config = FastPlatformConfig();
  config.min_update_samples = 1;
  DataPlatform platform(config);
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());
  for (const Dataset& d : workload_->incremental) {
    ASSERT_TRUE(platform.Process(d).ok());
  }
  EXPECT_TRUE(platform.Update().ok());
  EXPECT_EQ(platform.stats().model_updates, 1u);
  // Platform keeps serving after an update.
  EXPECT_TRUE(platform.Process(workload_->incremental[0]).ok());
}

/// The latency fault sites sleep at least this long per fire
/// (kInjectedStallSeconds in platform.cc).
constexpr double kMinStall = 0.1;

/// Budget used by the deadline tests. A latency fire charges the full
/// budget to the deadline clock, so any value works for the overrun; it is
/// set generously above the tiny workload's real processing time so the
/// legitimate requests around the slow one never flake — even under
/// TSan/ASan slowdown.
constexpr double kBudget = 30.0;

class PlatformFaultTest : public PlatformTest {
 protected:
  void SetUp() override { faults::Clear(); }
  void TearDown() override { faults::Clear(); }
};

TEST_F(PlatformFaultTest, ProcessChargesScreeningTimeToStats) {
  // Regression: the Process stopwatch used to start *after* admission
  // screening, so screening (and any stall inside it) was invisible in
  // the request's timings. The stall fires before admission; with timing
  // measured from request entry it must show up for unscreened, screened
  // and rejected requests alike.
  DataPlatform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());
  faults::ArmSite("platform/slow_admission", 1.0, /*max_fires=*/3,
                  /*burst_limit=*/0);

  // Unscreened request: every sample admitted.
  ASSERT_TRUE(platform.Process(workload_->incremental[0]).ok());
  EXPECT_GE(platform.last_request_timings().admission_seconds, kMinStall);

  // Screened request: one sample quarantined, the remainder processed.
  Dataset screened = workload_->incremental[1];
  screened.features.Row(0)[0] = std::numeric_limits<float>::quiet_NaN();
  ASSERT_TRUE(platform.Process(screened).ok());
  EXPECT_EQ(platform.stats().samples_quarantined, 1u);
  EXPECT_GE(platform.last_request_timings().admission_seconds, kMinStall);

  // Rejected request: every sample invalid — the request fails, but the
  // time it consumed is still charged.
  Dataset rejected = workload_->incremental[2];
  for (size_t r = 0; r < rejected.size(); ++r) {
    rejected.features.Row(r)[0] = std::numeric_limits<float>::quiet_NaN();
  }
  EXPECT_EQ(platform.Process(rejected).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_GE(platform.last_request_timings().admission_seconds, kMinStall);
}

TEST_F(PlatformFaultTest, DeadlineAtAdmissionLeavesDetectionStreamUntouched) {
  DataPlatformConfig config = FastPlatformConfig();
  config.request_deadline_seconds = kBudget;

  DataPlatform slowed(config);
  ASSERT_TRUE(slowed.Initialize(workload_->inventory).ok());
  DataPlatform reference(config);
  ASSERT_TRUE(reference.Initialize(workload_->inventory).ok());

  telemetry::Counter* exceeded =
      telemetry::MetricsRegistry::Global().GetCounter(
          "platform/deadline_exceeded");
  const uint64_t exceeded_before = exceeded->Value();

  // Only the first request is slow; the fire charges the whole budget to
  // the deadline clock, guaranteeing the overrun.
  faults::ArmSite("platform/slow_admission", 1.0, /*max_fires=*/1,
                  /*burst_limit=*/0);
  const auto dropped = slowed.Process(workload_->incremental[0]);
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(exceeded->Value(), exceeded_before + 1);

  const PlatformStats& stats = slowed.stats();
  EXPECT_EQ(stats.requests, 0u);  // the dropped request served nothing
  EXPECT_EQ(stats.requests_deadline_exceeded, 1u);
  ASSERT_EQ(slowed.deadline_audit().size(), 1u);
  EXPECT_EQ(slowed.deadline_audit()[0].stage, "admission");
  EXPECT_EQ(slowed.deadline_audit()[0].request, 1u);
  EXPECT_GT(slowed.deadline_audit()[0].elapsed_seconds, kBudget);
  EXPECT_DOUBLE_EQ(slowed.deadline_audit()[0].budget_seconds, kBudget);

  // An admission-stage drop never touches the framework (RNG included):
  // the next request detects byte-identically to a platform that never saw
  // the dropped one.
  const auto after_drop = slowed.Process(workload_->incremental[1]);
  const auto fresh = reference.Process(workload_->incremental[1]);
  ASSERT_TRUE(after_drop.ok());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(after_drop->noisy_indices, fresh->noisy_indices);
  EXPECT_EQ(after_drop->clean_indices, fresh->clean_indices);
}

TEST_F(PlatformFaultTest, DeadlineAfterDetectionDiscardsResult) {
  DataPlatformConfig config = FastPlatformConfig();
  config.request_deadline_seconds = kBudget;
  DataPlatform platform(config);
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());

  faults::ArmSite("platform/slow_detect", 1.0, /*max_fires=*/1,
                  /*burst_limit=*/0);
  const auto dropped = platform.Process(workload_->incremental[0]);
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kDeadlineExceeded);

  // Detection ran but its result was discarded: no serving counters moved.
  EXPECT_EQ(platform.stats().requests, 0u);
  EXPECT_EQ(platform.stats().samples_processed, 0u);
  EXPECT_EQ(platform.stats().requests_deadline_exceeded, 1u);
  ASSERT_EQ(platform.deadline_audit().size(), 1u);
  EXPECT_EQ(platform.deadline_audit()[0].stage, "detection");

  // The stream behind the slow request keeps flowing.
  EXPECT_TRUE(platform.Process(workload_->incremental[1]).ok());
  EXPECT_EQ(platform.stats().requests, 1u);
}

TEST_F(PlatformFaultTest, DeadlineOverrideReplacesConfigBudgetPerRequest) {
  // The config has no budget; a positive per-request override (the wire
  // deadline header path, docs/SERVING.md §4) imposes one anyway.
  DataPlatform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());
  faults::ArmSite("platform/slow_detect", 1.0, /*max_fires=*/1,
                  /*burst_limit=*/0);
  const auto bounded =
      platform.Process(workload_->incremental[0], /*deadline=*/kBudget);
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_EQ(platform.deadline_audit().size(), 1u);
  EXPECT_DOUBLE_EQ(platform.deadline_audit()[0].budget_seconds, kBudget);
  // The default (negative) override keeps the config's no-deadline policy.
  EXPECT_TRUE(platform.Process(workload_->incremental[1]).ok());
}

TEST_F(PlatformFaultTest, ZeroDeadlineOverrideDisablesConfigBudget) {
  // The config budget would fail the stalled request; an explicit 0
  // override disables the deadline for this request only.
  DataPlatformConfig config = FastPlatformConfig();
  config.request_deadline_seconds = kBudget;
  DataPlatform platform(config);
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());
  faults::ArmSite("platform/slow_detect", 1.0, /*max_fires=*/2,
                  /*burst_limit=*/0);
  EXPECT_TRUE(
      platform.Process(workload_->incremental[0], /*deadline=*/0.0).ok());
  // The next stalled request runs under the config budget again.
  EXPECT_EQ(platform.Process(workload_->incremental[1]).status().code(),
            StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace enld
