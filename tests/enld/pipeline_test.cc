// RequestPipeline coverage: the batched async path is byte-identical to
// the sequential serving loop at any thread count, deadline-blown requests
// degrade without stalling the queue behind them, shutdown drains every
// queued request, and deferred snapshot writes land (and garbage-collect)
// exactly like their synchronous counterparts, off the request path.

#include "enld/pipeline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "common/faults.h"
#include "common/parallel.h"
#include "common/telemetry/metrics.h"
#include "store/snapshot.h"
#include "test_util.h"

namespace enld {
namespace {

namespace fs = std::filesystem;

using testing_util::TinyGeneralConfig;
using testing_util::TinyWorkloadConfig;

DataPlatformConfig FastPlatformConfig() {
  DataPlatformConfig config;
  config.enld.general = TinyGeneralConfig();
  config.enld.iterations = 3;
  config.enld.steps_per_iteration = 3;
  return config;
}

/// Budget for the deadline test: a latency fire charges the full budget to
/// the deadline clock, so any value overruns; it is generous so the
/// legitimate requests behind the slow one never flake under sanitizer
/// slowdown.
constexpr double kBudget = 30.0;

/// Budget for the queue-shedding test: well below the ~100 ms real stall
/// of the slow request in front (so the queued request's wait alone
/// exceeds it), yet well above the dispatcher's dequeue latency (so the
/// slow request itself is not shed before it reaches the platform).
constexpr double kQueueBudget = 0.01;

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new Workload(BuildWorkload(TinyWorkloadConfig(0.2)));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }
  void SetUp() override { faults::Clear(); }
  void TearDown() override {
    faults::Clear();
    SetParallelThreads(0);
  }
  static Workload* workload_;
};

Workload* PipelineTest::workload_ = nullptr;

/// One request's worth of reference state from the sequential loop.
struct SequentialStep {
  DetectionResult result;
  size_t clean_bank = 0;
  PlatformStats stats;
};

std::vector<SequentialStep> RunSequential(const DataPlatformConfig& config,
                                          const Workload& workload) {
  DataPlatform platform(config);
  EXPECT_TRUE(platform.Initialize(workload.inventory).ok());
  std::vector<SequentialStep> steps;
  for (const Dataset& d : workload.incremental) {
    const auto result = platform.Process(d);
    EXPECT_TRUE(result.ok());
    SequentialStep step;
    step.result = result.value();
    step.clean_bank = platform.framework().selected_clean_count();
    step.stats = platform.stats();
    steps.push_back(std::move(step));
  }
  return steps;
}

TEST_F(PipelineTest, AsyncMatchesSequentialByteForByte) {
  const DataPlatformConfig config = FastPlatformConfig();
  const std::vector<SequentialStep> expected =
      RunSequential(config, *workload_);

  // The contract holds at any pool thread count: one thread is the exact
  // sequential compute path, several split each loop across the pool.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetParallelThreads(threads);
    DataPlatform platform(config);
    ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());

    PipelineConfig pipeline_config;
    pipeline_config.batch_size = 3;
    RequestPipeline pipeline(&platform, pipeline_config);
    std::vector<std::future<PipelineResponse>> futures;
    for (const Dataset& d : workload_->incremental) {
      futures.push_back(pipeline.Submit(d));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      SCOPED_TRACE("request=" + std::to_string(i));
      PipelineResponse response = futures[i].get();
      ASSERT_TRUE(response.result.ok());
      EXPECT_EQ(response.sequence, i + 1);
      const SequentialStep& want = expected[i];
      EXPECT_EQ(response.result->noisy_indices, want.result.noisy_indices);
      EXPECT_EQ(response.result->clean_indices, want.result.clean_indices);
      EXPECT_EQ(response.result->recovered_labels,
                want.result.recovered_labels);
      EXPECT_EQ(response.clean_bank_after, want.clean_bank);
      EXPECT_EQ(response.stats_after.requests, want.stats.requests);
      EXPECT_EQ(response.stats_after.samples_processed,
                want.stats.samples_processed);
      EXPECT_EQ(response.stats_after.samples_flagged_noisy,
                want.stats.samples_flagged_noisy);
      EXPECT_EQ(response.stats_after.model_updates,
                want.stats.model_updates);
    }
    EXPECT_TRUE(pipeline.Shutdown().ok());
    const RequestPipeline::Counters counters = pipeline.counters();
    EXPECT_EQ(counters.submitted, workload_->incremental.size());
    EXPECT_EQ(counters.completed, workload_->incremental.size());
    EXPECT_GE(counters.batches, 1u);
    EXPECT_LE(counters.largest_batch, 3u);
  }
}

TEST_F(PipelineTest, RecentRequestRingIsBoundedAndCarriesRequestIds) {
  DataPlatform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());
  PipelineConfig pipeline_config;
  pipeline_config.recent_ring_capacity = 2;
  RequestPipeline pipeline(&platform, pipeline_config);

  const size_t n = workload_->incremental.size();
  ASSERT_GE(n, 3u);  // enough traffic to overflow a capacity-2 ring
  for (size_t i = 0; i < n; ++i) {
    SubmitOptions options;
    options.request_id = 500 + i;
    PipelineResponse response =
        pipeline.Submit(workload_->incremental[i], options).get();
    ASSERT_TRUE(response.result.ok());
    // The id and the stage breakdown ride back on the response.
    EXPECT_EQ(response.request_id, 500 + i);
    EXPECT_GT(response.process_seconds, 0.0);
    EXPECT_GE(response.admission_seconds, 0.0);
    EXPECT_GE(response.detect_seconds, 0.0);
  }

  // The ring keeps only the newest `recent_ring_capacity` records, oldest
  // first, each tagged with its client-set id.
  const std::vector<RequestRecord> recent = pipeline.RecentRequests();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].sequence, n - 1);
  EXPECT_EQ(recent[0].request_id, 500 + n - 2);
  EXPECT_EQ(recent[1].sequence, n);
  EXPECT_EQ(recent[1].request_id, 500 + n - 1);
  EXPECT_EQ(recent[1].status, StatusCode::kOk);
  EXPECT_GT(recent[1].process_seconds, 0.0);
  EXPECT_EQ(pipeline.queue_depth(), 0u);
  EXPECT_TRUE(pipeline.Shutdown().ok());
}

TEST_F(PipelineTest, DeadlineExceededRequestDoesNotStallQueue) {
  DataPlatformConfig config = FastPlatformConfig();
  config.request_deadline_seconds = kBudget;
  DataPlatform platform(config);
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());

  telemetry::Counter* exceeded =
      telemetry::MetricsRegistry::Global().GetCounter(
          "platform/deadline_exceeded");
  const uint64_t exceeded_before = exceeded->Value();

  // Only the first request is slow: its detection stalls past the budget.
  faults::ArmSite("platform/slow_detect", 1.0, /*max_fires=*/1,
                  /*burst_limit=*/0);

  RequestPipeline pipeline(&platform, PipelineConfig{});
  std::vector<std::future<PipelineResponse>> futures;
  for (size_t i = 0; i < 3; ++i) {
    futures.push_back(pipeline.Submit(workload_->incremental[i]));
  }

  PipelineResponse slow = futures[0].get();
  ASSERT_FALSE(slow.result.ok());
  EXPECT_EQ(slow.result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(exceeded->Value(), exceeded_before + 1);

  // The requests queued behind the slow one complete normally.
  for (size_t i = 1; i < futures.size(); ++i) {
    PipelineResponse response = futures[i].get();
    ASSERT_TRUE(response.result.ok());
    EXPECT_EQ(response.stats_after.requests_deadline_exceeded, 1u);
  }
  EXPECT_TRUE(pipeline.Shutdown().ok());
  EXPECT_EQ(platform.stats().requests, 2u);
  ASSERT_EQ(platform.deadline_audit().size(), 1u);
  EXPECT_EQ(platform.deadline_audit()[0].stage, "detection");
}

TEST_F(PipelineTest, DropStaleInQueueShedsExpiredRequests) {
  DataPlatformConfig config = FastPlatformConfig();
  config.request_deadline_seconds = kQueueBudget;
  DataPlatform platform(config);
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());

  // The first request stalls ~100 ms (real) before admission and blows its
  // small budget there; the request queued behind it accumulates at
  // least that stall as queue wait — over the budget — before the
  // dispatcher picks it up.
  faults::ArmSite("platform/slow_admission", 1.0, /*max_fires=*/1,
                  /*burst_limit=*/0);
  PipelineConfig pipeline_config;
  pipeline_config.drop_stale_in_queue = true;
  RequestPipeline pipeline(&platform, pipeline_config);

  auto slow = pipeline.Submit(workload_->incremental[0]);
  auto stale = pipeline.Submit(workload_->incremental[1]);
  EXPECT_EQ(slow.get().result.status().code(),
            StatusCode::kDeadlineExceeded);
  PipelineResponse shed = stale.get();
  EXPECT_EQ(shed.result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(shed.queue_seconds, kQueueBudget);
  EXPECT_TRUE(pipeline.Shutdown().ok());

  // The shed request never touched the platform.
  EXPECT_EQ(platform.stats().requests, 0u);
  EXPECT_EQ(platform.stats().requests_deadline_exceeded, 1u);
  EXPECT_EQ(pipeline.counters().queue_deadline_drops, 1u);
}

TEST_F(PipelineTest, QueueWaitBudgetIsDistinctFromServiceDeadline) {
  // No service deadline at all: shedding here can only come from the
  // dedicated queue-wait budget.
  DataPlatform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());

  // The first request stalls ~100 ms (real) in admission; the request
  // queued behind it waits at least that long — over the queue budget.
  faults::ArmSite("platform/slow_admission", 1.0, /*max_fires=*/1,
                  /*burst_limit=*/0);
  PipelineConfig pipeline_config;
  pipeline_config.drop_stale_in_queue = true;
  pipeline_config.queue_wait_budget_seconds = kQueueBudget;
  RequestPipeline pipeline(&platform, pipeline_config);

  auto slow = pipeline.Submit(workload_->incremental[0]);
  auto stale = pipeline.Submit(workload_->incremental[1]);
  // With no service deadline the slow request itself completes fine…
  EXPECT_TRUE(slow.get().result.ok());
  // …while the one behind it is shed purely for its queue wait.
  PipelineResponse shed = stale.get();
  EXPECT_EQ(shed.result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(shed.queue_seconds, kQueueBudget);
  EXPECT_TRUE(pipeline.Shutdown().ok());

  EXPECT_EQ(platform.stats().requests, 1u);
  EXPECT_EQ(platform.stats().requests_deadline_exceeded, 0u);
  const RequestPipeline::Counters counters = pipeline.counters();
  EXPECT_EQ(counters.queue_deadline_drops, 1u);
  EXPECT_EQ(counters.hol_blocked, 1u);
}

TEST_F(PipelineTest, HeadOfLineBlockingIsCountedWithoutShedding) {
  DataPlatform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());

  telemetry::Counter* hol = telemetry::MetricsRegistry::Global().GetCounter(
      "pipeline/hol_blocked");
  const uint64_t hol_before = hol->Value();

  faults::ArmSite("platform/slow_admission", 1.0, /*max_fires=*/1,
                  /*burst_limit=*/0);
  PipelineConfig pipeline_config;
  pipeline_config.queue_wait_budget_seconds = kQueueBudget;
  // drop_stale_in_queue stays off: the alarm counts, nothing is shed.
  RequestPipeline pipeline(&platform, pipeline_config);

  auto slow = pipeline.Submit(workload_->incremental[0]);
  auto blocked = pipeline.Submit(workload_->incremental[1]);
  EXPECT_TRUE(slow.get().result.ok());
  PipelineResponse response = blocked.get();
  EXPECT_TRUE(response.result.ok());
  EXPECT_GT(response.queue_seconds, kQueueBudget);
  EXPECT_TRUE(pipeline.Shutdown().ok());

  // Both requests were served; the blocked one was counted as HOL-hit.
  EXPECT_EQ(platform.stats().requests, 2u);
  EXPECT_EQ(pipeline.counters().hol_blocked, 1u);
  EXPECT_EQ(pipeline.counters().queue_deadline_drops, 0u);
  EXPECT_EQ(hol->Value(), hol_before + 1);
}

TEST_F(PipelineTest, SubmitOptionsDeadlineOverridesPlatformBudget) {
  // The platform itself has no deadline; only the per-request override
  // (the RPC front-end's wire header path) imposes one.
  DataPlatform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());

  faults::ArmSite("platform/slow_detect", 1.0, /*max_fires=*/1,
                  /*burst_limit=*/0);
  RequestPipeline pipeline(&platform, PipelineConfig{});

  SubmitOptions bounded;
  bounded.deadline_seconds = kBudget;
  auto slow = pipeline.Submit(workload_->incremental[0], bounded);
  auto plain = pipeline.Submit(workload_->incremental[1]);

  // The stall charges the overridden budget, so the bounded request blows
  // its deadline while the default-budget (= none) request is unaffected.
  EXPECT_EQ(slow.get().result.status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(plain.get().result.ok());
  EXPECT_TRUE(pipeline.Shutdown().ok());

  ASSERT_EQ(platform.deadline_audit().size(), 1u);
  EXPECT_EQ(platform.deadline_audit()[0].budget_seconds, kBudget);
}

TEST_F(PipelineTest, ShutdownDrainsEveryQueuedRequest) {
  DataPlatform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());

  RequestPipeline pipeline(&platform, PipelineConfig{});
  std::vector<std::future<PipelineResponse>> futures;
  for (const Dataset& d : workload_->incremental) {
    futures.push_back(pipeline.Submit(d));
  }
  // Shutdown drains: every already-submitted request still completes.
  ASSERT_TRUE(pipeline.Shutdown().ok());
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().result.ok());
  }
  EXPECT_EQ(platform.stats().requests, workload_->incremental.size());

  // After shutdown, submission fails fast instead of hanging.
  PipelineResponse rejected =
      pipeline.Submit(workload_->incremental[0]).get();
  ASSERT_FALSE(rejected.result.ok());
  EXPECT_EQ(rejected.result.status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PipelineTest, DeferredSnapshotsLandAndGarbageCollect) {
  const std::string root =
      (fs::path(::testing::TempDir()) / "pipeline_snapshots").string();
  fs::remove_all(root);

  DataPlatformConfig config = FastPlatformConfig();
  config.snapshot_keep_last = 2;
  DataPlatform platform(config);
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());

  PipelineConfig pipeline_config;
  pipeline_config.batch_size = 2;
  pipeline_config.snapshot_capture = [&platform, root] {
    return platform.BeginSnapshot(root);
  };
  RequestPipeline pipeline(&platform, pipeline_config);
  std::vector<std::future<PipelineResponse>> futures;
  for (const Dataset& d : workload_->incremental) {
    futures.push_back(pipeline.Submit(d));
  }
  for (auto& future : futures) {
    ASSERT_TRUE(future.get().result.ok());
  }
  ASSERT_TRUE(pipeline.Shutdown().ok());
  EXPECT_EQ(pipeline.counters().snapshot_writes,
            workload_->incremental.size());

  // One snapshot per request was written; retention kept the newest two,
  // and CURRENT points at the last one.
  store::SnapshotStore snapshots(root);
  EXPECT_EQ(snapshots.ListSeqs().size(), 2u);
  const auto latest = snapshots.LoadLatest();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().seq, workload_->incremental.size());
  EXPECT_EQ(latest.value().stats.requests, workload_->incremental.size());
  fs::remove_all(root);
}

TEST_F(PipelineTest, ResponseDoesNotWaitForItsSnapshotWrite) {
  // One pool thread: the write must still run beside the dispatcher, on
  // the pipeline's store thread, not inline before the response.
  SetParallelThreads(1);
  const std::string root =
      (fs::path(::testing::TempDir()) / "pipeline_gated_snapshot").string();
  fs::remove_all(root);
  DataPlatform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  PipelineConfig pipeline_config;
  pipeline_config.snapshot_capture =
      [&platform, root, opened]() -> StatusOr<std::function<Status()>> {
    StatusOr<std::function<Status()>> write = platform.BeginSnapshot(root);
    if (!write.ok()) return write.status();
    return std::function<Status()>(
        [write = std::move(write).value(), opened] {
          opened.wait();
          return write();
        });
  };
  RequestPipeline pipeline(&platform, pipeline_config);
  std::future<PipelineResponse> future =
      pipeline.Submit(workload_->incremental[0]);
  const bool answered_while_writing =
      future.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  gate.set_value();  // Opened either way, so the test never hangs.
  EXPECT_TRUE(answered_while_writing);
  EXPECT_TRUE(future.get().result.ok());

  ASSERT_TRUE(pipeline.Shutdown().ok());
  const auto latest = store::SnapshotStore(root).LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().stats.requests, 1u);
  fs::remove_all(root);
}

TEST_F(PipelineTest, SnapshotWritesOverlapModelUpdates) {
  // Every request updates the model — retraining θ and swapping I_t and
  // I_c — while the store thread may still be writing the previous
  // request's capture. Under TSan this checks that a capture shares only
  // data the framework never mutates.
  DataPlatformConfig config = FastPlatformConfig();
  config.update_every = 1;
  config.min_update_samples = 1;
  const std::vector<SequentialStep> expected =
      RunSequential(config, *workload_);
  ASSERT_GT(expected.back().stats.model_updates, 0u);
  const std::string root =
      (fs::path(::testing::TempDir()) / "pipeline_update_snapshots").string();

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetParallelThreads(threads);
    fs::remove_all(root);
    DataPlatform platform(config);
    ASSERT_TRUE(platform.Initialize(workload_->inventory).ok());
    PipelineConfig pipeline_config;
    pipeline_config.snapshot_capture = [&platform, root] {
      return platform.BeginSnapshot(root);
    };
    RequestPipeline pipeline(&platform, pipeline_config);
    std::vector<std::future<PipelineResponse>> futures;
    for (const Dataset& d : workload_->incremental) {
      futures.push_back(pipeline.Submit(d));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      PipelineResponse response = futures[i].get();
      ASSERT_TRUE(response.result.ok());
      EXPECT_EQ(response.result->noisy_indices,
                expected[i].result.noisy_indices);
      EXPECT_EQ(response.stats_after.model_updates,
                expected[i].stats.model_updates);
    }
    ASSERT_TRUE(pipeline.Shutdown().ok());

    // The last snapshot holds the state after the last update.
    DataPlatform restored(config);
    ASSERT_TRUE(restored.RestoreFromSnapshot(root).ok());
    EXPECT_EQ(restored.stats().model_updates, platform.stats().model_updates);
    EXPECT_EQ(restored.framework().candidate_set().ids,
              platform.framework().candidate_set().ids);
    EXPECT_EQ(restored.framework().CaptureState().model_weights,
              platform.framework().CaptureState().model_weights);
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace enld
