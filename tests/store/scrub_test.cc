// Self-healing store coverage (docs/ROBUSTNESS.md §"Self-healing
// runbook"): the scrubber finds and types every planted defect, repair
// rebuilds damaged artifacts from surviving sections, sibling-snapshot
// donors or an operator --source directory, state.bin damage degrades to a
// typed failure (or an explicit rollback), and a crash-point matrix over
// repair's publish path shows that a fault at ANY durable-write step
// leaves CURRENT and the surviving snapshot byte-identical — then a re-run
// of the same repair heals the store.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/faults.h"
#include "common/retry.h"
#include "data/workload.h"
#include "enld/platform.h"
#include "store/io.h"
#include "store/manifest.h"
#include "store/repair.h"
#include "store/scrub.h"
#include "store/snapshot.h"
#include "test_util.h"

namespace enld {
namespace {

namespace fs = std::filesystem;

DataPlatformConfig FastPlatformConfig() {
  DataPlatformConfig config;
  config.enld.general = testing_util::TinyGeneralConfig();
  config.enld.iterations = 3;
  config.enld.steps_per_iteration = 3;
  return config;
}

/// Clears the fault registry, pins a sleep-free retry policy, and gives
/// each test a private store root, like the fault-injection fixture.
class ScrubRepairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    faults::Clear();
    saved_policy_ = store::DefaultIoRetryPolicy();
    store::DefaultIoRetryPolicy().initial_backoff_seconds = 0.0;
    store::DefaultIoRetryPolicy().max_backoff_seconds = 0.0;
    root_ = fs::path(::testing::TempDir()) /
            ("scrub_test_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override {
    faults::Clear();
    store::DefaultIoRetryPolicy() = saved_policy_;
    fs::remove_all(root_);
  }

  std::string Root() const { return root_.string(); }
  std::string Path(const std::string& name) const {
    return (root_ / name).string();
  }

  RetryPolicy saved_policy_;
  fs::path root_;
};

/// All scrub/repair tests share one initialized platform; every test saves
/// its snapshots into its own root, so only the (const) in-memory state is
/// shared.
class ScrubRepairStoreTest : public ScrubRepairTest {
 protected:
  static void SetUpTestSuite() {
    workload_ =
        new Workload(BuildWorkload(testing_util::TinyWorkloadConfig(0.2)));
    platform_ = new DataPlatform(FastPlatformConfig());
    ASSERT_TRUE(platform_->Initialize(workload_->inventory).ok());
    ASSERT_TRUE(platform_->Process(workload_->incremental[0]).ok());
  }
  static void TearDownTestSuite() {
    delete platform_;
    delete workload_;
    platform_ = nullptr;
    workload_ = nullptr;
  }

  /// Saves `count` snapshots of the shared platform state into root_.
  /// Consecutive saves of an unchanged platform produce byte-identical
  /// shards and model files (deterministic encoding), which is exactly
  /// what the donor_file repair path needs.
  void SaveSnapshots(int count) {
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(platform_->SaveSnapshot(Root()).ok());
    }
  }

  /// Flips one byte at `offset` within the file (read-modify-write, size
  /// preserved) — a bit-rot model, not truncation.
  static void FlipByte(const std::string& path, size_t offset) {
    StatusOr<std::string> data = store::ReadFile(path);
    ASSERT_TRUE(data.ok()) << path;
    ASSERT_LT(offset, data.value().size()) << path;
    std::string bytes = std::move(data).value();
    bytes[offset] ^= 0x5A;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
  }

  /// Byte offset of the last section's payload inside a shard file — the
  /// missing-label bitmap, the one section repair can regenerate from the
  /// others. Derived from the envelope layout (40-byte header, then
  /// id u32 + len u64 + crc u32 + payload per section).
  static size_t BitmapPayloadOffset(const std::string& shard_path) {
    StatusOr<std::string> data = store::ReadFile(shard_path);
    EXPECT_TRUE(data.ok());
    const std::string& bytes = data.value();
    size_t offset = 40;
    for (int section = 0; section < 4; ++section) {
      uint64_t length = 0;
      std::memcpy(&length, bytes.data() + offset + 4, sizeof(length));
      offset += 16 + length;
    }
    return offset + 16;  // skip the bitmap's own envelope header
  }

  std::string ShardPath(uint64_t seq, const std::string& dataset) const {
    return Path(store::SnapshotStore::DirName(seq) + "/" + dataset +
                "/shard-00000.bin");
  }

  static Workload* workload_;
  static DataPlatform* platform_;
};

Workload* ScrubRepairStoreTest::workload_ = nullptr;
DataPlatform* ScrubRepairStoreTest::platform_ = nullptr;

TEST_F(ScrubRepairStoreTest, CleanStoreScrubsClean) {
  SaveSnapshots(1);
  const StatusOr<store::ScrubReport> report = store::ScrubSnapshotStore(Root());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().clean());
  EXPECT_EQ(report.value().current_seq, 1u);
  EXPECT_EQ(report.value().scrubbed, std::vector<uint64_t>{1});
  EXPECT_GT(report.value().files_checked, 0u);
  EXPECT_GT(report.value().sections_checked, 0u);
  EXPECT_GT(report.value().bytes_scrubbed, 0u);
  EXPECT_EQ(report.value().intact_seqs(), std::vector<uint64_t>{1});
}

TEST_F(ScrubRepairStoreTest, ScrubTypesPlantedCorruption) {
  SaveSnapshots(2);
  FlipByte(ShardPath(2, store::kSnapshotTrainDir), 48);  // features payload

  const StatusOr<store::ScrubReport> report = store::ScrubSnapshotStore(Root());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report.value().clean());
  EXPECT_TRUE(report.value().snapshot_clean(1));
  EXPECT_FALSE(report.value().snapshot_clean(2));
  EXPECT_EQ(report.value().intact_seqs(), std::vector<uint64_t>{1});
  bool found_crc = false;
  for (const store::ScrubFinding& finding : report.value().findings) {
    EXPECT_EQ(finding.seq, 2u) << finding.file << ": " << finding.detail;
    if (finding.reason == "crc_mismatch") found_crc = true;
  }
  EXPECT_TRUE(found_crc);
}

TEST_F(ScrubRepairStoreTest, ScrubFlagsMalformedCurrentPointer) {
  SaveSnapshots(1);
  ASSERT_TRUE(store::WriteFileDurable(Path("CURRENT"), "snap-garbage\n").ok());
  const StatusOr<store::ScrubReport> report = store::ScrubSnapshotStore(Root());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().current_seq, 0u);
  ASSERT_FALSE(report.value().findings.empty());
  EXPECT_EQ(report.value().findings[0].section, "pointer");
  // The snapshot itself is still intact — only the pointer is damaged.
  EXPECT_EQ(report.value().intact_seqs(), std::vector<uint64_t>{1});
}

TEST_F(ScrubRepairStoreTest, RepairRebuildsShardFromSurvivingSections) {
  SaveSnapshots(1);
  const std::string shard = ShardPath(1, store::kSnapshotTrainDir);
  FlipByte(shard, BitmapPayloadOffset(shard));

  const StatusOr<store::RepairReport> report =
      store::RepairSnapshotStore(Root());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().clean);
  EXPECT_TRUE(report.value().repaired);
  EXPECT_TRUE(report.value().failure.empty()) << report.value().failure;
  EXPECT_EQ(report.value().target_seq, 1u);
  EXPECT_EQ(report.value().published_seq, 2u);
  ASSERT_FALSE(report.value().actions.empty());
  EXPECT_EQ(report.value().actions[0].method, "section_rebuild");

  // The healed store scrubs clean and restores.
  const StatusOr<store::ScrubReport> rescrub = store::ScrubSnapshotStore(Root());
  ASSERT_TRUE(rescrub.ok());
  EXPECT_TRUE(rescrub.value().clean()) << rescrub.value().findings.size();
  DataPlatform restored(FastPlatformConfig());
  ASSERT_TRUE(restored.RestoreFromSnapshot(Root()).ok());
  EXPECT_EQ(restored.stats().requests, platform_->stats().requests);
  const EnldFrameworkState want = platform_->framework().CaptureState();
  EXPECT_EQ(restored.framework().CaptureState().model_weights,
            want.model_weights);
}

TEST_F(ScrubRepairStoreTest, RepairCopiesShardFromSiblingDonor) {
  SaveSnapshots(2);
  // Destroy the shard header too, so section_rebuild cannot run and the
  // repairer must fall back to the byte-identical donor in snap-000001.
  const std::string shard = ShardPath(2, store::kSnapshotTrainDir);
  FlipByte(shard, 0);
  FlipByte(shard, 48);

  const StatusOr<store::RepairReport> report =
      store::RepairSnapshotStore(Root());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report.value().repaired) << report.value().failure;
  EXPECT_EQ(report.value().target_seq, 2u);
  EXPECT_EQ(report.value().published_seq, 3u);
  ASSERT_FALSE(report.value().actions.empty());
  EXPECT_EQ(report.value().actions[0].method, "donor_file");

  const StatusOr<store::ScrubReport> rescrub = store::ScrubSnapshotStore(Root());
  ASSERT_TRUE(rescrub.ok());
  EXPECT_TRUE(rescrub.value().clean());
  DataPlatform restored(FastPlatformConfig());
  ASSERT_TRUE(restored.RestoreFromSnapshot(Root()).ok());
  EXPECT_EQ(restored.stats().requests, platform_->stats().requests);
}

TEST_F(ScrubRepairStoreTest, RepairRebuildsRowsFromSourceDirectory) {
  SaveSnapshots(1);
  // With a single snapshot there is no sibling donor; the operator supplies
  // the corrected dataset via --source instead.
  const EnldFrameworkState state = platform_->framework().CaptureState();
  const std::string source_dir = Path("source-train");
  ASSERT_TRUE(
      store::SaveDatasetSharded(*state.train_set, source_dir, "train").ok());
  const std::string shard = ShardPath(1, store::kSnapshotTrainDir);
  FlipByte(shard, 0);
  FlipByte(shard, 48);

  store::RepairOptions options;
  options.source_dir = source_dir;
  const StatusOr<store::RepairReport> report =
      store::RepairSnapshotStore(Root(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report.value().repaired) << report.value().failure;
  ASSERT_FALSE(report.value().actions.empty());
  EXPECT_EQ(report.value().actions[0].method, "donor_rows");
  EXPECT_EQ(report.value().actions[0].source, source_dir);

  DataPlatform restored(FastPlatformConfig());
  ASSERT_TRUE(restored.RestoreFromSnapshot(Root()).ok());
  EXPECT_EQ(restored.framework().CaptureState().train_set->size(),
            state.train_set->size());
}

TEST_F(ScrubRepairStoreTest, DryRunPlansWithoutMutatingStore) {
  SaveSnapshots(1);
  const std::string shard = ShardPath(1, store::kSnapshotTrainDir);
  FlipByte(shard, BitmapPayloadOffset(shard));
  const StatusOr<std::string> current_before =
      store::ReadFile(Path("CURRENT"));
  ASSERT_TRUE(current_before.ok());

  store::RepairOptions options;
  options.dry_run = true;
  const StatusOr<store::RepairReport> report =
      store::RepairSnapshotStore(Root(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().dry_run);
  EXPECT_FALSE(report.value().repaired);
  EXPECT_EQ(report.value().published_seq, 0u);
  ASSERT_FALSE(report.value().actions.empty());
  EXPECT_EQ(report.value().actions[0].method, "section_rebuild");

  // Nothing changed on disk: same pointer, same damaged shard, no new dirs.
  EXPECT_EQ(store::ReadFile(Path("CURRENT")).value(), current_before.value());
  EXPECT_EQ(store::SnapshotStore(Root()).ListSeqs(),
            std::vector<uint64_t>{1});

  // The real run then heals what the plan described.
  const StatusOr<store::RepairReport> heal = store::RepairSnapshotStore(Root());
  ASSERT_TRUE(heal.ok());
  EXPECT_TRUE(heal.value().repaired);
}

TEST_F(ScrubRepairStoreTest, RepairRebuildsDamagedCurrentPointer) {
  SaveSnapshots(2);
  ASSERT_TRUE(store::WriteFileDurable(Path("CURRENT"), "snap-garbage\n").ok());

  const StatusOr<store::RepairReport> report =
      store::RepairSnapshotStore(Root());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report.value().repaired) << report.value().failure;
  EXPECT_EQ(report.value().target_seq, 2u);
  EXPECT_EQ(report.value().published_seq, 2u);
  ASSERT_FALSE(report.value().actions.empty());
  EXPECT_EQ(report.value().actions[0].method, "current_rebuild");
  EXPECT_EQ(store::ReadFile(Path("CURRENT")).value(), "snap-000002\n");
  DataPlatform restored(FastPlatformConfig());
  ASSERT_TRUE(restored.RestoreFromSnapshot(Root()).ok());
}

TEST_F(ScrubRepairStoreTest, DamagedStateBinFailsWithTypedFailure) {
  SaveSnapshots(2);
  // state.bin is unique per snapshot: no donor can rebuild it.
  FlipByte(Path(store::SnapshotStore::DirName(2) + "/" +
                store::kSnapshotStateFile),
           48);

  const StatusOr<store::RepairReport> report =
      store::RepairSnapshotStore(Root());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().repaired);
  ASSERT_FALSE(report.value().failure.empty());
  // The failure names the newest intact snapshot the operator can roll
  // back to.
  EXPECT_NE(report.value().failure.find("snap-000001"), std::string::npos)
      << report.value().failure;
  // Without --allow_rollback nothing moved.
  EXPECT_EQ(store::ReadFile(Path("CURRENT")).value(), "snap-000002\n");

  store::RepairOptions options;
  options.allow_rollback = true;
  const StatusOr<store::RepairReport> rollback =
      store::RepairSnapshotStore(Root(), options);
  ASSERT_TRUE(rollback.ok()) << rollback.status().ToString();
  EXPECT_TRUE(rollback.value().repaired);
  EXPECT_EQ(rollback.value().published_seq, 1u);
  ASSERT_FALSE(rollback.value().actions.empty());
  EXPECT_EQ(rollback.value().actions.front().method, "rollback");
  // The abandoned damaged snapshot is garbage-collected, so the healed
  // lineage scrubs clean.
  EXPECT_EQ(rollback.value().actions.back().method, "gc");
  EXPECT_FALSE(fs::exists(root_ / store::SnapshotStore::DirName(2)));
  EXPECT_EQ(store::ReadFile(Path("CURRENT")).value(), "snap-000001\n");
  DataPlatform restored(FastPlatformConfig());
  ASSERT_TRUE(restored.RestoreFromSnapshot(Root()).ok());
  EXPECT_EQ(restored.stats().requests, platform_->stats().requests);
}

TEST_F(ScrubRepairStoreTest, ScrubReadFaultDegradesToFindingsNeverMutates) {
  SaveSnapshots(1);
  const std::string current_before = store::ReadFile(Path("CURRENT")).value();

  // A persistently unreadable store is reported, not propagated: every
  // file degrades to a typed "unreadable" finding, and the scrub — which
  // never writes — leaves the store untouched.
  store::DefaultIoRetryPolicy().max_attempts = 1;
  faults::ArmSite("store/scrub_read", 1.0, /*max_fires=*/0,
                  /*burst_limit=*/0);
  const StatusOr<store::ScrubReport> stormy = store::ScrubSnapshotStore(Root());
  ASSERT_TRUE(stormy.ok()) << stormy.status().ToString();
  ASSERT_FALSE(stormy.value().clean());
  for (const store::ScrubFinding& finding : stormy.value().findings) {
    EXPECT_EQ(finding.reason, "unreadable") << finding.detail;
  }
  faults::Clear();
  EXPECT_EQ(store::ReadFile(Path("CURRENT")).value(), current_before);
  store::DefaultIoRetryPolicy().max_attempts = saved_policy_.max_attempts;
  const StatusOr<store::ScrubReport> calm = store::ScrubSnapshotStore(Root());
  ASSERT_TRUE(calm.ok());
  EXPECT_TRUE(calm.value().clean());

  // Transient scrub-read faults during a real repair are absorbed by the
  // store retry policy.
  const std::string shard = ShardPath(1, store::kSnapshotTrainDir);
  FlipByte(shard, BitmapPayloadOffset(shard));
  faults::ArmSite("store/scrub_read", 1.0, /*max_fires=*/2,
                  /*burst_limit=*/0);
  const StatusOr<store::RepairReport> retried =
      store::RepairSnapshotStore(Root());
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(retried.value().repaired);
  EXPECT_GE(faults::TotalFires(), 2u);
}

// The repair crash-point matrix (the "kill-resume drill" of the runbook):
// damage a store, then re-run the repair with an injected crash at the
// k-th check of every durable-write site repair goes through, for every k.
// Each faulted repair must fail without moving CURRENT or perturbing a
// single byte of the surviving snapshot — and a re-run of the same repair
// on the crashed store must heal it.
TEST_F(ScrubRepairStoreTest, CrashPointMatrixPreservesPreRepairSnapshot) {
  SaveSnapshots(2);
  const std::string shard = ShardPath(2, store::kSnapshotTrainDir);
  FlipByte(shard, BitmapPayloadOffset(shard));
  const fs::path work = fs::path(Root() + "-work");
  fs::remove_all(work);
  fs::copy(root_, work, fs::copy_options::recursive);

  const std::string state_rel =
      store::SnapshotStore::DirName(1) + "/" + store::kSnapshotStateFile;
  const std::string current_before =
      store::ReadFile((work / "CURRENT").string()).value();
  const std::string survivor_before =
      store::ReadFile((work / state_rel).string()).value();

  // Count how many times a clean repair checks each site.
  ASSERT_TRUE(faults::Configure("store/write_file:0,store/fsync:0,"
                                "store/rename:0,snapshot/publish:0,"
                                "store/repair_publish:0")
                  .ok());
  {
    const StatusOr<store::RepairReport> clean_run =
        store::RepairSnapshotStore(work.string());
    ASSERT_TRUE(clean_run.ok()) << clean_run.status().ToString();
    ASSERT_TRUE(clean_run.value().repaired);
  }
  std::vector<std::pair<std::string, uint64_t>> sites;
  for (const faults::FaultSiteStats& s : faults::Stats()) {
    ASSERT_GT(s.checks, 0u) << s.site << " never checked during a repair";
    sites.emplace_back(s.site, s.checks);
  }
  ASSERT_EQ(sites.size(), 5u);
  faults::Clear();

  size_t crash_points = 0;
  for (const auto& [site, checks] : sites) {
    for (uint64_t skip = 0; skip < checks; ++skip) {
      fs::remove_all(work);
      fs::copy(root_, work, fs::copy_options::recursive);

      // One shot, no retries: a hard crash at this exact step.
      store::DefaultIoRetryPolicy().max_attempts = 1;
      faults::ArmSite(site, 1.0, /*max_fires=*/1, /*burst_limit=*/0, skip);
      const StatusOr<store::RepairReport> crashed =
          store::RepairSnapshotStore(work.string());
      ASSERT_FALSE(crashed.ok())
          << site << " skip=" << skip << " repair unexpectedly succeeded";
      EXPECT_EQ(crashed.status().code(), StatusCode::kUnavailable)
          << site << " skip=" << skip;
      faults::Clear();
      ++crash_points;

      // CURRENT never moved and the surviving snapshot is byte-identical.
      EXPECT_EQ(store::ReadFile((work / "CURRENT").string()).value(),
                current_before)
          << site << " skip=" << skip;
      EXPECT_EQ(store::ReadFile((work / state_rel).string()).value(),
                survivor_before)
          << site << " skip=" << skip;
      const StatusOr<store::SnapshotContents> survivor =
          store::SnapshotStore(work.string()).Load(1);
      ASSERT_TRUE(survivor.ok())
          << site << " skip=" << skip << ": " << survivor.status().ToString();

      // Resume: the same repair, re-run on the crashed store, heals it.
      store::DefaultIoRetryPolicy().max_attempts = saved_policy_.max_attempts;
      const StatusOr<store::RepairReport> resumed =
          store::RepairSnapshotStore(work.string());
      ASSERT_TRUE(resumed.ok())
          << site << " skip=" << skip << ": " << resumed.status().ToString();
      ASSERT_TRUE(resumed.value().repaired)
          << site << " skip=" << skip << ": " << resumed.value().failure;
      const StatusOr<store::ScrubReport> healed =
          store::ScrubSnapshotStore(work.string());
      ASSERT_TRUE(healed.ok());
      EXPECT_TRUE(healed.value().clean()) << site << " skip=" << skip;
      DataPlatform restored(FastPlatformConfig());
      ASSERT_TRUE(restored.RestoreFromSnapshot(work.string()).ok())
          << site << " skip=" << skip;
      EXPECT_EQ(restored.stats().requests, platform_->stats().requests);
    }
  }
  EXPECT_GT(crash_points, 5u);
  fs::remove_all(work);
}

TEST_F(ScrubRepairStoreTest, RepairReportJsonRoundTripsSchema) {
  SaveSnapshots(1);
  const std::string shard = ShardPath(1, store::kSnapshotTrainDir);
  FlipByte(shard, BitmapPayloadOffset(shard));
  const StatusOr<store::RepairReport> report =
      store::RepairSnapshotStore(Root());
  ASSERT_TRUE(report.ok());

  const std::string scrub_path = Path("scrub.json");
  const std::string repair_path = Path("repair.json");
  ASSERT_TRUE(
      store::WriteScrubReportJson(report.value().scrub, scrub_path).ok());
  ASSERT_TRUE(store::WriteRepairReportJson(report.value(), repair_path).ok());
  const std::string scrub_json = store::ReadFile(scrub_path).value();
  const std::string repair_json = store::ReadFile(repair_path).value();
  EXPECT_NE(scrub_json.find("\"enld-scrub-v1\""), std::string::npos);
  EXPECT_NE(scrub_json.find("crc_mismatch"), std::string::npos);
  EXPECT_NE(repair_json.find("\"enld-repair-v1\""), std::string::npos);
  EXPECT_NE(repair_json.find("section_rebuild"), std::string::npos);
}

TEST_F(ScrubRepairTest, EmptyRootIsUnrepairable) {
  const StatusOr<store::RepairReport> report =
      store::RepairSnapshotStore(Root());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().repaired);
  EXPECT_FALSE(report.value().failure.empty());

  const StatusOr<store::ScrubReport> missing =
      store::ScrubSnapshotStore(Path("does-not-exist"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace enld
