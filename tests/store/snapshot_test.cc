// Snapshot contract: a restored DataPlatform is the platform that wrote
// the snapshot — same model weights, P̃, S_c, RNG position, stats — and
// every corruption of the on-disk state is rejected with a typed error
// that leaves the restore target untouched.

#include "store/snapshot.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/telemetry/metrics.h"
#include "data/workload.h"
#include "store/io.h"
#include "store/json.h"
#include "test_util.h"

namespace enld {
namespace {

namespace fs = std::filesystem;

DataPlatformConfig FastPlatformConfig() {
  DataPlatformConfig config;
  config.enld.general = testing_util::TinyGeneralConfig();
  config.enld.iterations = 3;
  config.enld.steps_per_iteration = 3;
  config.min_update_samples = 1;
  return config;
}

void FlipByte(const fs::path& path, size_t offset_from_middle = 0) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(0, std::ios::end);
  const std::streamoff pos =
      f.tellg() / 2 + static_cast<std::streamoff>(offset_from_middle);
  f.seekg(pos);
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(pos);
  byte = static_cast<char>(byte ^ 0x10);
  f.write(&byte, 1);
}

/// state.bin bytes of small valid contents.
std::string SmallState() {
  store::SnapshotContents contents;
  contents.seq = 4;
  contents.framework.conditional = {{0.75, 0.25}, {0.5, 0.5}};
  contents.framework.selected_clean = {1, 0, 1};
  return store::EncodeSnapshotState(contents);
}

/// SmallState() with section `id`'s payload replaced and its CRC
/// recomputed, so the payload reaches the section decoder.
std::string StateWithSection(uint32_t id, const std::string& payload) {
  const std::string state = SmallState();
  const StatusOr<store::SectionWalk> walk = store::WalkSnapshotState(state);
  EXPECT_TRUE(walk.ok());
  const size_t header = walk->sections[0].payload.data() - state.data() - 16;
  std::string out = state.substr(0, header);
  for (const store::Section& section : walk->sections) {
    store::PutSection(&out, section.id,
                      section.id == id ? payload
                                       : std::string(section.payload));
  }
  return out;
}

TEST(SnapshotStateTest, OnlyVersionFourDecodes) {
  const std::string state = SmallState();
  store::SnapshotContents decoded;
  ASSERT_TRUE(store::DecodeSnapshotState(state, &decoded).ok());
  EXPECT_EQ(decoded.seq, 4u);
  EXPECT_EQ(decoded.framework.selected_clean,
            (std::vector<uint8_t>{1, 0, 1}));

  // The retired versions: v3 (its stats section ends with an 8-byte
  // process-seconds clock), v2 (six sections) and v1 (five sections). The
  // version is the u32 after the 8-byte magic and the byte-order tag.
  std::string stats;
  for (int i = 0; i < 4; ++i) store::PutU64(&stats, 0);
  store::PutF64(&stats, 0.25);
  std::string v3 = StateWithSection(store::kSnapshotSectionStats, stats);
  v3[12] = 3;
  std::string v2 = state;
  v2[12] = 2;
  std::string v1 = v2;
  v1[12] = 1;
  v1[16] = 5;
  for (const std::string& old : {v3, v2, v1}) {
    EXPECT_EQ(store::DecodeSnapshotState(old, &decoded).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotStateTest, CountsBeyondTheBytesAreRejected) {
  // Regressions: a P̃ class count of 2^31, whose square of doubles wrapped
  // the size check to 0 and then asked for 2^62 doubles, and a selection
  // count of 2^64 - 7, whose rounded-up byte count wrapped to 0. Both
  // payloads carry valid CRCs and must be InvalidArgument, not a throw.
  std::string classes;
  store::PutU32(&classes, uint32_t{1} << 31);
  std::string count;
  store::PutU64(&count, ~uint64_t{0} - 6);
  const std::pair<uint32_t, std::string> cases[] = {
      {store::kSnapshotSectionConditional, classes},
      {store::kSnapshotSectionSelected, count}};
  for (const auto& [id, payload] : cases) {
    SCOPED_TRACE(id);
    store::SnapshotContents decoded;
    EXPECT_EQ(
        store::DecodeSnapshotState(StateWithSection(id, payload), &decoded)
            .code(),
        StatusCode::kInvalidArgument);
  }
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("snapshot_test_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override {
    SetParallelThreads(0);
    fs::remove_all(root_);
  }

  fs::path root_;
};

TEST_F(SnapshotTest, FingerprintIsStableAndSensitive) {
  const DataPlatformConfig config = FastPlatformConfig();
  const uint64_t fp = store::FingerprintConfig(config);
  EXPECT_EQ(fp, store::FingerprintConfig(config));  // Deterministic.

  DataPlatformConfig changed = config;
  changed.enld.iterations += 1;
  EXPECT_NE(store::FingerprintConfig(changed), fp);
  changed = config;
  changed.update_every = 7;
  EXPECT_NE(store::FingerprintConfig(changed), fp);
  changed = config;
  changed.enld.general.train.epochs += 1;
  EXPECT_NE(store::FingerprintConfig(changed), fp);
}

TEST_F(SnapshotTest, SaveRestoreRoundTripsEveryStateComponent) {
  const Workload workload = BuildWorkload(testing_util::TinyWorkloadConfig(0.2));
  DataPlatform source(FastPlatformConfig());
  ASSERT_TRUE(source.Initialize(workload.inventory).ok());
  ASSERT_TRUE(source.Process(workload.incremental[0]).ok());
  ASSERT_TRUE(source.SaveSnapshot(root_.string()).ok());

  DataPlatform restored(FastPlatformConfig());
  const Status status = restored.RestoreFromSnapshot(root_.string());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(restored.initialized());

  // Service counters carried over exactly.
  EXPECT_EQ(restored.stats().requests, source.stats().requests);
  EXPECT_EQ(restored.stats().samples_processed,
            source.stats().samples_processed);
  EXPECT_EQ(restored.stats().samples_flagged_noisy,
            source.stats().samples_flagged_noisy);
  EXPECT_EQ(restored.stats().model_updates, source.stats().model_updates);

  // The full framework state — θ, I_t, I_c, P̃, S_c, RNG — byte for byte.
  const EnldFrameworkState a = source.framework().CaptureState();
  const EnldFrameworkState b = restored.framework().CaptureState();
  EXPECT_EQ(a.model_dims, b.model_dims);
  EXPECT_EQ(a.model_weights, b.model_weights);
  EXPECT_EQ(a.conditional, b.conditional);
  EXPECT_EQ(a.selected_clean, b.selected_clean);
  EXPECT_EQ(a.train_set->ids, b.train_set->ids);
  EXPECT_EQ(a.train_set->observed_labels, b.train_set->observed_labels);
  EXPECT_EQ(a.candidate_set->ids, b.candidate_set->ids);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.rng.state[i], b.rng.state[i]);
  }
  EXPECT_EQ(a.rng.has_cached_gaussian, b.rng.has_cached_gaussian);
  EXPECT_EQ(a.rng.cached_gaussian, b.rng.cached_gaussian);
}

TEST_F(SnapshotTest, SequenceNumbersAdvanceAndListCompletely) {
  const Workload workload = BuildWorkload(testing_util::TinyWorkloadConfig(0.2));
  DataPlatform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.Initialize(workload.inventory).ok());

  store::SnapshotStore snapshots(root_.string());
  EXPECT_EQ(snapshots.LatestSeq().status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(snapshots.ListSeqs().empty());

  ASSERT_TRUE(platform.SaveSnapshot(root_.string()).ok());
  ASSERT_TRUE(platform.Process(workload.incremental[0]).ok());
  ASSERT_TRUE(platform.SaveSnapshot(root_.string()).ok());

  const auto latest = snapshots.LatestSeq();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value(), 2u);
  EXPECT_EQ(snapshots.ListSeqs(), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(store::SnapshotStore::DirName(2), "snap-000002");

  // Both snapshots load standalone, and LoadLatest follows CURRENT.
  ASSERT_TRUE(snapshots.Load(1).ok());
  const auto current = snapshots.LoadLatest();
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_EQ(current->seq, 2u);
  EXPECT_EQ(current->stats.requests, 1u);
}

TEST_F(SnapshotTest, KeepLastRetentionPrunesAllButNewest) {
  const Workload workload = BuildWorkload(testing_util::TinyWorkloadConfig(0.2));
  DataPlatformConfig config = FastPlatformConfig();
  config.snapshot_keep_last = 2;
  // The retention knob is an ops setting, never part of the fingerprint.
  EXPECT_EQ(store::FingerprintConfig(config),
            store::FingerprintConfig(FastPlatformConfig()));

  DataPlatform platform(config);
  ASSERT_TRUE(platform.Initialize(workload.inventory).ok());
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        platform.Process(workload.incremental[i % workload.incremental.size()])
            .ok());
    ASSERT_TRUE(platform.SaveSnapshot(root_.string()).ok());
  }

  // Only the newest two survive; both still load and CURRENT is intact.
  store::SnapshotStore snapshots(root_.string());
  EXPECT_EQ(snapshots.ListSeqs(), (std::vector<uint64_t>{4, 5}));
  ASSERT_TRUE(snapshots.Load(4).ok());
  const auto latest = snapshots.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->seq, 5u);
  EXPECT_EQ(latest->stats.requests, 5u);

  // A platform restored from the pruned store resumes normally.
  DataPlatform resumed(config);
  ASSERT_TRUE(resumed.RestoreFromSnapshot(root_.string()).ok());
  EXPECT_EQ(resumed.stats().requests, 5u);
}

TEST_F(SnapshotTest, GarbageCollectSparesCurrentTargetAfterMidPublishCrash) {
  const Workload workload = BuildWorkload(testing_util::TinyWorkloadConfig(0.2));
  DataPlatform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.Initialize(workload.inventory).ok());
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        platform.Process(workload.incremental[i % workload.incremental.size()])
            .ok());
    ASSERT_TRUE(platform.SaveSnapshot(root_.string()).ok());
  }

  // Simulate crashes between the snapshot-directory publish and the
  // CURRENT update: newer directories exist on disk, but CURRENT still
  // points at snapshot 3.
  fs::create_directories(root_ / store::SnapshotStore::DirName(4));
  fs::create_directories(root_ / store::SnapshotStore::DirName(5));
  store::SnapshotStore snapshots(root_.string(), /*keep_last=*/1);
  ASSERT_EQ(snapshots.LatestSeq().value(), 3u);

  // keep_last=1 would retain only the newest directory (the unpublished
  // crash leftover) — CURRENT's target must survive anyway, or a reader
  // following CURRENT would find nothing.
  EXPECT_EQ(snapshots.GarbageCollect(), 3u);  // removed 1, 2 and 4
  EXPECT_EQ(snapshots.ListSeqs(), (std::vector<uint64_t>{3, 5}));
  const auto current = snapshots.LoadLatest();
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_EQ(current->seq, 3u);

  // A keep_last of zero is "retain everything": nothing else is removed.
  EXPECT_EQ(store::SnapshotStore(root_.string()).GarbageCollect(), 0u);
  EXPECT_EQ(snapshots.ListSeqs(), (std::vector<uint64_t>{3, 5}));
}

TEST_F(SnapshotTest, SaveRequiresInitializedPlatform) {
  DataPlatform platform(FastPlatformConfig());
  const Status status = platform.SaveSnapshot(root_.string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotTest, ConfigMismatchIsFailedPreconditionAndLeavesTargetUsable) {
  const Workload workload = BuildWorkload(testing_util::TinyWorkloadConfig(0.2));
  DataPlatform source(FastPlatformConfig());
  ASSERT_TRUE(source.Initialize(workload.inventory).ok());
  ASSERT_TRUE(source.SaveSnapshot(root_.string()).ok());

  // A platform running a different detection schedule must refuse the
  // snapshot — and keep serving from its own state afterwards.
  DataPlatformConfig other_config = FastPlatformConfig();
  other_config.enld.iterations += 1;
  DataPlatform other(other_config);
  ASSERT_TRUE(other.Initialize(workload.inventory).ok());
  const uint64_t requests_before = other.stats().requests;

  const Status status = other.RestoreFromSnapshot(root_.string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(other.initialized());
  EXPECT_EQ(other.stats().requests, requests_before);
  EXPECT_TRUE(other.Process(workload.incremental[0]).ok());
}

TEST_F(SnapshotTest, MissingStoreIsNotFound) {
  DataPlatform platform(FastPlatformConfig());
  const Status status =
      platform.RestoreFromSnapshot((root_ / "never_written").string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(platform.initialized());
}

TEST_F(SnapshotTest, LoadReadsEveryFileOnce) {
  const Workload workload = BuildWorkload(testing_util::TinyWorkloadConfig(0.2));
  DataPlatform source(FastPlatformConfig());
  ASSERT_TRUE(source.Initialize(workload.inventory).ok());
  ASSERT_TRUE(source.SaveSnapshot(root_.string()).ok());
  uint64_t expected = fs::file_size(root_ / "CURRENT");
  for (const auto& entry : fs::recursive_directory_iterator(
           root_ / store::SnapshotStore::DirName(1))) {
    if (entry.is_regular_file()) expected += entry.file_size();
  }

  telemetry::Counter* bytes_read =
      telemetry::MetricsRegistry::Global().GetCounter("store/bytes_read");
  const uint64_t before = bytes_read->Value();
  ASSERT_TRUE(store::SnapshotStore(root_.string()).LoadLatest().ok());
  EXPECT_EQ(bytes_read->Value() - before, expected);
}

TEST_F(SnapshotTest, ShardCountersCountEveryShardFile) {
  const Workload workload = BuildWorkload(testing_util::TinyWorkloadConfig(0.2));
  DataPlatform source(FastPlatformConfig());
  ASSERT_TRUE(source.Initialize(workload.inventory).ok());
  auto& registry = telemetry::MetricsRegistry::Global();
  telemetry::Counter* written = registry.GetCounter("store/shards_written");
  telemetry::Counter* read = registry.GetCounter("store/shards_read");
  const uint64_t written_before = written->Value();
  ASSERT_TRUE(source.SaveSnapshot(root_.string()).ok());
  const uint64_t written_delta = written->Value() - written_before;
  const uint64_t read_before = read->Value();
  ASSERT_TRUE(store::SnapshotStore(root_.string()).LoadLatest().ok());

  uint64_t shard_files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(
           root_ / store::SnapshotStore::DirName(1))) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("shard-", 0) == 0) {
      ++shard_files;
    }
  }
  ASSERT_GE(shard_files, 2u);  // I_t and I_c have a shard each at least
  EXPECT_EQ(written_delta, shard_files);
  EXPECT_EQ(read->Value() - read_before, shard_files);
}

TEST_F(SnapshotTest, EveryCorruptionClassIsTypedAndNonDestructive) {
  const Workload workload = BuildWorkload(testing_util::TinyWorkloadConfig(0.2));
  DataPlatform source(FastPlatformConfig());
  ASSERT_TRUE(source.Initialize(workload.inventory).ok());
  ASSERT_TRUE(source.Process(workload.incremental[0]).ok());
  const fs::path pristine = root_ / "pristine";
  ASSERT_TRUE(source.SaveSnapshot(pristine.string()).ok());
  const std::string snap = store::SnapshotStore::DirName(1);

  struct Case {
    const char* name;
    StatusCode expected;
    std::function<void(const fs::path&)> corrupt;
  };
  const std::vector<Case> cases = {
      {"delete CURRENT", StatusCode::kNotFound,
       [](const fs::path& d) { fs::remove(d / "CURRENT"); }},
      {"delete MANIFEST.json", StatusCode::kNotFound,
       [&](const fs::path& d) { fs::remove(d / snap / "MANIFEST.json"); }},
      {"delete model.bin", StatusCode::kNotFound,
       [&](const fs::path& d) { fs::remove(d / snap / "model.bin"); }},
      {"delete a train shard", StatusCode::kNotFound,
       [&](const fs::path& d) {
         fs::remove(d / snap / "train" / "shard-00000.bin");
       }},
      {"truncate state.bin", StatusCode::kInvalidArgument,
       [&](const fs::path& d) {
         const fs::path f = d / snap / "state.bin";
         fs::resize_file(f, fs::file_size(f) / 2);
       }},
      {"flip byte in state.bin", StatusCode::kInvalidArgument,
       [&](const fs::path& d) { FlipByte(d / snap / "state.bin"); }},
      {"flip byte in model.bin", StatusCode::kInvalidArgument,
       [&](const fs::path& d) { FlipByte(d / snap / "model.bin"); }},
      {"flip byte in candidate shard", StatusCode::kInvalidArgument,
       [&](const fs::path& d) {
         FlipByte(d / snap / "candidate" / "shard-00000.bin");
       }},
      {"drop a manifest file entry", StatusCode::kInvalidArgument,
       [&](const fs::path& d) {
         const fs::path m = d / snap / "MANIFEST.json";
         const auto bytes = store::ReadFile(m.string());
         ASSERT_TRUE(bytes.ok());
         auto doc = store::JsonValue::Parse(bytes.value());
         ASSERT_TRUE(doc.ok());
         const store::JsonValue* listed = doc->Find("files");
         ASSERT_NE(listed, nullptr);
         store::JsonValue pruned = *listed;
         ASSERT_FALSE(pruned.items().empty());
         pruned.items().pop_back();
         doc->Set("files", pruned);
         std::ofstream(m) << doc->ToString();
       }},
      {"garbage CURRENT", StatusCode::kInvalidArgument,
       [](const fs::path& d) {
         std::ofstream(d / "CURRENT") << "snap-xyzzzz\n";
       }},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const fs::path dir = root_ / "case";
    fs::remove_all(dir);
    fs::copy(pristine, dir, fs::copy_options::recursive);
    c.corrupt(dir);

    DataPlatform target(FastPlatformConfig());
    const Status status = target.RestoreFromSnapshot(dir.string());
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), c.expected) << status.ToString();
    // No partial mutation: the target never became initialized, so it can
    // still be stood up normally.
    EXPECT_FALSE(target.initialized());
  }

  // And against a live platform: a failed restore must leave it serving
  // from its previous state.
  const fs::path dir = root_ / "case";
  fs::remove_all(dir);
  fs::copy(pristine, dir, fs::copy_options::recursive);
  FlipByte(dir / snap / "state.bin");
  DataPlatform live(FastPlatformConfig());
  ASSERT_TRUE(live.Initialize(workload.inventory).ok());
  const Status status = live.RestoreFromSnapshot(dir.string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(live.initialized());
  EXPECT_EQ(live.stats().requests, 0u);
  EXPECT_TRUE(live.Process(workload.incremental[0]).ok());
}

}  // namespace
}  // namespace enld
