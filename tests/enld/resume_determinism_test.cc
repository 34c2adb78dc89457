// The headline durability property: a platform killed mid-stream and
// restored from its snapshot produces byte-identical detection results on
// the remaining datasets as one that never stopped — including across an
// automatic model update that fires *after* the resume point, and at any
// thread count. Both lives then save byte-identical stores.

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "data/workload.h"
#include "enld/platform.h"
#include "test_util.h"

namespace enld {
namespace {

namespace fs = std::filesystem;

DataPlatformConfig ResumeConfig() {
  DataPlatformConfig config;
  config.enld.general = testing_util::TinyGeneralConfig();
  config.enld.iterations = 3;
  config.enld.steps_per_iteration = 3;
  // Auto-update after every 2nd request with no minimum, so the update
  // lands after the resume boundary — the restored RNG stream and S_c
  // must reproduce it exactly.
  config.update_every = 2;
  config.min_update_samples = 1;
  return config;
}

/// Every file under `root`, by its path relative to `root`, with its bytes.
std::map<std::string, std::string> StoreFiles(const fs::path& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files[fs::relative(entry.path(), root).string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

void ExpectResultsIdentical(const DetectionResult& a,
                            const DetectionResult& b) {
  EXPECT_EQ(a.noisy_indices, b.noisy_indices);
  EXPECT_EQ(a.clean_indices, b.clean_indices);
  EXPECT_EQ(a.recovered_labels, b.recovered_labels);
  EXPECT_EQ(a.per_iteration_clean, b.per_iteration_clean);
  EXPECT_EQ(a.per_iteration_ambiguous, b.per_iteration_ambiguous);
}

class ResumeDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetParallelThreads(0);
    for (const fs::path& dir : {snapshot_dir_, full_store_, resumed_store_}) {
      fs::remove_all(dir);
    }
  }

  fs::path snapshot_dir_ =
      fs::path(::testing::TempDir()) / "resume_determinism_snapshots";
  fs::path full_store_ =
      fs::path(::testing::TempDir()) / "resume_determinism_full";
  fs::path resumed_store_ =
      fs::path(::testing::TempDir()) / "resume_determinism_resumed";
};

TEST_F(ResumeDeterminismTest, RestoredPlatformMatchesUninterruptedRun) {
  const Workload workload =
      BuildWorkload(testing_util::TinyWorkloadConfig(0.2));
  ASSERT_EQ(workload.incremental.size(), 3u);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetParallelThreads(threads);
    for (const fs::path& dir : {snapshot_dir_, full_store_, resumed_store_}) {
      fs::remove_all(dir);
    }

    // Reference: one platform serves the whole stream without stopping.
    DataPlatform uninterrupted(ResumeConfig());
    ASSERT_TRUE(uninterrupted.Initialize(workload.inventory).ok());
    std::vector<DetectionResult> reference;
    for (const Dataset& arriving : workload.incremental) {
      const auto result = uninterrupted.Process(arriving);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      reference.push_back(result.value());
    }

    // "Killed" run: serve one request, snapshot, and abandon the instance
    // — then stand up a brand-new platform from the snapshot and serve
    // the rest of the stream.
    {
      DataPlatform first_life(ResumeConfig());
      ASSERT_TRUE(first_life.Initialize(workload.inventory).ok());
      const auto result = first_life.Process(workload.incremental[0]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectResultsIdentical(reference[0], result.value());
      ASSERT_TRUE(first_life.SaveSnapshot(snapshot_dir_.string()).ok());
    }

    DataPlatform second_life(ResumeConfig());
    const Status restored =
        second_life.RestoreFromSnapshot(snapshot_dir_.string());
    ASSERT_TRUE(restored.ok()) << restored.ToString();
    ASSERT_EQ(second_life.stats().requests, 1u);
    for (size_t i = 1; i < workload.incremental.size(); ++i) {
      const auto result = second_life.Process(workload.incremental[i]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectResultsIdentical(reference[i], result.value());
    }

    // The auto-update fired once in each life (after requests 2 in the
    // reference; after the post-resume request 2 in the resumed run), and
    // the final service counters agree.
    EXPECT_EQ(second_life.stats().requests, uninterrupted.stats().requests);
    EXPECT_EQ(second_life.stats().samples_processed,
              uninterrupted.stats().samples_processed);
    EXPECT_EQ(second_life.stats().samples_flagged_noisy,
              uninterrupted.stats().samples_flagged_noisy);
    EXPECT_EQ(second_life.stats().model_updates,
              uninterrupted.stats().model_updates);
    EXPECT_GT(second_life.stats().model_updates, 0u);

    // Saved into fresh stores, the two lives leave the same bytes in every
    // file, state.bin and MANIFEST.json included.
    ASSERT_TRUE(uninterrupted.SaveSnapshot(full_store_.string()).ok());
    ASSERT_TRUE(second_life.SaveSnapshot(resumed_store_.string()).ok());
    const auto full_files = StoreFiles(full_store_);
    const auto resumed_files = StoreFiles(resumed_store_);
    ASSERT_FALSE(full_files.empty());
    ASSERT_EQ(full_files.size(), resumed_files.size());
    for (const auto& [path, bytes] : full_files) {
      const auto it = resumed_files.find(path);
      ASSERT_NE(it, resumed_files.end()) << path;
      EXPECT_TRUE(it->second == bytes) << path << " differs";
    }
  }
}

}  // namespace
}  // namespace enld
