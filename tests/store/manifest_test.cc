// Sharded-dataset contract: multi-shard save/load round trips, parallel
// load determinism across thread counts, and typed failures for every way
// a shard directory can rot (truncated/corrupted/missing shards, missing
// or tampered manifests).

#include "store/manifest.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/noise.h"
#include "data/synthetic.h"
#include "store/io.h"
#include "store/json.h"

namespace enld {
namespace {

namespace fs = std::filesystem;

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("manifest_test_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    SetParallelThreads(0);
    fs::remove_all(dir_);
  }

  Dataset SampleData(int classes = 5, int per_class = 30) {
    SyntheticConfig config;
    config.num_classes = classes;
    config.samples_per_class = per_class;
    config.feature_dim = 6;
    config.seed = 17;
    Dataset d = GenerateSynthetic(config);
    Rng rng(18);
    ApplyLabelNoise(&d, TransitionMatrix::Symmetric(classes, 0.2), rng);
    MaskMissingLabels(&d, 0.1, rng);
    return d;
  }

  fs::path dir_;
};

void ExpectDatasetsBitIdentical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.dim(), b.dim());
  EXPECT_EQ(a.num_classes, b.num_classes);
  EXPECT_EQ(a.observed_labels, b.observed_labels);
  EXPECT_EQ(a.true_labels, b.true_labels);
  EXPECT_EQ(a.ids, b.ids);
  for (size_t i = 0; i < a.features.size(); ++i) {
    ASSERT_EQ(a.features.data()[i], b.features.data()[i]) << "feature " << i;
  }
}

TEST_F(ManifestTest, MultiShardRoundTrip) {
  const Dataset original = SampleData();  // 150 rows.
  ASSERT_TRUE(
      store::SaveDatasetSharded(original, dir_.string(), "inventory", 32)
          .ok());

  const auto manifest = store::ReadDatasetManifest(dir_.string());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->name, "inventory");
  EXPECT_EQ(manifest->num_rows, original.size());
  EXPECT_EQ(manifest->dim, original.dim());
  EXPECT_EQ(manifest->num_classes, original.num_classes);
  EXPECT_EQ(manifest->shards.size(), (original.size() + 31) / 32);

  const auto loaded = store::LoadDatasetSharded(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsBitIdentical(original, loaded.value());
}

TEST_F(ManifestTest, SingleAndEmptyShardRoundTrip) {
  const Dataset original = SampleData(3, 4);  // 12 rows, one shard.
  ASSERT_TRUE(
      store::SaveDatasetSharded(original, dir_.string(), "tiny").ok());
  auto loaded = store::LoadDatasetSharded(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsBitIdentical(original, loaded.value());

  Dataset empty;
  empty.num_classes = 2;
  fs::remove_all(dir_);
  ASSERT_TRUE(store::SaveDatasetSharded(empty, dir_.string(), "empty").ok());
  loaded = store::LoadDatasetSharded(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->num_classes, 2);
}

TEST_F(ManifestTest, ParallelLoadIsDeterministicAcrossThreadCounts) {
  const Dataset original = SampleData();
  ASSERT_TRUE(
      store::SaveDatasetSharded(original, dir_.string(), "inventory", 16)
          .ok());

  SetParallelThreads(1);
  const auto serial = store::LoadDatasetSharded(dir_.string());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (size_t threads : {2u, 4u}) {
    SetParallelThreads(threads);
    const auto parallel = store::LoadDatasetSharded(dir_.string());
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectDatasetsBitIdentical(serial.value(), parallel.value());
  }
}

TEST_F(ManifestTest, MissingDirectoryIsNotFound) {
  const auto loaded =
      store::LoadDatasetSharded((dir_ / "never_written").string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(ManifestTest, DeletedShardIsNotFound) {
  ASSERT_TRUE(
      store::SaveDatasetSharded(SampleData(), dir_.string(), "d", 32).ok());
  fs::remove(dir_ / "shard-00001.bin");
  const auto loaded = store::LoadDatasetSharded(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(ManifestTest, TruncatedShardIsInvalidArgument) {
  ASSERT_TRUE(
      store::SaveDatasetSharded(SampleData(), dir_.string(), "d", 32).ok());
  const fs::path shard = dir_ / "shard-00002.bin";
  fs::resize_file(shard, fs::file_size(shard) / 2);
  const auto loaded = store::LoadDatasetSharded(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestTest, CorruptedShardByteIsInvalidArgument) {
  ASSERT_TRUE(
      store::SaveDatasetSharded(SampleData(), dir_.string(), "d", 32).ok());
  const fs::path shard = dir_ / "shard-00000.bin";
  // Flip one byte in the middle of the shard; the manifest's whole-file
  // CRC must catch it before any parsing happens.
  std::fstream f(shard, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  f.seekg(size / 2);
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(size / 2);
  byte = static_cast<char>(byte ^ 0x01);
  f.write(&byte, 1);
  f.close();

  const auto loaded = store::LoadDatasetSharded(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(ManifestTest, DeletedManifestIsNotFound) {
  ASSERT_TRUE(
      store::SaveDatasetSharded(SampleData(), dir_.string(), "d").ok());
  fs::remove(dir_ / "manifest.json");
  const auto loaded = store::LoadDatasetSharded(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(ManifestTest, MalformedManifestIsInvalidArgument) {
  ASSERT_TRUE(
      store::SaveDatasetSharded(SampleData(), dir_.string(), "d").ok());
  std::ofstream(dir_ / "manifest.json") << "{ not json";
  const auto loaded = store::LoadDatasetSharded(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestTest, TamperedRowCountIsInvalidArgument) {
  ASSERT_TRUE(
      store::SaveDatasetSharded(SampleData(), dir_.string(), "d", 32).ok());
  // Parse the real manifest, bump num_rows, write it back: the listed
  // shard row total no longer matches and the load must refuse.
  const auto bytes = store::ReadFile((dir_ / "manifest.json").string());
  ASSERT_TRUE(bytes.ok());
  auto doc = store::JsonValue::Parse(bytes.value());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const store::JsonValue* rows = doc->Find("num_rows");
  ASSERT_NE(rows, nullptr);
  doc->Set("num_rows", store::JsonValue::Number(rows->AsNumber() + 1));
  std::ofstream(dir_ / "manifest.json") << doc->ToString();

  const auto loaded = store::LoadDatasetSharded(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestTest, ShardHeaderDisagreeingWithItsEntryIsInvalidArgument) {
  ASSERT_TRUE(
      store::SaveDatasetSharded(SampleData(), dir_.string(), "d", 32).ok());
  // Raise one entry's rows and num_rows together, so the manifest parses
  // and its total agrees, while the shard file, its size and its CRC stay
  // valid. Only the header-versus-entry check can catch it, and it must
  // do so before anything is sized: the edited total would need ~26 TB.
  const auto bytes = store::ReadFile((dir_ / "manifest.json").string());
  ASSERT_TRUE(bytes.ok());
  auto doc = store::JsonValue::Parse(bytes.value());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const double extra = static_cast<double>(uint64_t{1} << 40);
  ASSERT_NE(doc->Find("shards"), nullptr);
  store::JsonValue shards = *doc->Find("shards");
  store::JsonValue& entry = shards.items()[1];
  entry.Set("rows",
            store::JsonValue::Number(entry.Find("rows")->AsNumber() + extra));
  doc->Set("shards", std::move(shards));
  doc->Set("num_rows",
           store::JsonValue::Number(doc->Find("num_rows")->AsNumber() + extra));
  std::ofstream(dir_ / "manifest.json") << doc->ToString();
  ASSERT_TRUE(store::ReadDatasetManifest(dir_.string()).ok());

  const auto loaded = store::LoadDatasetSharded(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("shard-00001.bin"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(ManifestTest, NumbersThatAreNotIntegersAreInvalidArgument) {
  ASSERT_TRUE(
      store::SaveDatasetSharded(SampleData(), dir_.string(), "d").ok());
  const std::string path = (dir_ / "manifest.json").string();
  const StatusOr<std::string> text = store::ReadFile(path);
  ASSERT_TRUE(text.ok());
  const std::string key = "\"dim\": ";
  const size_t value = text->find(key) + key.size();
  ASSERT_GT(value, key.size());
  const size_t end = text->find(',', value);
  // Not JSON numbers at all (nan, inf, 0x10), or numbers no integer field
  // holds (1e300, -1, 4.5): each is rejected before any cast. `dim` has no
  // cross-check that could catch a mangled value later.
  for (const char* token : {"nan", "inf", "1e300", "-1", "4.5", "0x10"}) {
    SCOPED_TRACE(token);
    std::string tampered = text.value();
    tampered.replace(value, end - value, token);
    ASSERT_TRUE(store::WriteFileDurable(path, tampered).ok());
    const auto manifest = store::ReadDatasetManifest(dir_.string());
    ASSERT_FALSE(manifest.ok());
    EXPECT_EQ(manifest.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(JsonNumberTest, WritesIntegersExactlyAndHugeNumbersWithoutCasting) {
  EXPECT_EQ(store::JsonValue::Number(4294967295.0).ToString(),
            "4294967295\n");
  EXPECT_EQ(store::JsonValue::Number(-2.0).ToString(), "-2\n");
  EXPECT_EQ(store::JsonValue::Number(0.5).ToString(), "0.5\n");
  EXPECT_EQ(store::JsonValue::Number(1e300).ToString(),
            "1.0000000000000001e+300\n");
}

}  // namespace
}  // namespace enld
