#include "nn/serialization.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace enld {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(ModelSerializationTest, RoundTripPreservesOutputs) {
  Rng rng(1);
  MlpModel original({8, 16, 8, 5}, rng);
  const std::string path = TempPath("model_roundtrip.enld");
  ASSERT_TRUE(SaveModel(original, path).ok());

  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->layer_dims(), original.layer_dims());

  Matrix inputs(5, 8);
  Rng data_rng(2);
  for (size_t i = 0; i < inputs.size(); ++i) {
    inputs.data()[i] = static_cast<float>(data_rng.Gaussian());
  }
  const Matrix a = original.Probabilities(inputs);
  const Matrix b = (*loaded)->Probabilities(inputs);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]);
  }
  std::remove(path.c_str());
}

TEST(ModelSerializationTest, MissingFileIsNotFound) {
  const auto loaded = LoadModel(TempPath("does_not_exist.enld"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ModelSerializationTest, RejectsWrongMagic) {
  const std::string path = TempPath("bad_magic.enld");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("NOTMODEL", 1, 8, f);
  std::fclose(f);
  const auto loaded = LoadModel(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ModelSerializationTest, RejectsTruncatedFile) {
  Rng rng(3);
  MlpModel model({4, 8, 3}, rng);
  const std::string path = TempPath("truncated.enld");
  ASSERT_TRUE(SaveModel(model, path).ok());
  // Truncate the weight section.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 40), 0);
  const auto loaded = LoadModel(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ModelSerializationTest, UnwritablePathFails) {
  Rng rng(4);
  MlpModel model({2, 4, 2}, rng);
  EXPECT_EQ(SaveModel(model, "/nonexistent_dir/model.enld").code(),
            StatusCode::kNotFound);
}

TEST(ModelSerializationTest, FullDiskFails) {
  // Every write to /dev/full fails with ENOSPC, but a small model fits in
  // the stdio buffer, so the failure surfaces only when the file closes.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  Rng rng(4);
  MlpModel model({2, 4, 2}, rng);
  EXPECT_EQ(SaveModel(model, "/dev/full").code(), StatusCode::kInternal);
}

TEST(ModelSerializationTest, CurrentFormatCarriesByteOrderTag) {
  Rng rng(5);
  MlpModel model({3, 6, 2}, rng);
  const std::string path = TempPath("tagged.enld");
  ASSERT_TRUE(SaveModel(model, path).ok());

  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[8];
  uint32_t tag = 0;
  ASSERT_EQ(std::fread(magic, 1, 8, f), 8u);
  ASSERT_EQ(std::fread(&tag, sizeof(tag), 1, f), 1u);
  std::fclose(f);
  EXPECT_EQ(std::string(magic, 8), "ENLDMDL2");
  EXPECT_EQ(tag, 0x01020304u);
  std::remove(path.c_str());
}

TEST(ModelSerializationTest, RejectsForeignEndianFile) {
  // Write a v2 file whose byte-order tag reads back byte-swapped — exactly
  // what a file from a foreign-endian machine looks like here.
  const std::string path = TempPath("foreign_endian.enld");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("ENLDMDL2", 1, 8, f);
  const uint32_t swapped_tag = 0x04030201u;
  std::fwrite(&swapped_tag, sizeof(swapped_tag), 1, f);
  const uint64_t num_dims = 3;
  std::fwrite(&num_dims, sizeof(num_dims), 1, f);
  std::fclose(f);

  const auto loaded = LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("byte order"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(ModelSerializationTest, LegacyTaglessFormatIsRejected) {
  // A well-formed file in the retired tag-less "ENLDMDL1" format: {2, 4, 3}
  // needs 2*4+4 + 4*3+3 = 27 weights. One format version is read.
  const std::string path = TempPath("legacy_v1.enld");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("ENLDMDL1", 1, 8, f);
  const uint64_t dims[] = {3, 2, 4, 3};  // count, then the dims.
  std::fwrite(dims, sizeof(uint64_t), 4, f);
  const uint64_t count = 2 * 4 + 4 + 4 * 3 + 3;
  std::fwrite(&count, sizeof(count), 1, f);
  const std::vector<float> weights(count, 0.25f);
  std::fwrite(weights.data(), sizeof(float), weights.size(), f);
  std::fclose(f);

  const auto loaded = LoadModelFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ModelSerializationTest, WeightCountBeyondTheBytesIsRejected) {
  // Regression: 52 bytes declaring dims {2^24, 2^24, 1} and the weight
  // count they imply (2^48 + 2^25 + 1) used to size the weight vector
  // before reading a weight, throwing std::bad_alloc.
  std::string bytes = "ENLDMDL2";
  auto append = [&bytes](auto value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append(uint32_t{0x01020304u});
  append(uint64_t{3});
  append(uint64_t{1} << 24);
  append(uint64_t{1} << 24);
  append(uint64_t{1});
  append((uint64_t{1} << 48) + (uint64_t{1} << 25) + 1);
  ASSERT_EQ(bytes.size(), 52u);
  const auto decoded = DecodeModelFile(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelSerializationTest, DecodeInvertsEncodeAndRejectsTrailingBytes) {
  ModelFile file;
  file.dims = {3, 5, 2};
  file.weights.assign(3 * 5 + 5 + 5 * 2 + 2, 0.5f);
  const std::string bytes = EncodeModelFile(file);
  const auto decoded = DecodeModelFile(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->dims, file.dims);
  EXPECT_EQ(decoded->weights, file.weights);
  EXPECT_EQ(DecodeModelFile(bytes + '\0').status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelSerializationTest, ModelFileRoundTripIsExact) {
  ModelFile file;
  file.dims = {4, 7, 3};
  file.weights.resize(4 * 7 + 7 + 7 * 3 + 3);
  Rng rng(6);
  for (float& w : file.weights) {
    w = static_cast<float>(rng.Gaussian());
  }
  const std::string path = TempPath("model_file.enld");
  ASSERT_TRUE(SaveModelFile(file, path).ok());
  const auto loaded = LoadModelFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dims, file.dims);
  EXPECT_EQ(loaded->weights, file.weights);

  const auto model = ModelFromFile(*loaded);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->GetWeights(), file.weights);
  std::remove(path.c_str());
}

TEST(ModelSerializationTest, ModelFromFileRejectsWeightCountMismatch) {
  ModelFile file;
  file.dims = {4, 7, 3};
  file.weights.assign(10, 0.0f);  // Far fewer than the dims require.
  const auto model = ModelFromFile(file);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace enld
