// Shard format contract: byte-exact round trips for arbitrary datasets
// (missing labels included), CSV interoperability, and typed rejection of
// every corruption class the per-section CRCs are meant to catch.

#include "store/shard.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/kernel_backend.h"
#include "common/rng.h"
#include "data/serialization.h"
#include "store/io.h"

namespace enld {
namespace {

using store::BinaryReader;
using store::Crc32;
using store::DecodeDatasetShard;
using store::EncodeDatasetShard;
using store::LoadDatasetShard;
using store::SaveDatasetShard;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// A random dataset: Gaussian features, uniform labels, ~15% noisy,
/// ~10% missing observed labels, non-contiguous ids.
Dataset RandomDataset(size_t rows, size_t dim, int classes, uint64_t seed) {
  Dataset d;
  d.num_classes = classes;
  d.features.Reset(rows, dim);
  Rng rng(seed);
  for (size_t i = 0; i < d.features.size(); ++i) {
    d.features.data()[i] = static_cast<float>(rng.Gaussian());
  }
  for (size_t i = 0; i < rows; ++i) {
    const int truth = static_cast<int>(rng.UniformInt(classes));
    int observed = truth;
    if (rng.Bernoulli(0.15)) {
      observed = static_cast<int>(rng.UniformInt(classes));
    }
    if (rng.Bernoulli(0.1)) observed = kMissingLabel;
    d.true_labels.push_back(truth);
    d.observed_labels.push_back(observed);
    d.ids.push_back(1000 + i * 7);
  }
  return d;
}

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

/// One byte through the bit-at-a-time reflected CRC-32 register: the
/// reference every Crc32 backend must match on every length and alignment.
uint32_t BitwiseCrc32Step(uint32_t crc, unsigned char byte) {
  crc ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return crc;
}

uint32_t BitwiseCrc32(const unsigned char* bytes, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) crc = BitwiseCrc32Step(crc, bytes[i]);
  return crc ^ 0xFFFFFFFFu;
}

/// The first (offset, length) on which Crc32 differs from the bitwise
/// reference over `buffer`, or "" when none does. Every length up to
/// `max_length` at every start offset 0..15 crosses the 64-byte four-lane
/// fold, the 16-byte folds and the table tail at every alignment.
std::string FirstCrc32Mismatch(const std::vector<unsigned char>& buffer,
                               size_t max_length) {
  for (size_t offset = 0; offset < 16; ++offset) {
    const unsigned char* start = buffer.data() + offset;
    uint32_t running = 0xFFFFFFFFu;  // the reference, one byte longer
    for (size_t length = 0; length <= max_length; ++length) {
      if (length > 0) running = BitwiseCrc32Step(running, start[length - 1]);
      if (Crc32(start, length) != (running ^ 0xFFFFFFFFu)) {
        return "offset " + std::to_string(offset) + " length " +
               std::to_string(length);
      }
    }
  }
  return "";
}

TEST(StoreIoTest, Crc32MatchesZlib) {
  std::vector<unsigned char> buffer(1100 + 16);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<unsigned char>(i * 167u + 13u);
  }
  std::vector<unsigned char> large(3 << 20);  // the 64-byte loop at length
  Rng rng(42);
  for (unsigned char& byte : large) {
    byte = static_cast<unsigned char>(rng.NextUInt64());
  }
  const uint32_t large_crc = BitwiseCrc32(large.data(), large.size());

  // Every CRC-32 backend this CPU has: the slicing-by-8 tables (generic)
  // and the carry-less-multiply fold (avx2, avx512).
  for (const char* backend : {"generic", "avx2", "avx512"}) {
    if (!SetKernelBackend(backend)) continue;
    SCOPED_TRACE(backend);
    // zlib.crc32(b"123456789") — the standard CRC-32 check value, so
    // tools/check_snapshot.py computes identical checksums.
    EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
    EXPECT_EQ(Crc32(std::string()), 0u);
    EXPECT_EQ(FirstCrc32Mismatch(buffer, 1100), "");
    EXPECT_EQ(Crc32(large.data(), large.size()), large_crc);
  }
  SetKernelBackend("auto");
#ifdef ENLD_KERNEL_X86
  const bool clmul = __builtin_cpu_supports("pclmul") &&
                     __builtin_cpu_supports("sse4.1");
#else
  const bool clmul = false;
#endif
  if (!clmul) {
    GTEST_SKIP() << "this CPU has no PCLMULQDQ and SSE4.1: every backend "
                    "ran the slicing-by-8 tables, the fold went untested";
  }
}

TEST(StoreIoTest, PutReadRoundTrip) {
  std::string buffer;
  store::PutU8(&buffer, 0xAB);
  store::PutU32(&buffer, 0xDEADBEEFu);
  store::PutU64(&buffer, 0x0123456789ABCDEFull);
  store::PutI32(&buffer, -12345);
  store::PutF32(&buffer, 1.5f);
  store::PutF64(&buffer, -2.25);

  BinaryReader reader(buffer);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  float f32 = 0;
  double f64 = 0;
  EXPECT_TRUE(reader.ReadU8(&u8));
  EXPECT_TRUE(reader.ReadU32(&u32));
  EXPECT_TRUE(reader.ReadU64(&u64));
  EXPECT_TRUE(reader.ReadI32(&i32));
  EXPECT_TRUE(reader.ReadF32(&f32));
  EXPECT_TRUE(reader.ReadF64(&f64));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -12345);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_FALSE(reader.ReadU8(&u8));  // Exhausted.
}

TEST(StoreIoTest, EncodingIsLittleEndianOnDisk) {
  std::string buffer;
  store::PutU32(&buffer, 0x01020304u);
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(buffer[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(buffer[3]), 0x01);
}

TEST(ShardTest, RoundTripPropertyOverRandomDatasets) {
  // Property check over varied geometries, all with missing labels mixed
  // in: decode(encode(d)) must be bit-identical to d.
  const struct {
    size_t rows, dim;
    int classes;
  } cases[] = {{1, 1, 2}, {17, 3, 4}, {64, 8, 5}, {301, 5, 9}};
  for (size_t c = 0; c < 4; ++c) {
    const Dataset original = RandomDataset(cases[c].rows, cases[c].dim,
                                           cases[c].classes, 100 + c);
    const auto decoded = DecodeDatasetShard(EncodeDatasetShard(original));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectDatasetsBitIdentical(original, decoded.value());
  }
}

TEST(ShardTest, RowRangeEncodingMatchesEncodedSubset) {
  const Dataset d = RandomDataset(37, 5, 4, 11);
  ASSERT_NE(std::count(d.observed_labels.begin(), d.observed_labels.end(),
                       kMissingLabel),
            0);
  // Whole, empty (at the start, middle and end), byte-aligned, and
  // ranges whose missing-label bitmap ends mid-byte.
  const std::pair<size_t, size_t> ranges[] = {
      {0, 37}, {0, 0}, {12, 12}, {37, 37}, {8, 16}, {3, 14}, {5, 37}};
  for (const auto& [lo, hi] : ranges) {
    std::vector<size_t> rows;
    for (size_t i = lo; i < hi; ++i) rows.push_back(i);
    EXPECT_EQ(store::EncodeDatasetShardRows(d, lo, hi),
              EncodeDatasetShard(d.Subset(rows)))
        << "rows " << lo << ".." << hi;
  }
}

TEST(ShardTest, EmptyDatasetRoundTrips) {
  Dataset empty;
  empty.num_classes = 3;
  const auto decoded = DecodeDatasetShard(EncodeDatasetShard(empty));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->size(), 0u);
  EXPECT_EQ(decoded->num_classes, 3);
}

TEST(ShardTest, FileRoundTrip) {
  const Dataset original = RandomDataset(40, 6, 4, 7);
  const std::string path = TempPath("shard_roundtrip.bin");
  ASSERT_TRUE(SaveDatasetShard(original, path).ok());
  const auto loaded = LoadDatasetShard(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsBitIdentical(original, loaded.value());
  std::remove(path.c_str());
}

TEST(ShardTest, CsvAndShardFormatsRoundTripIdentically) {
  // CSV writes float32 features with 9 significant digits — enough to
  // reproduce every float exactly — so CSV -> shard -> decode must land on
  // the same bytes as the in-memory original.
  const Dataset original = RandomDataset(60, 5, 6, 11);
  const std::string csv_path = TempPath("csv_shard_interop.csv");
  ASSERT_TRUE(SaveDatasetCsv(original, csv_path).ok());
  const auto from_csv = LoadDatasetCsv(csv_path);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  ExpectDatasetsBitIdentical(original, from_csv.value());

  const auto from_shard =
      DecodeDatasetShard(EncodeDatasetShard(from_csv.value()));
  ASSERT_TRUE(from_shard.ok()) << from_shard.status().ToString();
  ExpectDatasetsBitIdentical(original, from_shard.value());

  // And back out to CSV: the shard decode feeds SaveDatasetCsv the exact
  // floats, so the two CSV files are byte-identical.
  const std::string csv2_path = TempPath("csv_shard_interop2.csv");
  ASSERT_TRUE(SaveDatasetCsv(from_shard.value(), csv2_path).ok());
  const auto bytes1 = store::ReadFile(csv_path);
  const auto bytes2 = store::ReadFile(csv2_path);
  ASSERT_TRUE(bytes1.ok() && bytes2.ok());
  EXPECT_EQ(bytes1.value(), bytes2.value());
  std::remove(csv_path.c_str());
  std::remove(csv2_path.c_str());
}

TEST(ShardTest, MissingFileIsNotFound) {
  const auto loaded = LoadDatasetShard(TempPath("no_such_shard.bin"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ShardTest, RejectsBadMagic) {
  std::string encoded = EncodeDatasetShard(RandomDataset(5, 2, 2, 1));
  encoded[0] = 'X';
  const auto decoded = DecodeDatasetShard(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardTest, RejectsForeignEndianTag) {
  std::string encoded = EncodeDatasetShard(RandomDataset(5, 2, 2, 1));
  // Byte-swap the endian tag in place (offset 8, after the magic).
  std::swap(encoded[8], encoded[11]);
  std::swap(encoded[9], encoded[10]);
  const auto decoded = DecodeDatasetShard(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("byte-order"),
            std::string::npos);
}

TEST(ShardTest, RejectsTruncationAtEveryLength) {
  const std::string encoded = EncodeDatasetShard(RandomDataset(9, 3, 3, 2));
  // Every proper prefix must fail loudly (never crash, never succeed).
  for (size_t len = 0; len < encoded.size(); len += 13) {
    const auto decoded = DecodeDatasetShard(encoded.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix length " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ShardTest, RejectsFlippedByteInEverySection) {
  const std::string encoded = EncodeDatasetShard(RandomDataset(16, 4, 3, 3));
  // Flip one byte at a spread of offsets past the fixed header; every
  // flip must be rejected (section CRC, cross-check, or header check).
  for (size_t offset = 36; offset < encoded.size(); offset += 97) {
    std::string corrupted = encoded;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    const auto decoded = DecodeDatasetShard(corrupted);
    ASSERT_FALSE(decoded.ok()) << "flipped byte at " << offset;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ShardTest, RejectsTrailingGarbage) {
  std::string encoded = EncodeDatasetShard(RandomDataset(4, 2, 2, 4));
  encoded += "extra";
  const auto decoded = DecodeDatasetShard(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardTest, RejectsBitmapLabelDisagreement) {
  // Flip a missing-bitmap bit while keeping that section's CRC valid: the
  // decoder's bitmap-vs-observed cross-check must catch it. Rebuild the
  // shard by hand with a poisoned bitmap.
  Dataset d = RandomDataset(8, 2, 3, 5);
  d.observed_labels[2] = kMissingLabel;
  std::string encoded = EncodeDatasetShard(d);
  // Re-encode with the same library but a tampered dataset whose bitmap
  // would differ: simplest is to flip observed_labels after encoding the
  // bitmap — emulated by encoding a dataset whose label 2 is missing, then
  // decoding bytes where label 2 was patched to a real label *with* a
  // recomputed section CRC.
  Dataset patched = d;
  patched.observed_labels[2] = 0;
  const std::string other = EncodeDatasetShard(patched);
  // Splice: take `other`'s observed-label section into `encoded`'s bytes.
  // The two encodings differ only inside the observed section (features,
  // truth, ids identical), so a mismatched bitmap results.
  ASSERT_EQ(encoded.size(), other.size());
  std::string spliced = encoded;
  bool differs = false;
  for (size_t i = 0; i < spliced.size(); ++i) {
    if (encoded[i] != other[i]) {
      spliced[i] = other[i];
      differs = true;
    }
    // Stop before the bitmap section (last 1 + 16 bytes) so the bitmap
    // stays the original's.
    if (i + 17 >= spliced.size()) break;
  }
  ASSERT_TRUE(differs);
  const auto decoded = DecodeDatasetShard(spliced);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace enld
