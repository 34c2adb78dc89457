// Mutation sweep over the decoders of untrusted bytes: a small encoded
// shard, state.bin, model.bin, both manifests, a frame and a response body
// are cut at every length and flipped at every byte — sectioned files also
// with the flipped section's CRC recomputed, so the flip reaches the
// payload decoder. Every case must come back as a Status, never a throw.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/serialization.h"
#include "rpc/frame.h"
#include "rpc/message.h"
#include "store/io.h"
#include "store/manifest.h"
#include "store/shard.h"
#include "store/snapshot.h"

namespace enld {
namespace {

namespace fs = std::filesystem;

constexpr unsigned char kMasks[] = {0x01, 0x80, 0xFF};

/// A decoder under test, reduced to its Status.
using Decoder = std::function<Status(const std::string&)>;

template <typename T>
Status StatusOf(const StatusOr<T>& result) {
  return result.status();
}

/// Runs `decode` over every strict prefix and every single-byte flip of
/// `bytes`. No case may throw; with `prefixes_fail`, every strict prefix
/// must also be rejected.
void Sweep(const std::string& bytes, const Decoder& decode,
           bool prefixes_fail) {
  ASSERT_TRUE(decode(bytes).ok());
  for (size_t size = 0; size < bytes.size(); ++size) {
    Status status;
    EXPECT_NO_THROW(status = decode(bytes.substr(0, size)))
        << "prefix " << size;
    if (prefixes_fail) {
      EXPECT_FALSE(status.ok()) << "prefix " << size;
    }
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (const unsigned char mask : kMasks) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      EXPECT_NO_THROW(decode(mutated)) << "byte " << i << " ^ " << int{mask};
    }
  }
}

/// Flips every payload byte of every section in `walk` (a walk over
/// `bytes`), recomputing that section's CRC — the u32 just before its
/// payload — so each flip reaches the section decoder.
void SweepPayloads(const std::string& bytes, const store::SectionWalk& walk,
                   const Decoder& decode) {
  ASSERT_EQ(walk.fault_id, 0u);
  for (const store::Section& section : walk.sections) {
    const size_t begin = section.payload.data() - bytes.data();
    for (size_t i = 0; i < section.payload.size(); ++i) {
      for (const unsigned char mask : kMasks) {
        std::string mutated = bytes;
        mutated[begin + i] = static_cast<char>(mutated[begin + i] ^ mask);
        std::string crc;
        store::PutU32(&crc, store::Crc32(mutated.data() + begin,
                                         section.payload.size()));
        mutated.replace(begin - crc.size(), crc.size(), crc);
        EXPECT_NO_THROW(decode(mutated))
            << "section " << section.id << " byte " << i;
      }
    }
  }
}

Dataset SmallDataset() {
  Dataset d;
  d.num_classes = 3;
  d.features = Matrix(4, 3);
  for (size_t i = 0; i < d.features.size(); ++i) {
    d.features.data()[i] = 0.25f * static_cast<float>(i);
  }
  d.observed_labels = {0, kMissingLabel, 2, 1};
  d.true_labels = {0, 1, 2, 2};
  d.ids = {10, 11, 12, 13};
  return d;
}

TEST(DecoderMutationTest, Shard) {
  const std::string shard = store::EncodeDatasetShard(SmallDataset());
  const Decoder decode = [](const std::string& bytes) {
    return StatusOf(store::DecodeDatasetShard(bytes));
  };
  const Decoder salvage = [](const std::string& bytes) {
    return StatusOf(store::SalvageDatasetShard(bytes));
  };
  const Decoder walk = [](const std::string& bytes) {
    return StatusOf(store::WalkDatasetShard(bytes));
  };
  Sweep(shard, decode, /*prefixes_fail=*/true);
  // Salvage ignores the bitmap, so a cut inside it still salvages; a walk
  // reports section faults rather than failing.
  Sweep(shard, salvage, /*prefixes_fail=*/false);
  Sweep(shard, walk, /*prefixes_fail=*/false);
  const StatusOr<store::ShardLayout> layout = store::WalkDatasetShard(shard);
  ASSERT_TRUE(layout.ok());
  SweepPayloads(shard, layout->walk, decode);
  SweepPayloads(shard, layout->walk, salvage);
}

TEST(DecoderMutationTest, SnapshotState) {
  store::SnapshotContents contents;
  contents.seq = 3;
  contents.framework.conditional = {
      {0.8, 0.1, 0.1}, {0.2, 0.7, 0.1}, {0.0, 0.5, 0.5}};
  contents.framework.selected_clean = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1};
  const std::string state = store::EncodeSnapshotState(contents);
  const Decoder decode = [](const std::string& bytes) {
    store::SnapshotContents decoded;
    return store::DecodeSnapshotState(bytes, &decoded);
  };
  const Decoder walk = [](const std::string& bytes) {
    return StatusOf(store::WalkSnapshotState(bytes));
  };
  Sweep(state, decode, /*prefixes_fail=*/true);
  Sweep(state, walk, /*prefixes_fail=*/false);
  const StatusOr<store::SectionWalk> sections =
      store::WalkSnapshotState(state);
  ASSERT_TRUE(sections.ok());
  SweepPayloads(state, sections.value(), decode);
}

TEST(DecoderMutationTest, ModelFile) {
  ModelFile file;
  file.dims = {3, 4, 2};
  file.weights.assign(3 * 4 + 4 + 4 * 2 + 2, 0.5f);
  Sweep(
      EncodeModelFile(file),
      [](const std::string& bytes) { return StatusOf(DecodeModelFile(bytes)); },
      /*prefixes_fail=*/true);
}

TEST(DecoderMutationTest, DatasetManifest) {
  const fs::path dir = fs::path(::testing::TempDir()) / "decoder_mutation";
  fs::remove_all(dir);
  ASSERT_TRUE(store::SaveDatasetSharded(SmallDataset(), dir.string(), "d",
                                        /*rows_per_shard=*/2)
                  .ok());
  const StatusOr<std::string> text =
      store::ReadFile((dir / "manifest.json").string());
  fs::remove_all(dir);
  ASSERT_TRUE(text.ok());
  // A prefix that drops only the trailing newline is still the manifest.
  Sweep(
      text.value(),
      [](const std::string& bytes) {
        return StatusOf(store::ParseDatasetManifest(bytes));
      },
      /*prefixes_fail=*/false);
}

TEST(DecoderMutationTest, SnapshotManifest) {
  const std::string text = store::EncodeSnapshotManifest(
      7, 0x0123456789abcdefull,
      {{store::kSnapshotStateFile, 1234, 0xdeadbeefu},
       {store::kSnapshotModelFile, 56, 7}});
  Sweep(
      text,
      [](const std::string& bytes) {
        const store::SnapshotManifest manifest =
            store::ParseSnapshotManifest(bytes, 7);
        return manifest.problems.empty()
                   ? Status::OK()
                   : Status::InvalidArgument(manifest.problems[0].detail);
      },
      /*prefixes_fail=*/false);
}

TEST(DecoderMutationTest, FrameAndResponseBody) {
  rpc::FrameHeader header;
  header.type = rpc::FrameType::kDetectRequest;
  header.sequence = 9;
  header.request_id = 77;
  header.deadline_seconds = 1.5;
  const std::string frame = rpc::EncodeFrame(header, "payload bytes");
  Sweep(
      frame,
      [](const std::string& bytes) { return StatusOf(rpc::DecodeFrame(bytes)); },
      /*prefixes_fail=*/true);
  Sweep(
      frame.substr(0, rpc::kFrameHeaderBytes),
      [](const std::string& bytes) {
        return StatusOf(rpc::DecodeFrameHeader(bytes));
      },
      /*prefixes_fail=*/true);

  rpc::WireDetectResponse response;
  response.service_status = Status::DeadlineExceeded("late");
  response.noisy_indices = {3, 1};
  response.clean_indices = {0, 2};
  response.recovered_labels = {-1, 2};
  Sweep(
      rpc::EncodeDetectResponse(response),
      [](const std::string& bytes) {
        return StatusOf(rpc::DecodeDetectResponse(bytes));
      },
      /*prefixes_fail=*/true);
}

}  // namespace
}  // namespace enld
