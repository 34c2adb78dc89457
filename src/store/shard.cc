#include "store/shard.h"

#include <bit>
#include <cstring>

#include "common/check.h"
#include "common/faults.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "store/io.h"

namespace enld {
namespace store {

namespace {

constexpr char kShardMagic[8] = {'E', 'N', 'L', 'D', 'S', 'H', 'D', '1'};
constexpr uint32_t kEndianTag = 0x01020304u;
constexpr uint32_t kShardVersion = 1;
constexpr uint32_t kSectionCount = 5;

/// Labels are stored as int32; the bulk column copies rely on it.
static_assert(sizeof(int) == sizeof(int32_t));

/// Appends `count` column values little-endian, each sizeof(T) bytes wide:
/// one bulk copy on little-endian hosts, `put` per value elsewhere.
template <typename T, typename Put>
void PutColumn(std::string* out, const T* values, size_t count, Put put) {
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    PutBytes(out, values, count * sizeof(T));
  } else {
    for (size_t i = 0; i < count; ++i) put(out, values[i]);
  }
}

/// The mirror of PutColumn: reads `count` little-endian values of
/// sizeof(T) bytes from `bytes`, which the caller has sized exactly.
template <typename T, typename Read>
void GetColumn(std::string_view bytes, T* values, size_t count, Read read) {
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(values, bytes.data(), count * sizeof(T));
  } else {
    BinaryReader reader(bytes);
    for (size_t i = 0; i < count; ++i) (reader.*read)(&values[i]);
  }
}

}  // namespace

std::string EncodeDatasetShard(const Dataset& dataset) {
  return EncodeDatasetShardRows(dataset, 0, dataset.size());
}

std::string EncodeDatasetShardRows(const Dataset& dataset, size_t lo,
                                   size_t hi) {
  ENLD_CHECK(lo <= hi && hi <= dataset.size());
  const size_t rows = hi - lo;
  const size_t dim = dataset.dim();

  std::string out;
  // Header and section envelopes take 120 bytes; a row takes 16 bytes
  // plus its features and one bitmap bit.
  out.reserve(128 + rows * (dim * 4 + 17));
  out.append(kShardMagic, sizeof(kShardMagic));
  PutU32(&out, kEndianTag);
  PutU32(&out, kShardVersion);
  PutU64(&out, rows);
  PutU64(&out, dim);
  PutU32(&out, static_cast<uint32_t>(dataset.num_classes));
  PutU32(&out, kSectionCount);

  size_t section = BeginSection(&out, kShardSectionFeatures);
  PutColumn(&out, dataset.features.data() + lo * dim, rows * dim, PutF32);
  FinishSection(&out, section);

  section = BeginSection(&out, kShardSectionObserved);
  PutColumn(&out, dataset.observed_labels.data() + lo, rows, PutI32);
  FinishSection(&out, section);

  section = BeginSection(&out, kShardSectionTrue);
  PutColumn(&out, dataset.true_labels.data() + lo, rows, PutI32);
  FinishSection(&out, section);

  section = BeginSection(&out, kShardSectionIds);
  PutColumn(&out, dataset.ids.data() + lo, rows, PutU64);
  FinishSection(&out, section);

  section = BeginSection(&out, kShardSectionMissingBitmap);
  const size_t bitmap = out.size();
  out.append((rows + 7) / 8, '\0');
  for (size_t i = 0; i < rows; ++i) {
    if (dataset.observed_labels[lo + i] == kMissingLabel) {
      out[bitmap + i / 8] |= static_cast<char>(1u << (i % 8));
    }
  }
  FinishSection(&out, section);
  return out;
}

StatusOr<ShardLayout> WalkDatasetShard(std::string_view data,
                                       FormatFault* fault) {
  if (data.substr(0, sizeof(kShardMagic)) !=
      std::string_view(kShardMagic, sizeof(kShardMagic))) {
    return RejectFormat(FormatFault::kBadMagic,
                        "not an ENLD shard (bad magic)", fault);
  }
  BinaryReader reader(data);
  reader.Skip(sizeof(kShardMagic));
  ShardLayout layout;
  uint32_t endian = 0, version = 0, sections = 0;
  if (!reader.ReadU32(&endian) || !reader.ReadU32(&version) ||
      !reader.ReadU64(&layout.rows) || !reader.ReadU64(&layout.dim) ||
      !reader.ReadU32(&layout.num_classes) || !reader.ReadU32(&sections)) {
    return RejectFormat(FormatFault::kTruncated, "truncated shard header",
                        fault);
  }
  if (endian != kEndianTag) {
    return RejectFormat(
        FormatFault::kMismatch,
        "shard byte-order tag mismatch (foreign-endian or corrupt file)",
        fault);
  }
  if (version != kShardVersion || sections != kSectionCount) {
    return RejectFormat(FormatFault::kMalformed,
                        "unsupported shard version " +
                            std::to_string(version) + " with " +
                            std::to_string(sections) + " sections",
                        fault);
  }
  // The sections cannot be larger than the file.
  if (layout.rows > data.size() || layout.dim > data.size()) {
    return RejectFormat(FormatFault::kMalformed, "implausible shard geometry",
                        fault);
  }
  layout.walk = WalkSections(data, reader.offset(), kSectionCount);
  return layout;
}

Status CheckShardColumns(const ShardLayout& layout) {
  const std::vector<Section>& sections = layout.walk.sections;
  const uint64_t rows = layout.rows;
  const uint64_t dim = layout.dim;
  const std::string_view features = sections[0].payload;
  if (!(dim == 0 ? features.empty()
                 : HoldsExactly(features, rows, dim * sizeof(float))) ||
      !HoldsExactly(sections[1].payload, rows, sizeof(int32_t)) ||
      !HoldsExactly(sections[2].payload, rows, sizeof(int32_t)) ||
      !HoldsExactly(sections[3].payload, rows, sizeof(uint64_t))) {
    return Status::InvalidArgument(
        "shard column lengths disagree with the header geometry");
  }
  return Status::OK();
}

Dataset SizedDataset(size_t rows, size_t dim, int num_classes) {
  Dataset out;
  out.num_classes = num_classes;
  out.features.Reset(rows, dim);
  out.observed_labels.resize(rows);
  out.true_labels.resize(rows);
  out.ids.resize(rows);
  return out;
}

Status DecodeShardColumns(const ShardLayout& layout, bool check_bitmap,
                          Dataset* out, size_t row) {
  const std::vector<Section>& sections = layout.walk.sections;
  const size_t rows = layout.rows;
  const size_t dim = layout.dim;
  ENLD_CHECK(out->dim() == dim || rows == 0);
  ENLD_CHECK(row + rows <= out->size());
  GetColumn(sections[0].payload, out->features.data() + row * dim,
            rows * dim, &BinaryReader::ReadF32);
  int* observed = out->observed_labels.data() + row;
  GetColumn(sections[1].payload, observed, rows, &BinaryReader::ReadI32);
  GetColumn(sections[2].payload, out->true_labels.data() + row, rows,
            &BinaryReader::ReadI32);
  GetColumn(sections[3].payload, out->ids.data() + row, rows,
            &BinaryReader::ReadU64);
  if (!check_bitmap) return Status::OK();

  const std::string_view bitmap = sections[4].payload;
  if (bitmap.size() != rows / 8 + (rows % 8 != 0)) {
    return Status::InvalidArgument("missing-bitmap section length mismatch");
  }
  for (size_t i = 0; i < rows; ++i) {
    const bool bit =
        (static_cast<unsigned char>(bitmap[i / 8]) >> (i % 8)) & 1u;
    if (bit != (observed[i] == kMissingLabel)) {
      return Status::InvalidArgument(
          "missing-label bitmap disagrees with observed column at row " +
          std::to_string(i));
    }
  }
  return Status::OK();
}

namespace {

/// A walked shard's columns as a dataset of their own.
StatusOr<Dataset> DecodeWalkedShard(const ShardLayout& layout,
                                    bool check_bitmap) {
  ENLD_RETURN_IF_ERROR(CheckShardColumns(layout));
  Dataset out = SizedDataset(layout.rows, layout.dim,
                             static_cast<int>(layout.num_classes));
  ENLD_RETURN_IF_ERROR(DecodeShardColumns(layout, check_bitmap, &out, 0));
  ENLD_RETURN_IF_ERROR(ValidateDataset(out));
  return out;
}

}  // namespace

StatusOr<Dataset> DecodeDatasetShard(std::string_view data) {
  StatusOr<ShardLayout> layout = WalkDatasetShard(data);
  if (!layout.ok()) return layout.status();
  ENLD_RETURN_IF_ERROR(layout->walk.Verify());
  return DecodeWalkedShard(*layout, /*check_bitmap=*/true);
}

StatusOr<Dataset> SalvageDatasetShard(std::string_view data) {
  StatusOr<ShardLayout> layout = WalkDatasetShard(data);
  if (!layout.ok()) return layout.status();
  const std::vector<Section>& sections = layout->walk.sections;
  for (uint32_t id = kShardSectionFeatures; id <= kShardSectionIds; ++id) {
    if (sections.size() < id || !sections[id - 1].crc_ok) {
      return Status::InvalidArgument("section " + std::to_string(id) +
                                     " does not survive its CRC");
    }
  }
  return DecodeWalkedShard(*layout, /*check_bitmap=*/false);
}

Status SaveDatasetShard(const Dataset& dataset, const std::string& path) {
  ENLD_TRACE_SPAN("store/save_shard");
  ENLD_RETURN_IF_ERROR(faults::Check("store/save_shard"));
  static telemetry::Counter* shards =
      telemetry::MetricsRegistry::Global().GetCounter(
          "store/shards_written");
  ENLD_RETURN_IF_ERROR(WriteFileDurable(path, EncodeDatasetShard(dataset)));
  shards->Increment();
  return Status::OK();
}

StatusOr<Dataset> LoadDatasetShard(const std::string& path) {
  ENLD_TRACE_SPAN("store/load_shard");
  ENLD_RETURN_IF_ERROR(faults::Check("store/load_shard"));
  static telemetry::Counter* shards =
      telemetry::MetricsRegistry::Global().GetCounter("store/shards_read");
  StatusOr<std::string> data = ReadFile(path);
  if (!data.ok()) return data.status();
  shards->Increment();
  StatusOr<Dataset> dataset = DecodeDatasetShard(data.value());
  if (!dataset.ok()) {
    return Status(dataset.status().code(),
                  dataset.status().message() + " [" + path + "]");
  }
  return dataset;
}

}  // namespace store
}  // namespace enld
