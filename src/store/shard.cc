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

/// Labels are stored as int32; the bulk column copy relies on it.
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

StatusOr<Dataset> DecodeDatasetShard(const std::string& data) {
  BinaryReader reader(data);
  std::string magic;
  if (!reader.ReadBytes(sizeof(kShardMagic), &magic) ||
      std::memcmp(magic.data(), kShardMagic, sizeof(kShardMagic)) != 0) {
    return Status::InvalidArgument("not an ENLD shard (bad magic)");
  }
  uint32_t endian = 0, version = 0, classes = 0, sections = 0;
  uint64_t rows = 0, dim = 0;
  if (!reader.ReadU32(&endian) || !reader.ReadU32(&version) ||
      !reader.ReadU64(&rows) || !reader.ReadU64(&dim) ||
      !reader.ReadU32(&classes) || !reader.ReadU32(&sections)) {
    return Status::InvalidArgument("truncated shard header");
  }
  if (endian != 0x01020304u) {
    return Status::InvalidArgument(
        "shard byte-order tag mismatch (foreign-endian or corrupt file)");
  }
  if (version != kShardVersion) {
    return Status::InvalidArgument("unsupported shard version " +
                                   std::to_string(version));
  }
  if (sections != kSectionCount) {
    return Status::InvalidArgument("unexpected shard section count");
  }
  // Cheap sanity bound before allocating: the sections cannot be larger
  // than the file.
  if (rows > data.size() || dim > data.size()) {
    return Status::InvalidArgument("implausible shard geometry");
  }

  std::string payload;
  Dataset out;
  out.num_classes = static_cast<int>(classes);

  ENLD_RETURN_IF_ERROR(
      ReadSection(&reader, kShardSectionFeatures, &payload));
  if (payload.size() != rows * dim * 4) {
    return Status::InvalidArgument("feature section length mismatch");
  }
  out.features.Reset(static_cast<size_t>(rows), static_cast<size_t>(dim));
  {
    BinaryReader column(payload);
    for (size_t i = 0; i < rows * dim; ++i) {
      column.ReadF32(out.features.data() + i);
    }
  }

  ENLD_RETURN_IF_ERROR(
      ReadSection(&reader, kShardSectionObserved, &payload));
  if (payload.size() != rows * 4) {
    return Status::InvalidArgument("observed-label section length mismatch");
  }
  out.observed_labels.resize(static_cast<size_t>(rows));
  {
    BinaryReader column(payload);
    for (auto& label : out.observed_labels) {
      int32_t v = 0;
      column.ReadI32(&v);
      label = static_cast<int>(v);
    }
  }

  ENLD_RETURN_IF_ERROR(ReadSection(&reader, kShardSectionTrue, &payload));
  if (payload.size() != rows * 4) {
    return Status::InvalidArgument("true-label section length mismatch");
  }
  out.true_labels.resize(static_cast<size_t>(rows));
  {
    BinaryReader column(payload);
    for (auto& label : out.true_labels) {
      int32_t v = 0;
      column.ReadI32(&v);
      label = static_cast<int>(v);
    }
  }

  ENLD_RETURN_IF_ERROR(ReadSection(&reader, kShardSectionIds, &payload));
  if (payload.size() != rows * 8) {
    return Status::InvalidArgument("id section length mismatch");
  }
  out.ids.resize(static_cast<size_t>(rows));
  {
    BinaryReader column(payload);
    for (auto& id : out.ids) column.ReadU64(&id);
  }

  ENLD_RETURN_IF_ERROR(
      ReadSection(&reader, kShardSectionMissingBitmap, &payload));
  if (payload.size() != (rows + 7) / 8) {
    return Status::InvalidArgument("missing-bitmap section length mismatch");
  }
  for (size_t i = 0; i < rows; ++i) {
    const bool bit =
        (static_cast<unsigned char>(payload[i / 8]) >> (i % 8)) & 1u;
    if (bit != (out.observed_labels[i] == kMissingLabel)) {
      return Status::InvalidArgument(
          "missing-label bitmap disagrees with observed column at row " +
          std::to_string(i));
    }
  }

  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after last section");
  }
  ENLD_RETURN_IF_ERROR(ValidateDataset(out));
  return out;
}

Status SaveDatasetShard(const Dataset& dataset, const std::string& path) {
  ENLD_TRACE_SPAN("store/save_shard");
  ENLD_RETURN_IF_ERROR(faults::Check("store/save_shard"));
  static telemetry::Counter* shards =
      telemetry::MetricsRegistry::Global().GetCounter(
          "store/shards_written");
  shards->Increment();
  return WriteFileDurable(path, EncodeDatasetShard(dataset));
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
