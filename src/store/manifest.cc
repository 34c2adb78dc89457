#include "store/manifest.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/parallel.h"
#include "common/telemetry/trace.h"
#include "store/io.h"
#include "store/json.h"
#include "store/shard.h"

namespace enld {
namespace store {

namespace {

constexpr char kManifestSchema[] = "enld-dataset-manifest-v1";
constexpr char kManifestFile[] = "manifest.json";

std::string ShardFileName(size_t index) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "shard-%05zu.bin", index);
  return buffer;
}

Status GetString(const JsonValue& object, const std::string& key,
                 std::string* out) {
  const JsonValue* field = object.Find(key);
  if (field == nullptr || !field->is_string()) {
    return Status::InvalidArgument("manifest field '" + key +
                                   "' missing or not a string");
  }
  *out = field->AsString();
  return Status::OK();
}

}  // namespace

Status SaveDatasetSharded(const Dataset& dataset, const std::string& dir,
                          const std::string& name, size_t rows_per_shard) {
  ENLD_TRACE_SPAN("store/save_dataset");
  ENLD_RETURN_IF_ERROR(ValidateDataset(dataset));
  if (rows_per_shard == 0) rows_per_shard = kDefaultRowsPerShard;

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create directory " + dir + ": " +
                            ec.message());
  }

  const size_t rows = dataset.size();
  const size_t num_shards =
      rows == 0 ? 1 : (rows + rows_per_shard - 1) / rows_per_shard;
  std::vector<ShardEntry> entries(num_shards);
  std::vector<Status> statuses(num_shards);

  // Shards are independent row ranges: encode and write them in parallel.
  ParallelFor(0, num_shards, 1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      const size_t lo = s * rows_per_shard;
      const size_t hi = std::min(rows, lo + rows_per_shard);
      const std::string encoded = EncodeDatasetShardRows(dataset, lo, hi);
      entries[s].file = ShardFileName(s);
      entries[s].rows = hi - lo;
      entries[s].bytes = encoded.size();
      entries[s].crc32 = Crc32(encoded);
      statuses[s] = WriteFileDurable(dir + "/" + entries[s].file, encoded);
    }
  });
  for (const Status& status : statuses) {
    ENLD_RETURN_IF_ERROR(status);
  }

  JsonValue manifest = JsonValue::Object();
  manifest.Set("schema", JsonValue::String(kManifestSchema));
  manifest.Set("name", JsonValue::String(name));
  manifest.Set("num_rows", JsonValue::Number(static_cast<double>(rows)));
  manifest.Set("dim",
               JsonValue::Number(static_cast<double>(dataset.dim())));
  manifest.Set("num_classes", JsonValue::Number(dataset.num_classes));
  JsonValue shards = JsonValue::Array();
  for (const ShardEntry& entry : entries) {
    JsonValue shard = JsonValue::Object();
    shard.Set("file", JsonValue::String(entry.file));
    shard.Set("rows", JsonValue::Number(static_cast<double>(entry.rows)));
    shard.Set("bytes",
              JsonValue::Number(static_cast<double>(entry.bytes)));
    shard.Set("crc32",
              JsonValue::Number(static_cast<double>(entry.crc32)));
    shards.items().push_back(std::move(shard));
  }
  manifest.Set("shards", std::move(shards));
  ENLD_RETURN_IF_ERROR(
      WriteFileDurable(dir + "/" + kManifestFile, manifest.ToString()));
  return SyncDir(dir);
}

StatusOr<DatasetManifest> ParseDatasetManifest(const std::string& text) {
  StatusOr<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return Status::InvalidArgument("dataset manifest is not a JSON object");
  }

  DatasetManifest manifest;
  std::string schema;
  ENLD_RETURN_IF_ERROR(GetString(root, "schema", &schema));
  if (schema != kManifestSchema) {
    return Status::InvalidArgument("unsupported dataset manifest schema: " +
                                   schema);
  }
  ENLD_RETURN_IF_ERROR(GetString(root, "name", &manifest.name));
  uint64_t classes = 0;
  ENLD_RETURN_IF_ERROR(GetUInt(root, "num_rows", &manifest.num_rows));
  ENLD_RETURN_IF_ERROR(GetUInt(root, "dim", &manifest.dim));
  ENLD_RETURN_IF_ERROR(GetUInt(root, "num_classes", &classes,
                               std::numeric_limits<int>::max()));
  manifest.num_classes = static_cast<int>(classes);

  const JsonValue* shards = root.Find("shards");
  if (shards == nullptr || !shards->is_array() || shards->items().empty()) {
    return Status::InvalidArgument(
        "dataset manifest has no 'shards' array");
  }
  uint64_t listed_rows = 0;
  for (const JsonValue& item : shards->items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("shard entry is not an object");
    }
    ShardEntry entry;
    uint64_t crc = 0;
    ENLD_RETURN_IF_ERROR(GetString(item, "file", &entry.file));
    ENLD_RETURN_IF_ERROR(GetUInt(item, "rows", &entry.rows));
    ENLD_RETURN_IF_ERROR(GetUInt(item, "bytes", &entry.bytes));
    ENLD_RETURN_IF_ERROR(GetUInt(item, "crc32", &crc,
                                 std::numeric_limits<uint32_t>::max()));
    entry.crc32 = static_cast<uint32_t>(crc);
    if (entry.file.empty() || entry.file.find('/') != std::string::npos) {
      return Status::InvalidArgument("shard file name must be a plain name");
    }
    listed_rows += entry.rows;
    manifest.shards.push_back(std::move(entry));
  }
  if (listed_rows != manifest.num_rows) {
    return Status::InvalidArgument(
        "manifest num_rows (" + std::to_string(manifest.num_rows) +
        ") does not match the shard list total (" +
        std::to_string(listed_rows) + ")");
  }
  return manifest;
}

StatusOr<DatasetManifest> ReadDatasetManifest(const std::string& dir) {
  StatusOr<std::string> text = ReadFile(dir + "/" + kManifestFile);
  if (!text.ok()) return text.status();
  return ParseDatasetManifest(text.value());
}

StatusOr<Dataset> LoadDatasetSharded(const std::string& dir) {
  ENLD_TRACE_SPAN("store/load_dataset");
  StatusOr<DatasetManifest> manifest_or = ReadDatasetManifest(dir);
  if (!manifest_or.ok()) return manifest_or.status();
  const DatasetManifest& manifest = manifest_or.value();

  const size_t num_shards = manifest.shards.size();
  std::vector<StatusOr<Dataset>> loaded(num_shards, Status::OK());

  // Shard files are independent: read and decode them on the shared pool.
  // Results are stitched in manifest order on the calling thread, so the
  // output is identical at any thread count.
  ParallelFor(0, num_shards, 1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      const ShardEntry& entry = manifest.shards[s];
      StatusOr<std::string> data = ReadFile(dir + "/" + entry.file);
      Status status = data.status();
      if (status.ok()) {
        status = VerifyListedBytes("shard " + entry.file, *data, entry.bytes,
                                   entry.crc32);
      }
      loaded[s] = status.ok() ? DecodeDatasetShard(*data)
                              : StatusOr<Dataset>(status);
    }
  });

  for (size_t s = 0; s < num_shards; ++s) {
    if (!loaded[s].ok()) {
      return Status(loaded[s].status().code(),
                    loaded[s].status().message() + " [" + dir + "]");
    }
    const Dataset& shard = loaded[s].value();
    if (shard.size() != manifest.shards[s].rows ||
        shard.dim() != manifest.dim ||
        shard.num_classes != manifest.num_classes) {
      return Status::InvalidArgument(
          "shard " + manifest.shards[s].file +
          " geometry disagrees with the manifest");
    }
  }
  // Every shard decoded and matches the manifest, so the row total sized
  // below is backed by bytes actually read.
  if (num_shards == 1) return std::move(loaded[0]).value();
  Dataset out;
  out.num_classes = manifest.num_classes;
  out.features.Reset(static_cast<size_t>(manifest.num_rows),
                     static_cast<size_t>(manifest.dim));
  out.observed_labels.reserve(manifest.num_rows);
  out.true_labels.reserve(manifest.num_rows);
  out.ids.reserve(manifest.num_rows);
  size_t row = 0;
  for (const StatusOr<Dataset>& loaded_shard : loaded) {
    const Dataset& shard = loaded_shard.value();
    if (shard.size() > 0) {
      std::memcpy(out.features.Row(row), shard.features.data(),
                  shard.features.size() * sizeof(float));
    }
    out.observed_labels.insert(out.observed_labels.end(),
                               shard.observed_labels.begin(),
                               shard.observed_labels.end());
    out.true_labels.insert(out.true_labels.end(), shard.true_labels.begin(),
                           shard.true_labels.end());
    out.ids.insert(out.ids.end(), shard.ids.begin(), shard.ids.end());
    row += shard.size();
  }
  return out;
}

}  // namespace store
}  // namespace enld
