#include "store/manifest.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/parallel.h"
#include "common/telemetry/metrics.h"
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
  static telemetry::Counter* shards_written =
      telemetry::MetricsRegistry::Global().GetCounter(
          "store/shards_written");

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
      if (statuses[s].ok()) shards_written->Increment();
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
  static telemetry::Counter* shards_read =
      telemetry::MetricsRegistry::Global().GetCounter("store/shards_read");

  // Pass 1 reads and verifies every shard on the shared pool: its bytes
  // against the manifest entry, its section CRCs, and its header geometry
  // and column lengths against the manifest. Nothing is sized until every
  // shard has passed, so the row total sized below is backed by bytes
  // actually read.
  const size_t num_shards = manifest.shards.size();
  std::vector<std::string> bytes(num_shards);
  std::vector<ShardLayout> layouts(num_shards);
  std::vector<Status> statuses(num_shards);
  auto verify = [&](size_t s) -> Status {
    const ShardEntry& entry = manifest.shards[s];
    StatusOr<std::string> data = ReadFile(dir + "/" + entry.file);
    if (!data.ok()) return data.status();
    shards_read->Increment();
    bytes[s] = std::move(data).value();
    ENLD_RETURN_IF_ERROR(VerifyListedBytes("shard " + entry.file, bytes[s],
                                           entry.bytes, entry.crc32));
    StatusOr<ShardLayout> layout = WalkDatasetShard(bytes[s]);
    if (!layout.ok()) return layout.status();
    ENLD_RETURN_IF_ERROR(layout->walk.Verify());
    if (layout->rows != entry.rows || layout->dim != manifest.dim ||
        layout->num_classes != static_cast<uint32_t>(manifest.num_classes)) {
      return Status::InvalidArgument("shard " + entry.file +
                                     " geometry disagrees with the manifest");
    }
    ENLD_RETURN_IF_ERROR(CheckShardColumns(*layout));
    layouts[s] = std::move(layout).value();
    return Status::OK();
  };
  // Pass 2 decodes each shard straight into its row range of the one
  // output. The ranges are disjoint, so the result is identical at any
  // thread count.
  Dataset out;
  std::vector<size_t> first_row(num_shards, 0);
  auto decode = [&](size_t s) {
    return DecodeShardColumns(layouts[s], /*check_bitmap=*/true, &out,
                              first_row[s]);
  };
  // Runs `pass` over every shard; the first failure in manifest order.
  auto run_pass = [&](const auto& pass) -> Status {
    ParallelFor(0, num_shards, 1, [&](size_t begin, size_t end) {
      for (size_t s = begin; s < end; ++s) statuses[s] = pass(s);
    });
    for (const Status& status : statuses) {
      if (!status.ok()) return status;
    }
    return Status::OK();
  };

  Status status = run_pass(verify);
  if (status.ok()) {
    for (size_t s = 1; s < num_shards; ++s) {
      first_row[s] = first_row[s - 1] + manifest.shards[s - 1].rows;
    }
    out = SizedDataset(static_cast<size_t>(manifest.num_rows),
                       static_cast<size_t>(manifest.dim),
                       manifest.num_classes);
    status = run_pass(decode);
  }
  // ValidateDataset's checks are per row, so one call over the whole
  // dataset equals one per shard; its row numbers are the dataset's.
  if (status.ok()) status = ValidateDataset(out);
  if (!status.ok()) {
    return Status(status.code(), status.message() + " [" + dir + "]");
  }
  return out;
}

}  // namespace store
}  // namespace enld
