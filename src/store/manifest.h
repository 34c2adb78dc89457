#ifndef ENLD_STORE_MANIFEST_H_
#define ENLD_STORE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace enld {
namespace store {

/// A logical dataset on disk: a directory holding `manifest.json` plus one
/// or more shard files. The manifest records the dataset geometry and, per
/// shard, the file name, row count, byte size and whole-file CRC32 — so
/// truncation or tampering is caught from the manifest before any shard is
/// parsed, and tools/check_report.py snapshot can audit a store offline.

/// One shard as listed in a dataset manifest.
struct ShardEntry {
  std::string file;    // Relative to the manifest's directory.
  uint64_t rows = 0;
  uint64_t bytes = 0;
  uint32_t crc32 = 0;
};

/// The parsed manifest.json of one logical dataset.
struct DatasetManifest {
  std::string name;
  uint64_t num_rows = 0;
  uint64_t dim = 0;
  int num_classes = 0;
  std::vector<ShardEntry> shards;
};

/// Default shard granularity for sharded saves.
inline constexpr size_t kDefaultRowsPerShard = 2048;

/// Writes `dataset` into `dir` as `manifest.json` plus
/// `shard-00000.bin`... with at most `rows_per_shard` rows each (at least
/// one shard, even when empty). Creates `dir` if needed. Crash-safe: every
/// file is written via temp + fsync + rename, shards before the manifest,
/// so a reader that finds a manifest can read every shard it names.
Status SaveDatasetSharded(const Dataset& dataset, const std::string& dir,
                          const std::string& name,
                          size_t rows_per_shard = kDefaultRowsPerShard);

/// Parses the text of a manifest.json. InvalidArgument on malformed or
/// internally inconsistent content.
StatusOr<DatasetManifest> ParseDatasetManifest(const std::string& text);

/// Reads and parses `dir`/manifest.json. NotFound when absent.
StatusOr<DatasetManifest> ReadDatasetManifest(const std::string& dir);

/// Loads the logical dataset from `dir`: validates the manifest, checks
/// every shard file's size and CRC32 against it, then parses shards — in
/// parallel on the shared thread pool when several are listed — and
/// concatenates them in manifest order. The result is byte-identical at
/// any ENLD_THREADS setting.
StatusOr<Dataset> LoadDatasetSharded(const std::string& dir);

}  // namespace store
}  // namespace enld

#endif  // ENLD_STORE_MANIFEST_H_
