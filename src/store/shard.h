#ifndef ENLD_STORE_SHARD_H_
#define ENLD_STORE_SHARD_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "data/dataset.h"
#include "store/io.h"

namespace enld {
namespace store {

/// Binary columnar shard format for Dataset — the fast, byte-exact
/// replacement for the CSV round trip (see docs/PERSISTENCE.md for the
/// layout diagram).
///
/// A shard is one self-describing file:
///
///   header:  magic "ENLDSHD1", little-endian tag 0x01020304, version,
///            num_rows, dim, num_classes, section count
///   section: id, payload byte length, CRC32(payload), payload
///
/// with one section per column: float32 features, int32 observed labels,
/// int32 true labels, uint64 ids, and a missing-label bitmap (bit i set
/// iff observed[i] == kMissingLabel; redundant with the observed column
/// and cross-checked on load, so either a flipped label byte or a flipped
/// bitmap bit is caught).
///
/// Error contract (shared by the whole store, asserted by the corruption
/// tests): NotFound = the file cannot be opened; InvalidArgument = any
/// structural corruption — bad magic, foreign byte order, unknown
/// version, truncation, CRC mismatch, out-of-range labels, inconsistent
/// columns. CRC mismatches additionally increment "store/crc_failures".

/// Section ids, also used by tools/check_report.py snapshot.
inline constexpr uint32_t kShardSectionFeatures = 1;
inline constexpr uint32_t kShardSectionObserved = 2;
inline constexpr uint32_t kShardSectionTrue = 3;
inline constexpr uint32_t kShardSectionIds = 4;
inline constexpr uint32_t kShardSectionMissingBitmap = 5;

/// Serializes the dataset into the shard byte format (no I/O).
std::string EncodeDatasetShard(const Dataset& dataset);

/// Serializes rows [lo, hi) of the dataset straight into the shard byte
/// format, without materializing the subset: the result equals
/// EncodeDatasetShard of those rows byte for byte. Requires
/// lo <= hi <= dataset.size().
std::string EncodeDatasetShardRows(const Dataset& dataset, size_t lo,
                                   size_t hi);

/// A shard's structure, read without decoding a column: its header
/// geometry plus the walk over its five sections (views into the caller's
/// buffer).
struct ShardLayout {
  uint64_t rows = 0;
  uint64_t dim = 0;
  uint32_t num_classes = 0;
  SectionWalk walk;
};

/// Parses the header (magic, byte-order tag, version 1, geometry, five
/// sections) and walks the sections. InvalidArgument when the header is
/// rejected, with its kind in `*fault` when given; section faults are
/// left in the walk for the caller to judge. The scrubber's shard check.
StatusOr<ShardLayout> WalkDatasetShard(std::string_view data,
                                       FormatFault* fault = nullptr);

/// Checks a walked shard's four column sections (features, observed and
/// true labels, ids) against its header geometry: InvalidArgument on any
/// disagreement. Passing it makes the header's rows and dim safe to size
/// a destination from.
Status CheckShardColumns(const ShardLayout& layout);

/// A dataset of `rows` x `dim` whose columns are sized (zeroed) for
/// DecodeShardColumns.
Dataset SizedDataset(size_t rows, size_t dim, int num_classes);

/// The one column decoder. Copies the columns of a shard that passed
/// CheckShardColumns into rows [row, row + layout.rows) of `out`, whose
/// columns must already hold them with the shard's dim; with
/// `check_bitmap` it then cross-checks the missing-label bitmap against
/// the observed labels it copied (InvalidArgument naming the shard row on
/// a disagreement). Writes only that row range, so disjoint shards decode
/// into one dataset concurrently. Leaves enld::ValidateDataset to the
/// caller, once over the whole destination.
Status DecodeShardColumns(const ShardLayout& layout, bool check_bitmap,
                          Dataset* out, size_t row);

/// Parses a shard buffer back into a Dataset, verifying every section CRC
/// and the column invariants. The inverse of EncodeDatasetShard:
/// DecodeDatasetShard(EncodeDatasetShard(d)) == d, byte-exact.
StatusOr<Dataset> DecodeDatasetShard(std::string_view data);

/// Repair's salvage of a damaged shard: decodes the four data columns
/// alone, each of which must be present, intact under its CRC and sized
/// to the header. The missing-label bitmap (which EncodeDatasetShard
/// recomputes) may be damaged or missing, and trailing bytes are ignored.
StatusOr<Dataset> SalvageDatasetShard(std::string_view data);

/// Writes the dataset as one shard file (crash-safe: temp + fsync +
/// rename).
Status SaveDatasetShard(const Dataset& dataset, const std::string& path);

/// Reads a shard file written by SaveDatasetShard. Column invariants are
/// re-checked with enld::ValidateDataset, so a decoded shard is always
/// internally consistent.
StatusOr<Dataset> LoadDatasetShard(const std::string& path);

}  // namespace store
}  // namespace enld

#endif  // ENLD_STORE_SHARD_H_
