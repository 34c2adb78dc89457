#ifndef ENLD_STORE_SNAPSHOT_H_
#define ENLD_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "enld/platform.h"
#include "store/io.h"

namespace enld {
namespace store {

/// Crash-safe snapshots of a complete DataPlatform. A snapshot root
/// directory holds numbered snapshots plus a CURRENT pointer file:
///
///   <root>/
///     CURRENT            — one line: the directory name of the latest
///                          snapshot ("snap-000003")
///     snap-000003/
///       MANIFEST.json    — schema, seq, config fingerprint, per-file
///                          byte size + CRC32
///       state.bin        — platform scalars, stats, RNG stream, P̃, S_c
///       model.bin        — the general model θ (nn/serialization format)
///       train/           — I_t as a sharded dataset (manifest + shards)
///       candidate/       — I_c as a sharded dataset
///
/// Saves are atomic: everything is written into a staging directory
/// ("snap-000003.tmp"), each file durably (temp + fsync + rename), then
/// the staging directory is renamed into place and only afterwards is
/// CURRENT updated. A crash at any point leaves either the previous
/// snapshot or the complete new one as CURRENT — never a partial state.
///
/// Error contract on load (asserted by the corruption tests): NotFound =
/// missing snapshot/CURRENT/listed file; InvalidArgument = structural
/// corruption (bad magic, truncation, CRC mismatch, inconsistent
/// sections). Config mismatches surface as FailedPrecondition from
/// DataPlatform::RestoreFromSnapshot.

/// Section ids inside state.bin (mirrored by tools/check_snapshot.py).
/// state.bin is at version 3, the only version this build reads or
/// writes: six sections, the admission section ending with the
/// deadline-exceeded counter.
inline constexpr uint32_t kSnapshotSectionMeta = 1;
inline constexpr uint32_t kSnapshotSectionStats = 2;
inline constexpr uint32_t kSnapshotSectionRng = 3;
inline constexpr uint32_t kSnapshotSectionConditional = 4;
inline constexpr uint32_t kSnapshotSectionSelected = 5;
inline constexpr uint32_t kSnapshotSectionAdmission = 6;

/// File and directory names inside a snapshot store, shared with the
/// integrity scrubber (store/scrub.h) and repairer (store/repair.h).
inline constexpr char kSnapshotCurrentFile[] = "CURRENT";
inline constexpr char kSnapshotManifestFile[] = "MANIFEST.json";
inline constexpr char kSnapshotStateFile[] = "state.bin";
inline constexpr char kSnapshotModelFile[] = "model.bin";
inline constexpr char kSnapshotTrainDir[] = "train";
inline constexpr char kSnapshotCandidateDir[] = "candidate";

/// FNV-1a hash over every behaviour-affecting field of the platform
/// configuration, in a fixed canonical byte encoding. Two configs with the
/// same fingerprint drive the detection pipeline identically, so restoring
/// a snapshot into a platform with a matching fingerprint is safe.
uint64_t FingerprintConfig(const DataPlatformConfig& config);

/// Everything a snapshot captures, decoded and structurally validated.
struct SnapshotContents {
  uint64_t seq = 0;
  uint64_t config_fingerprint = 0;
  EnldFrameworkState framework;
  PlatformStats stats;
  uint64_t inventory_dim = 0;
  int inventory_classes = 0;
  /// Whether a due auto-update was still deferred when the snapshot was
  /// taken.
  bool update_pending = false;
};

/// Serializes the state.bin payload (platform scalars, stats, RNG, P̃,
/// S_c — everything but the model and the datasets, which ride in their
/// own files). Deterministic: identical contents yield identical bytes.
std::string EncodeSnapshotState(const SnapshotContents& contents);

/// Parses state.bin's header (magic, byte-order tag, version 3, six
/// sections) and walks its sections. InvalidArgument when the header is
/// rejected, with its kind in `*fault` when given; section faults are left
/// in the walk for the caller to judge. The scrubber's state.bin check.
StatusOr<SectionWalk> WalkSnapshotState(std::string_view data,
                                        FormatFault* fault = nullptr);

/// Parses a state.bin buffer back into `contents`, verifying every section
/// envelope. The repairer uses this directly to salvage a snapshot whose
/// other files are damaged; SnapshotStore::Load stitches the model and
/// datasets in afterwards.
Status DecodeSnapshotState(std::string_view data, SnapshotContents* contents);

/// The cross-file invariants of complete contents: S_c covers the
/// candidate set, P̃ is num_classes square, and a non-empty candidate set
/// has the inventory geometry. SnapshotStore::Load enforces them, and
/// repair checks them before it publishes.
Status CheckSnapshotContents(const SnapshotContents& contents);

/// One file a snapshot's MANIFEST.json lists, with the size and CRC32 its
/// bytes must match.
struct SnapshotFileEntry {
  std::string file;
  uint64_t bytes = 0;
  uint32_t crc32 = 0;
};

/// A defect met while reading a MANIFEST.json.
struct ManifestProblem {
  FormatFault fault = FormatFault::kMalformed;
  std::string detail;
};

/// A snapshot's MANIFEST.json as far as it reads: a partly damaged
/// manifest still yields the entries that parse, and every problem met is
/// listed. The manifest is sound only when there is none.
struct SnapshotManifest {
  uint64_t config_fingerprint = 0;
  std::vector<SnapshotFileEntry> files;
  std::vector<ManifestProblem> problems;

  /// The entry listing `file`, or nullptr.
  const SnapshotFileEntry* Find(const std::string& file) const;
};

/// The MANIFEST.json text of snapshot `seq`: schema, seq, config
/// fingerprint, the listed `files` and the dataset directories.
std::string EncodeSnapshotManifest(
    uint64_t seq, uint64_t config_fingerprint,
    const std::vector<SnapshotFileEntry>& files);

/// Reads the MANIFEST.json text of snapshot `seq`: the schema, the seq
/// (a mismatch is a kMismatch problem), the config fingerprint, every
/// file entry (a plain name, a byte size and a CRC32), and that state.bin
/// and model.bin are listed. The one reader of MANIFEST.json, shared by
/// SnapshotStore::Load, the scrubber and the repairer.
SnapshotManifest ParseSnapshotManifest(const std::string& text, uint64_t seq);

/// Manages the snapshot directory: sequential saves, CURRENT tracking,
/// keep-last-N retention, and fully validated loads.
class SnapshotStore {
 public:
  /// `keep_last` = 0 retains every snapshot; otherwise each successful
  /// Save garbage-collects all but the newest `keep_last` snapshot
  /// directories (CURRENT's target always survives).
  explicit SnapshotStore(std::string root, size_t keep_last = 0)
      : root_(std::move(root)), keep_last_(keep_last) {}

  const std::string& root() const { return root_; }
  size_t keep_last() const { return keep_last_; }

  /// Writes `contents` as the next snapshot (seq := LatestSeq() + 1),
  /// advances CURRENT, then applies the retention policy. Returns the
  /// sequence number written.
  StatusOr<uint64_t> Save(const SnapshotContents& contents);

  /// Applies keep-last-N retention now: removes every snapshot directory
  /// except the newest keep_last() and the one CURRENT points at (which
  /// survives unconditionally, so a reader holding CURRENT never loses
  /// its target — including after a mid-publish crash left newer,
  /// unpublished directories behind). Best-effort: returns the number of
  /// snapshot directories removed; IO errors skip the entry. No-op when
  /// keep_last() is 0.
  size_t GarbageCollect() const;

  /// Loads one snapshot by sequence number, verifying the manifest, every
  /// file CRC and all cross-section invariants.
  StatusOr<SnapshotContents> Load(uint64_t seq) const;

  /// Loads the snapshot CURRENT points at.
  StatusOr<SnapshotContents> LoadLatest() const;

  /// Sequence number CURRENT points at; NotFound when the store is empty.
  StatusOr<uint64_t> LatestSeq() const;

  /// All snapshot sequence numbers present on disk, ascending (including
  /// any not pointed at by CURRENT).
  std::vector<uint64_t> ListSeqs() const;

  /// Directory name for a sequence number ("snap-000042").
  static std::string DirName(uint64_t seq);

 private:
  std::string root_;
  size_t keep_last_ = 0;
};

}  // namespace store
}  // namespace enld

#endif  // ENLD_STORE_SNAPSHOT_H_
