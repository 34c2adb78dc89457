#ifndef ENLD_STORE_SCRUB_H_
#define ENLD_STORE_SCRUB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace enld {
namespace store {

/// Integrity scrubber for a snapshot store (docs/ROBUSTNESS.md
/// §"Self-healing runbook"). Where SnapshotStore::Load stops at the first
/// defect, the scrubber walks the whole lineage — CURRENT, every snap-*
/// directory, every manifest, every per-section CRC envelope inside
/// state.bin and the dataset shards — and collects *every* finding, typed
/// precisely enough for RepairSnapshotStore (store/repair.h) to decide
/// which surviving pieces a rebuild can start from.
///
/// Scrub reads go through the "store/scrub_read" fault site and retry
/// under DefaultIoRetryPolicy like all store IO. The walk itself never
/// mutates the store.

/// One defect, located down to the section that fails its CRC.
struct ScrubFinding {
  /// Snapshot sequence the finding belongs to; 0 = store-level (CURRENT).
  uint64_t seq = 0;
  /// Path relative to the store root ("snap-000002/train/shard-00000.bin").
  std::string file;
  /// Finer location: "file" (whole-file size/CRC vs its manifest),
  /// "header", "section-<id>", "manifest" (structural JSON problems),
  /// "pointer" (CURRENT), or "geometry" (cross-file disagreement).
  std::string section;
  /// Stable machine-readable key: "missing", "unreadable", "malformed",
  /// "bad_magic", "truncated", "size_mismatch", "crc_mismatch",
  /// "mismatch", "dangling".
  std::string reason;
  std::string detail;  ///< human-readable message
};

/// Everything one scrub pass observed. Findings are ordered
/// deterministically: store-level first, then snapshots by ascending seq,
/// files in manifest order within each snapshot.
struct ScrubReport {
  std::string root;
  /// Sequence CURRENT points at; 0 when CURRENT is missing, malformed or
  /// dangling (a matching finding explains which).
  uint64_t current_seq = 0;
  std::vector<uint64_t> scrubbed;  ///< snapshot seqs examined, ascending
  uint64_t files_checked = 0;
  uint64_t sections_checked = 0;
  uint64_t bytes_scrubbed = 0;
  std::vector<ScrubFinding> findings;

  bool clean() const { return findings.empty(); }
  /// True when snapshot `seq` was scrubbed and produced no findings.
  bool snapshot_clean(uint64_t seq) const;
  /// Scrubbed snapshots with zero findings, ascending.
  std::vector<uint64_t> intact_seqs() const;
};

/// Scrubs every snapshot directory under `root` plus the CURRENT pointer.
/// Defects are findings, not errors — the returned Status is only non-OK
/// when the root itself is unusable (missing or unreadable directory).
/// Telemetry: store/scrub_runs, store/scrub_files, store/scrub_findings.
StatusOr<ScrubReport> ScrubSnapshotStore(const std::string& root);

/// Writes the report as durable JSON, schema "enld-scrub-v1" (validated
/// offline by tools/check_report.py scrub).
Status WriteScrubReportJson(const ScrubReport& report,
                            const std::string& path);

}  // namespace store
}  // namespace enld

#endif  // ENLD_STORE_SCRUB_H_
