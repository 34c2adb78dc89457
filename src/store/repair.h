#ifndef ENLD_STORE_REPAIR_H_
#define ENLD_STORE_REPAIR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/scrub.h"

namespace enld {
namespace store {

/// Self-healing repair of a damaged snapshot store (docs/ROBUSTNESS.md
/// §"Self-healing runbook", `enld_cli repair`). A repair pass scrubs the
/// whole lineage, then rebuilds the snapshot CURRENT points at from
/// whatever still carries verifiable bytes:
///
///   * a damaged shard whose non-bitmap sections survive is re-encoded
///     from those sections ("section_rebuild"),
///   * or replaced by the same file from a sibling snapshot
///     ("donor_file"),
///   * or re-encoded from the exact row range the dataset manifest names,
///     taken from any sibling snapshot's dataset or an operator-supplied
///     --source directory ("donor_rows");
///   * a damaged dataset manifest is regenerated from its intact shards
///     ("dataset_manifest_rebuild");
///   * a damaged model.bin is replaced by a sibling copy
///     ("donor_file");
///   * a damaged CURRENT pointer is re-derived from the directories on
///     disk ("current_rebuild").
///
/// Every rebuilt artifact is accepted ONLY when its bytes match the size
/// and CRC32 the manifest recorded — a donor that diverged (datasets swap
/// at model updates) is rejected, never trusted. state.bin is unique per
/// snapshot and cannot be rebuilt; when it is damaged, repair fails (or,
/// with `allow_rollback`, repoints CURRENT at the newest intact
/// snapshot).
///
/// The repaired snapshot is published as a NEW sequence through
/// SnapshotStore::Save — the same staging + atomic-rename + CURRENT
/// protocol as every other save — so a crash mid-repair never loses the
/// last good snapshot. Fault site: "store/repair_publish" (checked before
/// the publish, under the store retry policy). Once a healthy snapshot is
/// reachable again, the superseded damaged directories are
/// garbage-collected ("gc" actions) so the healed lineage scrubs clean.

/// One rebuild step the repairer took (or planned, under dry_run).
struct RepairAction {
  uint64_t seq = 0;     ///< snapshot the artifact belongs to
  std::string file;     ///< store-root-relative path of the artifact
  std::string method;   ///< section_rebuild | donor_file | donor_rows |
                        ///  dataset_manifest_rebuild | manifest_rebuild |
                        ///  current_rebuild | rollback | gc
  std::string source;   ///< where the bytes came from
  std::string detail;   ///< human-readable message
};

struct RepairOptions {
  /// Optional sharded-dataset directory consulted as an extra row donor
  /// (after sibling snapshots) for "donor_rows" rebuilds.
  std::string source_dir;
  /// Scrub and plan the rebuild, but publish nothing.
  bool dry_run = false;
  /// When the target snapshot is unrepairable (state.bin damaged), repoint
  /// CURRENT at the newest intact snapshot instead of failing. Off by
  /// default: rolling back silently discards the damaged snapshot's data.
  bool allow_rollback = false;
};

struct RepairReport {
  std::string root;
  ScrubReport scrub;           ///< the pre-repair scrub of the whole store
  uint64_t target_seq = 0;     ///< snapshot the repair worked on
  uint64_t published_seq = 0;  ///< seq the repaired state is reachable at
  bool clean = false;          ///< store was already healthy; no-op
  bool repaired = false;       ///< store is healthy again
  bool dry_run = false;
  std::vector<RepairAction> actions;
  /// Why the store could not be healed (empty when clean or repaired);
  /// names the newest intact snapshot when one exists.
  std::string failure;
};

/// Scrubs `root` and heals the snapshot CURRENT points at, as described
/// above. The returned Status is non-OK only for environment-level
/// problems (unreadable root, publish IO errors that survive retries); an
/// unrepairable store is reported via `failure`, not an error. Telemetry:
/// store/repair_runs, store/repairs_published, store/shards_rebuilt.
StatusOr<RepairReport> RepairSnapshotStore(const std::string& root,
                                           const RepairOptions& options = {});

/// Writes the report as durable JSON, schema "enld-repair-v1" (validated
/// offline by tools/check_report.py repair).
Status WriteRepairReportJson(const RepairReport& report,
                             const std::string& path);

}  // namespace store
}  // namespace enld

#endif  // ENLD_STORE_REPAIR_H_
