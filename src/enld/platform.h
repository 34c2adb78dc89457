#ifndef ENLD_ENLD_PLATFORM_H_
#define ENLD_ENLD_PLATFORM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "enld/admission.h"
#include "enld/framework.h"

namespace enld {

/// Configuration of the DataPlatform service façade.
struct DataPlatformConfig {
  EnldConfig enld;
  /// Automatically refresh the general model (Algorithm 4) after this many
  /// detection requests; 0 disables auto-updates.
  size_t update_every = 0;
  /// An auto-update is skipped (and retried after the next request) until
  /// the accumulated clean-inventory selection reaches this size — updating
  /// from a tiny S_c degrades the model instead of improving it.
  size_t min_update_samples = 200;
  /// Per-sample admission control (docs/ROBUSTNESS.md). Not part of the
  /// snapshot config fingerprint: strictness may change across restarts
  /// without orphaning existing snapshots.
  AdmissionConfig admission;
  /// Per-request wall-clock budget for Process, in seconds; 0 disables the
  /// deadline. Measured from request entry (queue wait excluded — the
  /// pipeline accounts that separately) and checked after admission and
  /// after detection: an over-budget request returns kDeadlineExceeded and
  /// is audited instead of stalling the stream behind it. An ops knob like
  /// admission — excluded from the snapshot config fingerprint.
  double request_deadline_seconds = 0.0;
  /// Keep-last-N retention for SaveSnapshot: after a successful save, all
  /// but the newest N snapshots are garbage-collected (0 keeps every
  /// snapshot). CURRENT and its target always survive. Also excluded from
  /// the config fingerprint.
  size_t snapshot_keep_last = 0;
};

/// Audit record of one request that blew its deadline budget — the
/// quarantine-style trail for the watchdog path (capped, inspectable,
/// telemetry-counted).
struct DeadlineRecord {
  uint64_t request = 0;       ///< platform request number
  /// Client-set observability id carried down from the wire (0 = unset);
  /// lets an operator join this audit row with the client's own logs and
  /// the serving ring buffer (docs/OBSERVABILITY.md).
  uint64_t request_id = 0;
  double elapsed_seconds = 0.0;
  double budget_seconds = 0.0;
  /// Where the budget ran out: "admission" (before detection — the
  /// framework RNG stream was not consumed) or "detection" (the computed
  /// result was discarded).
  std::string stage;
};

/// Wall-clock stage breakdown of the most recent Process call, for the
/// serving layer's per-request histograms and ring buffer. Includes
/// injected-stall penalties, like the deadline checks do.
struct RequestTimings {
  double admission_seconds = 0.0;  ///< entry through admission screening
  double detect_seconds = 0.0;     ///< detection proper (0 if never reached)
};

/// Running counters of a platform instance.
struct PlatformStats {
  uint64_t requests = 0;
  uint64_t samples_processed = 0;
  uint64_t samples_flagged_noisy = 0;
  uint64_t model_updates = 0;
  /// Samples refused admission and routed to the quarantine log.
  uint64_t samples_quarantined = 0;
  /// Same count broken down by RejectionReason (indexed by its value).
  uint64_t quarantined_by_reason[kNumRejectionReasons] = {0, 0, 0};
  /// Requests rejected wholesale: strict-mode admission failures and
  /// requests whose samples were all quarantined.
  uint64_t requests_rejected = 0;
  /// Auto-updates that came due but were deferred (S_c below
  /// min_update_samples, or a failed update attempt) and will be retried
  /// on a later request.
  uint64_t update_retries = 0;
  /// Requests dropped for exceeding request_deadline_seconds.
  uint64_t requests_deadline_exceeded = 0;
};

/// The deployment façade of Fig. 1: owns an EnldFramework, validates
/// incoming requests, applies the automatic model-update policy, and keeps
/// service statistics. This is the class a data platform embeds; the lower
/// EnldFramework API remains available for research use.
class DataPlatform {
 public:
  explicit DataPlatform(const DataPlatformConfig& config);

  /// One-time initialization with the data-lake inventory. Fails on an
  /// empty or inconsistent inventory. Must be called exactly once before
  /// Process.
  Status Initialize(const Dataset& inventory);

  /// Serves one detection request. Fails when the platform is not
  /// initialized or the dataset is incompatible with the inventory
  /// (feature dimension / class-count mismatch, empty input). Individual
  /// invalid samples (non-finite features, out-of-range labels) are
  /// quarantined and the clean remainder is processed; indices in the
  /// returned DetectionResult always refer to rows of the dataset as
  /// passed in. With `admission.strict`, any invalid sample fails the
  /// whole request instead. With `request_deadline_seconds` set, a request
  /// over budget returns kDeadlineExceeded: before detection the framework
  /// state (including its RNG stream) is untouched, after detection the
  /// result is discarded; either way the next request proceeds normally.
  /// On success, may trigger an automatic model update per the configured
  /// policy; an update that comes due but cannot run yet is retried on
  /// later requests rather than dropped.
  ///
  /// `deadline_override_seconds` replaces the configured
  /// request_deadline_seconds for this request only — the RPC front-end
  /// propagates the wire deadline header through it (docs/SERVING.md §4).
  /// Negative (the default) keeps the config's budget; 0 disables the
  /// deadline for this request.
  ///
  /// `request_id` is the client-set observability id from the frame header
  /// (0 = unset). It changes no behavior: it is stamped into quarantine
  /// and deadline-audit records produced by this request and counted into
  /// the "platform/process" trace span, so a live request can be followed
  /// from the wire into the audit trails (docs/OBSERVABILITY.md).
  StatusOr<DetectionResult> Process(const Dataset& incremental,
                                    double deadline_override_seconds = -1.0,
                                    uint64_t request_id = 0);

  /// Manually triggers a model update (same preconditions as
  /// EnldFramework::UpdateModel, plus the min_update_samples policy).
  Status Update();

  bool initialized() const { return initialized_; }
  const DataPlatformConfig& config() const { return config_; }
  const PlatformStats& stats() const { return stats_; }
  /// Inspectable log of quarantined samples (capped by
  /// admission.quarantine_capacity; counters keep counting past the cap).
  const QuarantineLog& quarantine() const { return quarantine_; }
  /// Audit trail of deadline-exceeded requests (capped like the quarantine
  /// log; stats_.requests_deadline_exceeded keeps counting past the cap).
  const std::vector<DeadlineRecord>& deadline_audit() const {
    return deadline_audit_;
  }
  /// Stage breakdown of the most recent Process call (zeroed at its
  /// entry). Read it right after Process returns, from the same thread
  /// that called it — the pipeline dispatcher does exactly that to feed
  /// the serving histograms and the recent-request ring.
  const RequestTimings& last_request_timings() const { return last_timings_; }
  /// True while a due auto-update is deferred awaiting enough clean
  /// samples (or a successful retry).
  bool update_pending() const { return update_pending_; }
  /// Direct access to the underlying framework (valid after Initialize).
  EnldFramework& framework() { return framework_; }

  /// Writes a crash-safe snapshot of the complete platform state (model,
  /// I_t / I_c, P̃, S_c, stats, RNG position) into `dir` and advances the
  /// store's CURRENT pointer, then applies the snapshot_keep_last
  /// retention policy. Requires Initialize. Defined in
  /// src/store/snapshot.cc; link the `enld_store` (or umbrella `enld`)
  /// target to use it.
  Status SaveSnapshot(const std::string& dir) const;

  /// Asynchronous variant used by the request pipeline: captures the
  /// complete platform state *now* (synchronously, so the platform may
  /// keep serving) and returns a deferred durable write. Running the
  /// returned closure — on any thread, e.g. the pipeline's store thread —
  /// performs the same save-and-retain work as SaveSnapshot and yields its
  /// Status. Defined in src/store/snapshot.cc.
  StatusOr<std::function<Status()>> BeginSnapshot(
      const std::string& dir) const;

  /// Replaces this platform's state with the latest snapshot in `dir`.
  /// The platform must have been built from the same DataPlatformConfig
  /// that wrote the snapshot (checked via a config fingerprint;
  /// FailedPrecondition on mismatch). Validates the snapshot completely
  /// before mutating anything — a failed restore leaves the platform
  /// untouched and usable. Defined in src/store/snapshot.cc.
  Status RestoreFromSnapshot(const std::string& dir);

 private:
  /// Screens `dataset`, records rejections (stamped with `request_id`)
  /// into the quarantine log and stats, and returns the row positions
  /// admitted for processing. InvalidArgument in strict mode or when
  /// nothing survives screening.
  StatusOr<std::vector<size_t>> AdmitSamples(const Dataset& dataset,
                                             uint64_t request,
                                             uint64_t request_id);
  void RunUpdatePolicy();
  /// Records a deadline overrun (stats, telemetry, capped audit trail) and
  /// builds the kDeadlineExceeded status Process returns for it.
  /// `budget_seconds` is the budget that actually applied — the config's
  /// or a per-request override.
  Status RecordDeadlineExceeded(double elapsed_seconds,
                                const std::string& stage,
                                double budget_seconds, uint64_t request_id);

  DataPlatformConfig config_;
  EnldFramework framework_;
  PlatformStats stats_;
  QuarantineLog quarantine_;
  std::vector<DeadlineRecord> deadline_audit_;
  RequestTimings last_timings_;
  bool update_pending_ = false;
  bool initialized_ = false;
  size_t inventory_dim_ = 0;
  int inventory_classes_ = 0;
};

}  // namespace enld

#endif  // ENLD_ENLD_PLATFORM_H_
