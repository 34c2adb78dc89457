#ifndef ENLD_ENLD_PIPELINE_H_
#define ENLD_ENLD_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "enld/platform.h"

namespace enld {

/// Asynchronous request pipeline in front of a DataPlatform (Fig. 1's
/// serving loop, decoupled from request arrival).
///
/// Producers call Submit from any thread; requests land in a bounded MPSC
/// queue and a single dispatcher thread drains them in batches of up to
/// `batch_size`, serving each through DataPlatform::Process. With a
/// snapshot hook configured, the post-request snapshot is captured
/// synchronously on the dispatcher thread, but its durable write runs on
/// the pipeline's own store thread, overlapping store IO with the next
/// request's detection at any ENLD_THREADS. A response therefore can go
/// out before its snapshot is durable: a crash loses at most the snapshot
/// in flight, and restore resumes from the previous one.
///
/// Determinism contract: detection results are byte-identical to calling
/// Process sequentially in submission order, at any thread count. Two
/// properties make this hold without any per-request re-seeding tricks:
/// the dispatcher completes requests strictly in submission order (the
/// framework's RNG stream and S_c accumulation advance exactly as in the
/// sequential path), and deferred snapshot writes only touch state that
/// was captured synchronously before the next request started — copied,
/// or shared immutable datasets the framework never mutates. Requests
/// are numbered by a monotonic submission sequence; that sequence — not
/// wall clock — is the identity used in responses and audit trails.
///
/// Deadline semantics: the platform's request_deadline_seconds budget is
/// enforced inside Process (admission + detection checks) — it is a
/// *service-time* budget, so a request that merely waited behind a slow
/// one still gets its full budget once picked up. With
/// `drop_stale_in_queue` set, the pipeline additionally fails a request
/// whose queue wait alone already exceeded the budget, without touching
/// the platform at all (load-shedding for latency-sensitive callers that
/// would ignore a late answer anyway). Either way the response carries
/// kDeadlineExceeded and the next queued request is served normally — a
/// slow request degrades, the stream never stalls.
struct PipelineConfig {
  /// Maximum requests waiting in the submission queue; Submit blocks the
  /// producer (backpressure) while the queue is full. Must be >= 1.
  size_t queue_capacity = 64;
  /// Maximum requests the dispatcher claims per drain cycle. Batching
  /// amortizes queue synchronization and keeps the snapshot writer busy
  /// with a steady stream of overlapped writes; it never changes results.
  size_t batch_size = 1;
  /// Fail requests whose queue wait alone exceeded their queue-wait
  /// budget, without serving them (see the deadline semantics above). Off
  /// by default: the deadline bounds service time, not time-in-system.
  bool drop_stale_in_queue = false;
  /// Queue-wait budget in seconds, decoupled from the service deadline so
  /// ops can tune shedding independently of service budgets
  /// (docs/SERVING.md §5): it bounds the wait `drop_stale_in_queue` sheds
  /// on, and feeds the head-of-line alarm (`hol_blocked` counter +
  /// "pipeline/hol_blocked" telemetry) that fires whenever a request
  /// waited past the budget — shed or not. 0 falls back to the request's
  /// service deadline (the platform config's request_deadline_seconds, or
  /// the per-request override), the original coupled behavior.
  double queue_wait_budget_seconds = 0.0;
  /// Optional snapshot hook, typically
  ///   [&] { return platform.BeginSnapshot(dir); }
  /// Called on the dispatcher thread after every successful request; the
  /// returned closure (the durable write) runs on the store thread.
  /// Writes are serialized with each other — the next capture waits for
  /// the previous write — so snapshot sequence numbers advance in request
  /// order, but detection of later requests proceeds concurrently.
  std::function<StatusOr<std::function<Status()>>()> snapshot_capture;
  /// Optional background integrity scrub, typically
  ///   [&] { auto r = store::ScrubSnapshotStore(dir); ... }
  /// returning the number of findings. Runs on the store thread — off the
  /// request path — every `scrub_every` completed requests, reusing the
  /// snapshot-write serialization: the scrub waits for the in-flight
  /// snapshot write, and the next write waits for the scrub, so the
  /// scrubber never reads a store mid-publish. Results land in the
  /// scrub_runs / scrub_findings counters and pipeline/scrub_* telemetry
  /// (docs/ROBUSTNESS.md §"Self-healing runbook").
  std::function<StatusOr<uint64_t>()> scrub_hook;
  /// Completed requests between background scrubs; 0 disables scrubbing.
  size_t scrub_every = 0;
  /// Completed requests remembered in the recent-request ring buffer
  /// (RecentRequests) for the stats endpoint; oldest entries fall off.
  /// Must be >= 1.
  size_t recent_ring_capacity = 64;
};

/// Per-request options carried alongside the dataset.
struct SubmitOptions {
  /// Service-deadline override in seconds for this request only —
  /// propagated from the wire deadline header by the RPC front-end
  /// (docs/SERVING.md §4). Negative (the default) applies the platform
  /// config's request_deadline_seconds; 0 explicitly disables the
  /// deadline for this request; positive values replace the config's
  /// budget (they may extend it as well as tighten it).
  double deadline_seconds = -1.0;
  /// Client-set observability id from the frame header (0 = unset).
  /// Carried into Process, the audit records, the recent-request ring,
  /// and the response (docs/OBSERVABILITY.md).
  uint64_t request_id = 0;
};

/// Everything the caller needs to render one completed request, snapshot
/// at completion time on the dispatcher thread. Reading the platform
/// directly from a producer thread races with later requests; reading the
/// response does not.
struct PipelineResponse {
  /// 1-based submission sequence number.
  uint64_t sequence = 0;
  /// The SubmitOptions request id, echoed through the pipeline (0 = unset).
  uint64_t request_id = 0;
  StatusOr<DetectionResult> result = Status::Internal("request not processed");
  /// Platform stats immediately after this request completed.
  PlatformStats stats_after;
  /// framework().selected_clean_count() immediately after this request.
  size_t clean_bank_after = 0;
  /// Time spent queued before the dispatcher picked the request up.
  double queue_seconds = 0.0;
  /// Time spent inside DataPlatform::Process.
  double process_seconds = 0.0;
  /// Stage breakdown of Process (platform last_request_timings); zero for
  /// requests shed in the queue or failed before the stage ran.
  double admission_seconds = 0.0;
  double detect_seconds = 0.0;
};

/// One completed request as remembered by the recent-request ring buffer —
/// the per-request trace record the stats endpoint exposes. The aggregated
/// span tree cannot carry per-request identity (spans merge by name), so
/// this ring is where a live request id can actually be found again.
struct RequestRecord {
  uint64_t sequence = 0;
  uint64_t request_id = 0;
  StatusCode status = StatusCode::kOk;
  double queue_seconds = 0.0;
  double admission_seconds = 0.0;
  double detect_seconds = 0.0;
  double process_seconds = 0.0;
};

class RequestPipeline {
 public:
  /// `platform` must be initialized and must outlive the pipeline; the
  /// dispatcher is the only thread touching it between construction and
  /// Shutdown.
  RequestPipeline(DataPlatform* platform, PipelineConfig config);
  ~RequestPipeline();

  RequestPipeline(const RequestPipeline&) = delete;
  RequestPipeline& operator=(const RequestPipeline&) = delete;

  /// Enqueues one detection request; blocks while the queue is full. The
  /// future resolves when the dispatcher completes the request — in
  /// submission order. After Shutdown, resolves immediately with
  /// FailedPrecondition.
  std::future<PipelineResponse> Submit(Dataset incremental);

  /// Same, with per-request options (e.g. a wire-propagated deadline).
  std::future<PipelineResponse> Submit(Dataset incremental,
                                       SubmitOptions options);

  /// Drains every queued request and stops the dispatcher, then lets the
  /// store thread finish the in-flight snapshot write and stops it too.
  /// Returns the first deferred snapshot error (OK when every write
  /// landed). Idempotent; also run by the destructor.
  Status Shutdown();

  /// First error produced by a deferred snapshot write, latched; OK while
  /// all writes (so far) succeeded. Complete only after Shutdown.
  Status snapshot_status() const;

  /// Monotonic pipeline counters (also exported as pipeline/* telemetry).
  struct Counters {
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t batches = 0;
    uint64_t largest_batch = 0;
    uint64_t queue_deadline_drops = 0;
    /// Requests whose queue wait exceeded the queue-wait budget — the
    /// head-of-line-blocking alarm. Counts shed and served requests alike,
    /// so the alarm fires even when drop_stale_in_queue is off.
    uint64_t hol_blocked = 0;
    uint64_t snapshot_writes = 0;
    /// Background store scrubs completed and the total findings they
    /// surfaced (0 findings = healthy store).
    uint64_t scrub_runs = 0;
    uint64_t scrub_findings = 0;
  };
  Counters counters() const;

  /// Copy of the recent-request ring, oldest first (at most
  /// recent_ring_capacity entries).
  std::vector<RequestRecord> RecentRequests() const;

  /// Requests currently waiting in the submission queue (excludes the
  /// batch the dispatcher already claimed).
  size_t queue_depth() const;

 private:
  struct PendingRequest {
    uint64_t sequence = 0;
    Dataset dataset;
    SubmitOptions options;
    std::promise<PipelineResponse> promise;
    Stopwatch queued;
  };

  void DispatcherLoop();
  void CompleteRequest(PendingRequest& request);
  /// Captures the post-request snapshot and hands its durable write to the
  /// store thread.
  void BeginDeferredSnapshot();
  /// Hands a background store scrub to the store thread, serialized with
  /// snapshot writes. Dispatcher thread only.
  void BeginBackgroundScrub();
  /// Waits until the store thread has finished the job it was last handed.
  /// Dispatcher thread only.
  void AwaitSnapshotWrite();
  /// Hands `job` to the store thread; the previous job must have finished
  /// (AwaitSnapshotWrite). Dispatcher thread only.
  void StartStoreJob(std::function<Status()> job);
  /// Runs store jobs one at a time until Shutdown, latching the first
  /// error a job returns into snapshot_status_.
  void StoreLoop();

  DataPlatform* platform_;
  PipelineConfig config_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< dispatcher waits for work
  std::condition_variable space_cv_;  ///< producers wait for capacity
  std::deque<PendingRequest> queue_;
  bool stopping_ = false;
  uint64_t next_sequence_ = 0;
  Counters counters_;
  std::deque<RequestRecord> recent_;  ///< ring buffer, guarded by mu_

  /// The store thread's hand-off slot: at most one job — a deferred
  /// snapshot write or a scrub — is pending or running at a time.
  /// Guarded by store_mu_: the pending job, whether a handed-over job has
  /// not finished yet, the stop flag, and the first error a job returned.
  mutable std::mutex store_mu_;
  std::condition_variable store_cv_;
  std::function<Status()> store_job_;
  bool store_busy_ = false;
  bool store_stopping_ = false;
  Status snapshot_status_;

  std::thread store_;
  std::thread dispatcher_;
};

}  // namespace enld

#endif  // ENLD_ENLD_PIPELINE_H_
