#include "enld/pipeline.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "common/telemetry/metrics.h"

namespace enld {

namespace {

struct PipelineMetrics {
  telemetry::Counter* submitted;
  telemetry::Counter* completed;
  telemetry::Counter* batches;
  telemetry::Counter* queue_deadline_drops;
  telemetry::Counter* hol_blocked;
  telemetry::Counter* snapshot_writes;
  telemetry::Counter* scrub_runs;
  telemetry::Counter* scrub_findings;
  telemetry::Counter* scrub_failures;
  // Per-request latency histograms (log-scale buckets, _seconds suffix =
  // cost metrics, outside the cross-thread determinism contract).
  telemetry::Histogram* queue_wait_seconds;
  telemetry::Histogram* admission_seconds;
  telemetry::Histogram* detect_seconds;
  telemetry::Histogram* snapshot_publish_seconds;
  telemetry::Histogram* scrub_seconds;

  static const PipelineMetrics& Get() {
    static const PipelineMetrics m = [] {
      auto& registry = telemetry::MetricsRegistry::Global();
      const std::vector<double> bounds = telemetry::LogScaleBuckets();
      return PipelineMetrics{
          registry.GetCounter("pipeline/submitted"),
          registry.GetCounter("pipeline/completed"),
          registry.GetCounter("pipeline/batches"),
          registry.GetCounter("pipeline/queue_deadline_drops"),
          registry.GetCounter("pipeline/hol_blocked"),
          registry.GetCounter("pipeline/snapshot_writes"),
          registry.GetCounter("pipeline/scrub_runs"),
          registry.GetCounter("pipeline/scrub_findings"),
          registry.GetCounter("pipeline/scrub_failures"),
          registry.GetHistogram("pipeline/queue_wait_seconds", bounds),
          registry.GetHistogram("pipeline/admission_seconds", bounds),
          registry.GetHistogram("pipeline/detect_seconds", bounds),
          registry.GetHistogram("pipeline/snapshot_publish_seconds", bounds),
          registry.GetHistogram("pipeline/scrub_seconds", bounds)};
    }();
    return m;
  }
};

}  // namespace

RequestPipeline::RequestPipeline(DataPlatform* platform, PipelineConfig config)
    : platform_(platform), config_(std::move(config)) {
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.recent_ring_capacity == 0) config_.recent_ring_capacity = 1;
  store_ = std::thread([this] { StoreLoop(); });
  try {
    dispatcher_ = std::thread([this] { DispatcherLoop(); });
  } catch (...) {
    Shutdown();  // joins the store thread before the members go away
    throw;
  }
}

RequestPipeline::~RequestPipeline() { Shutdown(); }

std::future<PipelineResponse> RequestPipeline::Submit(Dataset incremental) {
  return Submit(std::move(incremental), SubmitOptions{});
}

std::future<PipelineResponse> RequestPipeline::Submit(Dataset incremental,
                                                      SubmitOptions options) {
  PendingRequest request;
  request.dataset = std::move(incremental);
  request.options = options;
  std::future<PipelineResponse> future = request.promise.get_future();

  {
    std::unique_lock<std::mutex> lock(mu_);
    // Bounded queue: block the producer until a slot frees up (or the
    // pipeline stops). This is the backpressure that keeps a burst of
    // arrivals from buffering unbounded datasets in memory.
    space_cv_.wait(lock, [this] {
      return stopping_ || queue_.size() < config_.queue_capacity;
    });
    if (stopping_) {
      PipelineResponse response;
      response.result =
          Status::FailedPrecondition("pipeline is shut down");
      request.promise.set_value(std::move(response));
      return future;
    }
    request.sequence = ++next_sequence_;
    request.queued.Restart();
    ++counters_.submitted;
    queue_.push_back(std::move(request));
  }
  PipelineMetrics::Get().submitted->Increment();
  queue_cv_.notify_one();
  return future;
}

void RequestPipeline::DispatcherLoop() {
  std::vector<PendingRequest> batch;
  while (true) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping_ and fully drained
      const size_t take = std::min(config_.batch_size, queue_.size());
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ++counters_.batches;
      counters_.largest_batch = std::max<uint64_t>(counters_.largest_batch,
                                                   batch.size());
    }
    // Claimed slots are free before the batch is served, so producers
    // refill the queue while detection runs.
    space_cv_.notify_all();
    PipelineMetrics::Get().batches->Increment();

    for (PendingRequest& request : batch) CompleteRequest(request);
  }
}

void RequestPipeline::CompleteRequest(PendingRequest& request) {
  PipelineResponse response;
  response.sequence = request.sequence;
  response.request_id = request.options.request_id;
  response.queue_seconds = request.queued.ElapsedSeconds();
  PipelineMetrics::Get().queue_wait_seconds->Observe(response.queue_seconds);

  // The service budget for this request: the per-request override when one
  // was submitted (wire deadline header), else the platform config's.
  const double service_deadline =
      request.options.deadline_seconds >= 0.0
          ? request.options.deadline_seconds
          : platform_->config().request_deadline_seconds;
  // The queue-wait budget is its own knob; 0 falls back to the service
  // budget so existing drop_stale_in_queue configs behave as before.
  const double queue_budget = config_.queue_wait_budget_seconds > 0.0
                                  ? config_.queue_wait_budget_seconds
                                  : service_deadline;
  const bool waited_past_budget =
      queue_budget > 0.0 && response.queue_seconds > queue_budget;
  if (waited_past_budget) {
    // Head-of-line alarm: whatever sat in front of this request consumed
    // its whole queue budget. Counted even when the request is served
    // anyway, so ops can see HOL pressure before turning shedding on.
    PipelineMetrics::Get().hol_blocked->Increment();
  }
  bool dropped_in_queue = false;
  if (config_.drop_stale_in_queue && waited_past_budget) {
    // The request's whole budget evaporated in the queue: fail it without
    // touching the platform, so detection state (RNG stream included) is
    // exactly what it would be had the request never been submitted.
    dropped_in_queue = true;
    PipelineMetrics::Get().queue_deadline_drops->Increment();
    response.result = Status::DeadlineExceeded(
        "request spent " + std::to_string(response.queue_seconds) +
        "s queued, over its queue-wait budget of " +
        std::to_string(queue_budget) + "s");
  } else {
    Stopwatch service;
    response.result = platform_->Process(request.dataset,
                                         request.options.deadline_seconds,
                                         request.options.request_id);
    response.process_seconds = service.ElapsedSeconds();
    const RequestTimings& timings = platform_->last_request_timings();
    response.admission_seconds = timings.admission_seconds;
    response.detect_seconds = timings.detect_seconds;
    PipelineMetrics::Get().admission_seconds->Observe(
        timings.admission_seconds);
    if (timings.detect_seconds > 0.0) {
      PipelineMetrics::Get().detect_seconds->Observe(timings.detect_seconds);
    }
    if (response.result.ok()) BeginDeferredSnapshot();
  }

  response.stats_after = platform_->stats();
  response.clean_bank_after = platform_->framework().selected_clean_count();

  RequestRecord record;
  record.sequence = response.sequence;
  record.request_id = response.request_id;
  record.status = response.result.ok() ? StatusCode::kOk
                                       : response.result.status().code();
  record.queue_seconds = response.queue_seconds;
  record.admission_seconds = response.admission_seconds;
  record.detect_seconds = response.detect_seconds;
  record.process_seconds = response.process_seconds;
  bool scrub_due = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.completed;
    if (waited_past_budget) ++counters_.hol_blocked;
    if (dropped_in_queue) ++counters_.queue_deadline_drops;
    scrub_due = config_.scrub_hook && config_.scrub_every > 0 &&
                counters_.completed % config_.scrub_every == 0;
    recent_.push_back(record);
    while (recent_.size() > config_.recent_ring_capacity) {
      recent_.pop_front();
    }
  }
  PipelineMetrics::Get().completed->Increment();
  request.promise.set_value(std::move(response));
  if (scrub_due) BeginBackgroundScrub();
}

void RequestPipeline::BeginDeferredSnapshot() {
  if (!config_.snapshot_capture) return;
  // Serialize writes: snapshot seq numbers (and CURRENT) must advance in
  // request order, so the previous write has to land before the next
  // capture is taken. Detection of the *next* request still overlaps the
  // write handed over below.
  AwaitSnapshotWrite();
  StatusOr<std::function<Status()>> deferred = config_.snapshot_capture();
  if (!deferred.ok()) {
    std::lock_guard<std::mutex> lock(store_mu_);
    if (snapshot_status_.ok()) snapshot_status_ = deferred.status();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.snapshot_writes;
  }
  PipelineMetrics::Get().snapshot_writes->Increment();
  // The publish histogram times the durable write itself on the store
  // thread — the capture cost is already inside detect/process.
  StartStoreJob([write = std::move(deferred).value()] {
    Stopwatch publish;
    Status written = write();
    PipelineMetrics::Get().snapshot_publish_seconds->Observe(
        publish.ElapsedSeconds());
    return written;
  });
}

void RequestPipeline::BeginBackgroundScrub() {
  // The scrub reads the same store the deferred writes publish to, so it
  // rides the snapshot-write serialization chain: it starts only after
  // the in-flight write landed, and the next capture waits for it. The
  // request path never blocks on the scrub itself — only the *snapshot*
  // of a later request would, exactly as it waits for any write.
  AwaitSnapshotWrite();
  StartStoreJob([this, hook = config_.scrub_hook] {
    Stopwatch scrub;
    StatusOr<uint64_t> findings = hook();
    PipelineMetrics::Get().scrub_seconds->Observe(scrub.ElapsedSeconds());
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.scrub_runs;
      if (findings.ok()) counters_.scrub_findings += findings.value();
    }
    PipelineMetrics::Get().scrub_runs->Increment();
    if (findings.ok()) {
      PipelineMetrics::Get().scrub_findings->Add(findings.value());
    } else {
      PipelineMetrics::Get().scrub_failures->Increment();
    }
    // A failed scrub (e.g. no snapshot written yet) is telemetry, not a
    // pipeline error: it must not poison snapshot_status_.
    return Status::OK();
  });
}

void RequestPipeline::AwaitSnapshotWrite() {
  std::unique_lock<std::mutex> lock(store_mu_);
  store_cv_.wait(lock, [this] { return !store_busy_; });
}

void RequestPipeline::StartStoreJob(std::function<Status()> job) {
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    store_job_ = std::move(job);
    store_busy_ = true;
  }
  store_cv_.notify_all();
}

void RequestPipeline::StoreLoop() {
  std::unique_lock<std::mutex> lock(store_mu_);
  while (true) {
    store_cv_.wait(lock, [this] { return store_stopping_ || store_job_; });
    if (!store_job_) break;  // stopping_ and nothing left to write
    std::function<Status()> job = std::move(store_job_);
    store_job_ = nullptr;
    lock.unlock();
    Status status;
    try {
      status = job();
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("store job threw: ") + e.what());
    }
    lock.lock();
    if (!status.ok() && snapshot_status_.ok()) snapshot_status_ = status;
    store_busy_ = false;
    store_cv_.notify_all();
  }
}

Status RequestPipeline::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher hands over no more jobs; the store thread finishes the
  // one in flight, if any, before it sees the stop flag.
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    store_stopping_ = true;
  }
  store_cv_.notify_all();
  if (store_.joinable()) store_.join();
  return snapshot_status();
}

Status RequestPipeline::snapshot_status() const {
  std::lock_guard<std::mutex> lock(store_mu_);
  return snapshot_status_;
}

RequestPipeline::Counters RequestPipeline::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<RequestRecord> RequestPipeline::RecentRequests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<RequestRecord>(recent_.begin(), recent_.end());
}

size_t RequestPipeline::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace enld
