// Benchmark harness: drives one workload against the library through its
// public APIs and writes every raw measurement as one JSON document.
// perfbench/run.py builds this binary, runs it and turns the document into
// metrics; see perfbench/README.md for the workloads and the metrics.
//
//   enld_perfbench --workload stream|serve --seed N --seconds S
//                  --trace 0|1 --workdir DIR --out FILE --serve-rps R
//
// The untraced pass always runs. With --trace 1 a second, traced pass
// follows on a freshly set-up system, and each pass does half the work: it
// records the benchmark's own spans around every call into a layer, plus
// the deltas of the span tree and counters the library keeps. Output
// checks that need the data run here; their failures are listed under
// "violations".

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "data_lake.h"
#include "enld/platform.h"
#include "eval/paper_setup.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "span_log.h"
#include "store/json.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using enld::store::JsonValue;

// ---------------------------------------------------------------------------
// Workload plans.

/// Nominal request rates at which the run sizes below fill roughly
/// --seconds on a 4-core x86 host. They fix how much work one run does;
/// they are never derived from the run, so every run of a seed does the
/// same work.
constexpr double kStreamNominalRps = 3.0;
constexpr double kServeNominalCapacityRps = 2.0;
/// Share of a traced run given to serve's paced (fixed-rate, open-loop)
/// segments. Untraced runs send none: the end-to-end metrics come from the
/// back-to-back segments, and open-loop requests wake an idle server, so
/// on a shared host their latency spreads two to three times as much
/// across runs. The paced latency is a per-layer metric.
constexpr double kPacedShare = 0.3;
/// The share of a class's 40 chunk rows one increment takes: the
/// CIFAR100-sim profile's own, ~125-row increments.
constexpr double kTakeMin = 0.2;
constexpr double kTakeMax = 0.45;
/// Requests in flight in the back-to-back phase (one per connection).
constexpr size_t kConnections = 4;
/// Every workload runs on one pool thread. With two, every parallel loop
/// waits for the slowest of three threads, and on a host with steal time
/// the wire workloads' latency and capacity spread 20-50% across seeds.
/// One thread also runs the snapshot write inline on the dispatcher.
constexpr size_t kPoolThreads = 1;
/// The enld_server update policy: Algorithm 4 every 9 requests once
/// S_c >= 1,500, dispatcher batches of 4.
constexpr size_t kUpdateEvery = 9;
constexpr size_t kMinUpdateSamples = 1500;
constexpr size_t kBatchSize = 4;
constexpr size_t kSnapshotKeepLast = 2;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string workdir;
  std::string out;
  double serve_rps = 0.0;
  /// Wall budget of the whole harness; later requests are not sent.
  double budget_seconds = 140.0;
};

/// A run of consecutive wire requests: paced at `rate` requests per second
/// from the segment's start, or back to back on every connection when
/// `rate` is 0.
struct Segment {
  const char* phase;  ///< "paced" or "saturate"
  size_t count;
  double rate;
};

struct Plan {
  bool wire = false;
  size_t update_every = 0;
  size_t setups = 0;  ///< set-up repetitions per run (median reported)
  size_t stream_requests = 0;
  double paced_rps = 0.0;
  std::vector<Segment> segments;

  size_t requests() const {
    size_t total = stream_requests;
    for (const Segment& segment : segments) total += segment.count;
    return total;
  }
};

size_t Segments(double requests, size_t per_segment) {
  return std::max<size_t>(1, static_cast<size_t>(std::lround(
                                 requests / static_cast<double>(per_segment))));
}

/// The work of one pass. A traced run makes two passes, untraced then
/// traced, of half the work each, so it takes as long as an untraced run.
std::optional<Plan> MakePlan(const Options& options) {
  Plan plan;
  const double s = options.trace ? options.seconds / 2.0 : options.seconds;
  if (options.workload == "stream") {
    plan.setups = 5;
    plan.stream_requests =
        std::max<size_t>(1, static_cast<size_t>(std::lround(
                                s * kStreamNominalRps)));
    return plan;
  }
  if (options.workload != "serve" || options.serve_rps <= 0.0) {
    return std::nullopt;
  }
  plan.wire = true;
  plan.update_every = kUpdateEvery;
  plan.paced_rps = options.serve_rps;
  plan.setups = 15;
  // Segments are whole update cycles, so every run does the same number of
  // Algorithm 4 rounds in each phase; a lead of half a cycle puts each
  // update mid-segment, with requests queued behind it in the same
  // segment. The host's speed drifts on a 10-20 s scale, so a traced run's
  // paced segments are spread evenly between the back-to-back ones rather
  // than run as one block.
  const size_t length = plan.update_every;
  const size_t paced =
      options.trace ? Segments(plan.paced_rps * s * kPacedShare, length) : 0;
  const size_t saturate = Segments(
      kServeNominalCapacityRps * s * (options.trace ? 1.0 - kPacedShare : 1.0),
      length);
  plan.segments.push_back({"saturate", plan.update_every / 2, 0.0});
  size_t emitted_paced = 0, emitted_saturate = 0;
  while (emitted_paced < paced || emitted_saturate < saturate) {
    // Emit whichever phase is further behind its even share of the run.
    if (emitted_saturate == saturate ||
        (emitted_paced < paced &&
         emitted_paced * saturate <= emitted_saturate * paced)) {
      plan.segments.push_back({"paced", length, plan.paced_rps});
      ++emitted_paced;
    } else {
      plan.segments.push_back({"saturate", length, 0.0});
      ++emitted_saturate;
    }
  }
  return plan;
}

enld::DataPlatformConfig PlatformConfig(const Plan& plan) {
  enld::DataPlatformConfig config;
  config.enld = enld::PaperEnldConfig(enld::PaperDataset::kCifar100);
  config.update_every = plan.update_every;
  config.min_update_samples = kMinUpdateSamples;
  config.snapshot_keep_last = kSnapshotKeepLast;
  return config;
}

// ---------------------------------------------------------------------------
// Records.

struct RequestRecord {
  std::string phase;  ///< "stream", "paced" or "saturate"
  uint64_t index = 0;  ///< 1-based send order within the pass
  size_t rows = 0;
  bool ok = false;
  std::string error;
  double scheduled = 0.0;  ///< seconds since the pass origin
  double sent = 0.0;
  double done = 0.0;
  double process_s = 0.0;
  double queue_s = 0.0;
  double admission_s = 0.0;
  uint64_t sequence = 0;  ///< server sequence (wire) or index (stream)
  uint64_t tp = 0, fp = 0, fn = 0;
  uint64_t verdict = 0;  ///< FNV-1a of the clean/noisy partition
};

struct PhaseWindow {
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

struct Telemetry {
  enld::telemetry::SpanSnapshot tree;
  enld::telemetry::MetricsSnapshot metrics;
};

Telemetry Capture() {
  return {enld::telemetry::TraceTree::Global().Snapshot(),
          enld::telemetry::MetricsRegistry::Global().Snapshot()};
}

struct PassResult {
  bool traced = false;
  std::vector<RequestRecord> requests;
  std::vector<PhaseWindow> phases;
  JsonValue telemetry;
  JsonValue server = JsonValue::Object();
  std::vector<SpanRecord> spans;
};

// ---------------------------------------------------------------------------
// Output checks.

class Violations {
 public:
  void Add(std::string message) {
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 50) messages_.push_back(std::move(message));
  }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> messages_;  ///< first 50 only
};

uint64_t Fnv(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Checks that `clean` and `noisy` partition the labelled rows of the
/// dataset sent, and scores the verdict against the generator's truth.
template <typename Index>
void ScoreVerdict(const Increment& sent, const std::vector<Index>& clean,
                  const std::vector<Index>& noisy, RequestRecord* record,
                  Violations* violations) {
  const enld::Dataset& d = sent.dataset;
  std::vector<int> seen(d.size(), 0);
  bool in_range = true;
  for (Index i : clean) {
    if (static_cast<size_t>(i) >= d.size()) in_range = false;
    else ++seen[i];
  }
  for (Index i : noisy) {
    if (static_cast<size_t>(i) >= d.size()) in_range = false;
    else seen[i] += 2;
  }
  bool partition = in_range;
  for (size_t i = 0; i < d.size() && partition; ++i) {
    const bool labelled = d.observed_labels[i] != enld::kMissingLabel;
    partition = labelled ? (seen[i] == 1 || seen[i] == 2) : seen[i] == 0;
  }
  if (!partition) {
    violations->Add("request " + std::to_string(record->index) +
                    ": clean and noisy indices do not partition the " +
                    std::to_string(d.size()) + " labelled rows sent");
  }
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < d.size(); ++i) {
    hash = Fnv(hash, static_cast<uint64_t>(seen[i]));
    if (seen[i] == 0) continue;
    const bool flagged = seen[i] == 2;
    const bool noisy_truth = sent.truth[i] != d.observed_labels[i];
    if (flagged && noisy_truth) ++record->tp;
    if (flagged && !noisy_truth) ++record->fp;
    if (!flagged && noisy_truth) ++record->fn;
  }
  record->verdict = hash;
}

// ---------------------------------------------------------------------------
// JSON output.

JsonValue Num(double v) { return JsonValue::Number(v); }

JsonValue RequestsJson(const std::vector<RequestRecord>& requests) {
  JsonValue out = JsonValue::Array();
  for (const RequestRecord& r : requests) {
    JsonValue o = JsonValue::Object();
    o.Set("phase", JsonValue::String(r.phase));
    o.Set("index", Num(static_cast<double>(r.index)));
    o.Set("rows", Num(static_cast<double>(r.rows)));
    o.Set("ok", JsonValue::Bool(r.ok));
    if (!r.ok) o.Set("error", JsonValue::String(r.error));
    o.Set("scheduled", Num(r.scheduled));
    o.Set("sent", Num(r.sent));
    o.Set("done", Num(r.done));
    o.Set("process_s", Num(r.process_s));
    o.Set("queue_s", Num(r.queue_s));
    o.Set("admission_s", Num(r.admission_s));
    o.Set("sequence", Num(static_cast<double>(r.sequence)));
    o.Set("tp", Num(static_cast<double>(r.tp)));
    o.Set("fp", Num(static_cast<double>(r.fp)));
    o.Set("fn", Num(static_cast<double>(r.fn)));
    out.items().push_back(std::move(o));
  }
  return out;
}

JsonValue SpansJson(const std::vector<SpanRecord>& spans) {
  JsonValue out = JsonValue::Array();
  for (const SpanRecord& s : spans) {
    JsonValue o = JsonValue::Object();
    o.Set("name", JsonValue::String(s.name));
    o.Set("start", Num(s.start));
    o.Set("end", Num(s.end));
    o.Set("parent", Num(s.parent));
    o.Set("request", Num(static_cast<double>(s.request)));
    out.items().push_back(std::move(o));
  }
  return out;
}

using FlatTree = std::map<std::string, std::pair<uint64_t, double>>;

void FlattenTree(const enld::telemetry::SpanSnapshot& node,
                 const std::string& path, FlatTree* out) {
  for (const auto& child : node.children) {
    const std::string child_path =
        path.empty() ? child.name : path + ">" + child.name;
    auto& slot = (*out)[child_path];
    slot.first += child.count;
    slot.second += child.total_seconds;
    FlattenTree(child, child_path, out);
  }
}

/// A stretch of the run between two captures.
struct TelemetryWindow {
  Telemetry before;
  Telemetry after;
};

/// What the library's own span tree and counters recorded inside the
/// windows, summed over them. Span paths join names with '>'.
JsonValue TelemetryDelta(const std::vector<TelemetryWindow>& windows) {
  FlatTree span_sums, histogram_sums;  // (count, total or sum)
  std::map<std::string, uint64_t> counter_sums;
  for (const TelemetryWindow& w : windows) {
    FlatTree a, b;
    FlattenTree(w.before.tree, "", &b);
    FlattenTree(w.after.tree, "", &a);
    for (const auto& [path, value] : a) {
      const auto it = b.find(path);
      auto& sum = span_sums[path];
      sum.first += value.first - (it != b.end() ? it->second.first : 0);
      sum.second += value.second - (it != b.end() ? it->second.second : 0);
    }
    const auto& counters = w.before.metrics.counters;
    for (const auto& [name, value] : w.after.metrics.counters) {
      const auto it = counters.find(name);
      counter_sums[name] += value - (it != counters.end() ? it->second : 0);
    }
    const auto& histograms = w.before.metrics.histograms;
    for (const auto& [name, h] : w.after.metrics.histograms) {
      const auto it = histograms.find(name);
      const bool seen = it != histograms.end();
      auto& sum = histogram_sums[name];
      sum.first += h.count - (seen ? it->second.count : 0);
      sum.second += h.sum - (seen ? it->second.sum : 0.0);
    }
  }
  JsonValue spans = JsonValue::Array();
  for (const auto& [path, sum] : span_sums) {
    if (sum.first == 0) continue;
    JsonValue o = JsonValue::Object();
    o.Set("path", JsonValue::String(path));
    o.Set("count", Num(static_cast<double>(sum.first)));
    o.Set("total_s", Num(sum.second));
    spans.items().push_back(std::move(o));
  }
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, sum] : counter_sums) {
    counters.Set(name, Num(static_cast<double>(sum)));
  }
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, sum] : histogram_sums) {
    JsonValue o = JsonValue::Object();
    o.Set("count", Num(static_cast<double>(sum.first)));
    o.Set("sum", Num(sum.second));
    histograms.Set(name, std::move(o));
  }
  JsonValue out = JsonValue::Object();
  out.Set("spans", std::move(spans));
  out.Set("counters", std::move(counters));
  out.Set("histograms", std::move(histograms));
  return out;
}

// ---------------------------------------------------------------------------
// CPU placement.

/// How often CpuShuffle moves the process's threads.
constexpr std::chrono::milliseconds kShufflePeriod{25};

/// Keeps every thread of the process moving over the CPUs it may use.
///
/// A busy thread that never sleeps stays on the CPU it started on, and on
/// a shared host one CPU can run 30-50% slower than another, in streaks
/// of seconds to minutes. A run would then measure whichever CPU its busy
/// thread landed on. While a CpuShuffle lives, a helper thread takes one
/// CPU away from every other thread of the process every 25 ms, round
/// robin, so a busy thread moves at least once per round of all CPUs and
/// a ~300 ms request runs on several of them. The helper sleeps between
/// moves; each move costs the moved thread a cold cache.
class CpuShuffle {
 public:
  CpuShuffle() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
    if (cpus_.size() >= 2) mover_ = std::thread([this] { Run(); });
  }
  ~CpuShuffle() {
    if (!mover_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    mover_.join();
    Apply(all_, 0);
  }
  CpuShuffle(const CpuShuffle&) = delete;
  CpuShuffle& operator=(const CpuShuffle&) = delete;

 private:
  void Run() {
    const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t k = 0;
         !wake_.wait_for(lock, kShufflePeriod, [this] { return stop_; });
         ++k) {
      cpu_set_t set = all_;
      CPU_CLR(cpus_[k % cpus_.size()], &set);
      Apply(set, self);
    }
  }

  /// Sets the affinity of every thread of the process but `skip`.
  static void Apply(const cpu_set_t& set, pid_t skip) {
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) return;
    while (const dirent* entry = readdir(tasks)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
      if (tid > 0 && tid != skip) sched_setaffinity(tid, sizeof(set), &set);
    }
    closedir(tasks);
  }

  cpu_set_t all_;
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread mover_;
};

// ---------------------------------------------------------------------------
// stream: in-process closed loop through DataPlatform::Process.

std::unique_ptr<enld::DataPlatform> SetUpStream(const Plan& plan,
                                                const DataLake& lake,
                                                SpanLog* log,
                                                double* seconds) {
  ScopedSpan span(log, "setup", -1, 0);
  const Clock::time_point t0 = Clock::now();
  auto platform = std::make_unique<enld::DataPlatform>(PlatformConfig(plan));
  enld::Status init;
  {
    ScopedSpan call(log, "DataPlatform::Initialize", span.index(), 0);
    init = platform->Initialize(lake.inventory());
  }
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!init.ok()) {
    std::fprintf(stderr, "Initialize failed: %s\n", init.ToString().c_str());
    std::exit(2);
  }
  return platform;
}

/// Sends work[first, last) back to back through Process: one stretch of
/// the stream, with its own phase window. Times are from `origin`.
void RunStreamStretch(enld::DataPlatform& platform,
                      const std::vector<Increment>& work, size_t first,
                      size_t last, Clock::time_point origin,
                      Clock::time_point stop, SpanLog* log, PassResult* pass,
                      Violations* violations) {
  auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - origin).count();
  };
  PhaseWindow window{"stream", 0.0, 0.0};
  for (size_t k = first; k < last && Clock::now() < stop; ++k) {
    const Increment& inc = work[k];
    RequestRecord record;
    record.phase = "stream";
    record.index = k + 1;
    record.sequence = k + 1;
    record.rows = inc.dataset.size();
    ScopedSpan request(log, "request", -1, record.index);
    const Clock::time_point t0 = Clock::now();
    enld::StatusOr<enld::DetectionResult> result = [&] {
      ScopedSpan call(log, "DataPlatform::Process", request.index(),
                      record.index);
      return platform.Process(inc.dataset);
    }();
    const Clock::time_point t1 = Clock::now();
    record.scheduled = record.sent = since(t0);
    record.done = since(t1);
    record.process_s = record.done - record.sent;
    record.admission_s = platform.last_request_timings().admission_seconds;
    record.ok = result.ok();
    if (result.ok()) {
      ScoreVerdict(inc, result->clean_indices, result->noisy_indices, &record,
                   violations);
    } else {
      record.error = result.status().ToString();
    }
    if (k == first) window.start = record.sent;
    window.end = record.done;
    pass->requests.push_back(std::move(record));
  }
  pass->phases.push_back(window);
}

// ---------------------------------------------------------------------------
// serve: restart from a snapshot and serve over loopback.

struct WireSystem {
  std::unique_ptr<enld::DataPlatform> platform;
  std::unique_ptr<enld::rpc::RpcServer> server;
  std::string store_dir;
};

/// Capture/write bookkeeping of the traced pass's snapshot hook.
struct HookState {
  SpanLog* log = nullptr;
  std::atomic<uint64_t> captures{0};
};

/// Restores a fresh platform from the prep snapshot and starts the server
/// with the enld_server policy and a snapshot hook into `store_dir`. Only
/// the restore and Start are timed. The traced pass wraps the hook and the
/// write closure it returns in spans.
WireSystem SetUpWire(const Plan& plan, const std::string& prep_dir,
                     const std::string& store_dir, HookState* hook,
                     SpanLog* log, double* seconds) {
  WireSystem system;
  system.store_dir = store_dir;
  std::filesystem::remove_all(store_dir);
  ScopedSpan span(log, "setup", -1, 0);
  const Clock::time_point t0 = Clock::now();
  system.platform = std::make_unique<enld::DataPlatform>(PlatformConfig(plan));
  enld::Status restored;
  {
    ScopedSpan call(log, "DataPlatform::RestoreFromSnapshot", span.index(), 0);
    restored = system.platform->RestoreFromSnapshot(prep_dir);
  }
  if (!restored.ok()) {
    std::fprintf(stderr, "restore failed: %s\n", restored.ToString().c_str());
    std::exit(2);
  }
  enld::rpc::ServerConfig config;
  config.pipeline.batch_size = kBatchSize;
  enld::DataPlatform* platform = system.platform.get();
  if (hook == nullptr) {
    config.pipeline.snapshot_capture = [platform, store_dir] {
      return platform->BeginSnapshot(store_dir);
    };
  } else {
    config.pipeline.snapshot_capture =
        [platform, store_dir,
         hook]() -> enld::StatusOr<std::function<enld::Status()>> {
      const uint64_t sequence = ++hook->captures;
      const Clock::time_point c0 = Clock::now();
      enld::StatusOr<std::function<enld::Status()>> deferred =
          platform->BeginSnapshot(store_dir);
      hook->log->Add("store/capture", c0, Clock::now(), -1, sequence);
      if (!deferred.ok()) return deferred.status();
      auto write = std::make_shared<std::function<enld::Status()>>(
          std::move(deferred).value());
      return std::function<enld::Status()>([write, hook, sequence] {
        const Clock::time_point w0 = Clock::now();
        enld::Status status = (*write)();
        hook->log->Add("store/write", w0, Clock::now(), -1, sequence);
        return status;
      });
    };
  }
  system.server =
      std::make_unique<enld::rpc::RpcServer>(platform, std::move(config));
  enld::Status started;
  {
    ScopedSpan call(log, "RpcServer::Start", span.index(), 0);
    started = system.server->Start();
  }
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    std::exit(2);
  }
  return system;
}

/// Reads pipeline.largest_batch out of the live stats document.
double LargestBatch(const enld::rpc::RpcServer& server) {
  enld::StatusOr<JsonValue> doc = JsonValue::Parse(server.BuildStatsJson());
  if (!doc.ok()) return 0.0;
  const JsonValue* pipeline = doc->Find("pipeline");
  const JsonValue* largest =
      pipeline != nullptr ? pipeline->Find("largest_batch") : nullptr;
  return largest != nullptr ? largest->AsNumber() : 0.0;
}

void RunWirePass(const Plan& plan, WireSystem& system,
                 const std::vector<Increment>& work, Clock::time_point stop,
                 SpanLog* log, PassResult* pass, Violations* violations) {
  std::vector<std::unique_ptr<enld::rpc::RpcClient>> clients;
  for (size_t c = 0; c < kConnections; ++c) {
    enld::rpc::ClientConfig config;
    config.port = system.server->port();
    config.retry = enld::RetryPolicy::NoRetry();
    clients.push_back(std::make_unique<enld::rpc::RpcClient>(config));
    const enld::Status connected = clients.back()->Connect();
    if (!connected.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   connected.ToString().c_str());
      std::exit(2);
    }
  }

  const Clock::time_point origin = Clock::now();
  auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - origin).count();
  };
  std::mutex records_mu;

  // One segment: `count` requests starting at work[first]. A paced segment
  // sends request k at segment start + k / rate on whichever connection is
  // free; a back-to-back segment sends as soon as a connection is free.
  auto run_segment = [&](const std::string& name, size_t first, size_t count,
                       double rate) {
    const Clock::time_point segment_start = Clock::now();
    PhaseWindow window{name, since(segment_start), 0.0};
    std::atomic<size_t> next{0};
    auto sender = [&](enld::rpc::RpcClient* client) {
      while (true) {
        const size_t k = next.fetch_add(1);
        if (k >= count) return;
        Clock::time_point scheduled = Clock::now();
        if (rate > 0.0) {
          scheduled = segment_start +
                      std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(k) / rate));
          std::this_thread::sleep_until(scheduled);
        }
        if (Clock::now() >= stop) return;
        const Increment& inc = work[first + k];
        RequestRecord record;
        record.phase = name;
        record.index = first + k + 1;
        record.rows = inc.dataset.size();
        const Clock::time_point sent = Clock::now();
        enld::StatusOr<enld::rpc::WireDetectResponse> response =
            client->Detect(inc.dataset, -1.0, record.index);
        const Clock::time_point done = Clock::now();
        record.scheduled = since(scheduled);
        record.sent = since(sent);
        record.done = since(done);
        if (!response.ok()) {
          record.error = response.status().ToString();
        } else {
          record.sequence = response->server_sequence;
          record.queue_s = response->queue_seconds;
          record.process_s = response->process_seconds;
          record.ok = response->service_status.ok();
          if (response->request_id != record.index) {
            violations->Add("request " + std::to_string(record.index) +
                            ": response echoes request id " +
                            std::to_string(response->request_id));
          }
          if (record.ok) {
            ScoreVerdict(inc, response->clean_indices,
                         response->noisy_indices, &record, violations);
          } else {
            record.error = response->service_status.ToString();
          }
        }
        if (log != nullptr) {
          // Spans are keyed by server sequence, learnt from the response,
          // so they join the hook's capture and write spans: the hook runs
          // once per successful request, in sequence order.
          const int parent =
              log->Add("request", scheduled, done, -1, record.sequence);
          log->Add("gen/late", scheduled, sent, parent, record.sequence);
          log->Add("RpcClient::Detect", sent, done, parent, record.sequence);
        }
        std::lock_guard<std::mutex> lock(records_mu);
        pass->requests.push_back(std::move(record));
      }
    };
    std::vector<std::thread> threads;
    for (auto& client : clients) threads.emplace_back(sender, client.get());
    for (std::thread& t : threads) t.join();
    window.end = since(Clock::now());
    pass->phases.push_back(window);
  };

  size_t first = 0;
  for (const Segment& segment : plan.segments) {
    run_segment(segment.phase, first, segment.count, segment.rate);
    first += segment.count;
  }

  pass->server.Set("largest_batch", Num(LargestBatch(*system.server)));
  for (auto& client : clients) client->Disconnect();
  const enld::Status drained = system.server->Shutdown();
  if (!drained.ok()) {
    violations->Add("deferred snapshot write failed: " + drained.ToString());
  }
  // The server's side of the wire; the process-wide rpc/bytes_* counters
  // would add the in-process clients' traffic to it.
  uint64_t bytes_read = 0, bytes_written = 0;
  for (const auto& connection : system.server->connection_summaries()) {
    bytes_read += connection.bytes_read;
    bytes_written += connection.bytes_written;
  }
  pass->server.Set("bytes_read", Num(static_cast<double>(bytes_read)));
  pass->server.Set("bytes_written", Num(static_cast<double>(bytes_written)));
  std::sort(pass->requests.begin(), pass->requests.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.index < b.index;
            });

  // Server sequences of the answered requests cover 1..N exactly once.
  std::vector<uint64_t> sequences;
  size_t succeeded = 0;
  for (const RequestRecord& r : pass->requests) {
    if (r.sequence != 0) sequences.push_back(r.sequence);
    if (r.ok) ++succeeded;
  }
  std::sort(sequences.begin(), sequences.end());
  for (size_t i = 0; i < sequences.size(); ++i) {
    if (sequences[i] != i + 1) {
      violations->Add("server sequences do not cover 1.." +
                      std::to_string(sequences.size()) + ": position " +
                      std::to_string(i + 1) + " holds " +
                      std::to_string(sequences[i]));
      break;
    }
  }

  // The store's CURRENT snapshot restores into a fresh platform and holds
  // the state after the last served request.
  enld::DataPlatform fresh(PlatformConfig(plan));
  const enld::Status restored = fresh.RestoreFromSnapshot(system.store_dir);
  if (!restored.ok()) {
    violations->Add("CURRENT snapshot does not restore: " +
                    restored.ToString());
  } else if (fresh.stats().requests != succeeded) {
    violations->Add("CURRENT snapshot holds " +
                    std::to_string(fresh.stats().requests) +
                    " served requests, expected " + std::to_string(succeeded));
  }
}

// ---------------------------------------------------------------------------

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::optional<Options> ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    const double number = std::atof(value.c_str());
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = number;
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--out") {
      options.out = value;
    } else if (flag == "--serve-rps") {
      options.serve_rps = number;
    } else if (flag == "--budget") {
      options.budget_seconds = number;
    } else {
      return std::nullopt;
    }
  }
  if (options.workdir.empty() || options.out.empty() ||
      options.seconds <= 0.0) {
    return std::nullopt;
  }
  return options;
}

int Main(int argc, char** argv) {
  const std::optional<Options> parsed = ParseOptions(argc, argv);
  const std::optional<Plan> planned =
      parsed ? MakePlan(*parsed) : std::nullopt;
  if (!planned) {
    std::fprintf(stderr,
                 "usage: enld_perfbench --workload stream|serve "
                 "--seed N --seconds S --trace 0|1 --workdir DIR --out FILE "
                 "--serve-rps R [--budget S]\n");
    return 2;
  }
  const Options& options = *parsed;
  const Plan& plan = *planned;
  const Clock::time_point start = Clock::now();
  auto deadline = [&](double fraction) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(options.budget_seconds *
                                                     fraction));
  };
  enld::SetParallelThreads(kPoolThreads);
  std::filesystem::create_directories(options.workdir);

  // Inputs: generated from the seed before anything is timed.
  DataLake lake(options.seed, kTakeMin, kTakeMax);
  const size_t total = plan.requests();
  std::vector<Increment> work;
  work.reserve(total);
  for (size_t i = 0; i < total; ++i) work.push_back(lake.Next());

  // Everything timed runs with the threads moving over the CPUs.
  const CpuShuffle shuffle;
  Violations violations;
  std::vector<PassResult> passes;
  std::vector<double> setup_seconds;
  SpanLog setup_log(start);
  SpanLog* setup_trace = options.trace ? &setup_log : nullptr;
  const size_t pass_count = options.trace ? 2 : 1;

  if (!plan.wire) {
    std::vector<uint64_t> verdicts[2];
    for (size_t p = 0; p < pass_count; ++p) {
      PassResult pass;
      pass.traced = p == 1;
      const Clock::time_point origin = Clock::now();
      const Clock::time_point stop = deadline(
          static_cast<double>(p + 1) / static_cast<double>(pass_count));
      SpanLog log(origin);
      SpanLog* trace = pass.traced ? &log : nullptr;
      std::vector<TelemetryWindow> setups, serving;
      std::unique_ptr<enld::DataPlatform> platform;
      // The untraced pass times `setups` set-ups (median reported), spread
      // over the run: one before each equal stretch of the stream, so that
      // they see the same host as the requests. The first system serves
      // the stream; the others are dropped. The traced pass sets up once.
      const size_t stretches = pass.traced ? 1 : plan.setups;
      for (size_t i = 0; i < stretches; ++i) {
        double seconds = 0.0;
        Telemetry before = Capture();
        std::unique_ptr<enld::DataPlatform> fresh = SetUpStream(
            plan, lake, pass.traced ? nullptr : setup_trace, &seconds);
        if (!pass.traced) {
          setups.push_back({std::move(before), Capture()});
          setup_seconds.push_back(seconds);
        }
        if (i == 0) platform = std::move(fresh);
        before = Capture();
        RunStreamStretch(*platform, work, plan.stream_requests * i / stretches,
                         plan.stream_requests * (i + 1) / stretches, origin,
                         stop, trace, &pass, &violations);
        serving.push_back({std::move(before), Capture()});
      }
      pass.telemetry = TelemetryDelta(serving);
      if (!pass.traced) pass.telemetry.Set("setup", TelemetryDelta(setups));
      if (trace != nullptr) pass.spans = log.Records();
      for (const RequestRecord& r : pass.requests) {
        verdicts[p].push_back(r.verdict);
      }
      passes.push_back(std::move(pass));
    }
    if (options.trace) {
      const size_t common = std::min(verdicts[0].size(), verdicts[1].size());
      for (size_t k = 0; k < common; ++k) {
        if (verdicts[0][k] != verdicts[1][k]) {
          violations.Add("stream request " + std::to_string(k + 1) +
                         ": traced and untraced verdicts differ");
          break;
        }
      }
    }
  } else {
    // Untimed prep: Initialize and save with the serving config (the
    // restore fingerprint covers update_every).
    const std::string prep_dir = options.workdir + "/prep";
    std::filesystem::remove_all(prep_dir);
    {
      enld::DataPlatform prep(PlatformConfig(plan));
      enld::Status status = prep.Initialize(lake.inventory());
      if (status.ok()) status = prep.SaveSnapshot(prep_dir);
      if (!status.ok()) {
        std::fprintf(stderr, "prep failed: %s\n", status.ToString().c_str());
        return 2;
      }
    }
    const Telemetry prep_after = Capture();
    const std::string scratch_store = options.workdir + "/setup-store";
    for (size_t i = 0; i + 1 < plan.setups; ++i) {
      double seconds = 0.0;
      WireSystem system =
          SetUpWire(plan, prep_dir, scratch_store, nullptr, setup_trace,
                    &seconds);
      setup_seconds.push_back(seconds);
      system.server->Shutdown();
    }
    std::filesystem::remove_all(scratch_store);
    const Telemetry setup_after = Capture();
    for (size_t p = 0; p < pass_count; ++p) {
      PassResult pass;
      pass.traced = p == 1;
      SpanLog log(Clock::now());
      SpanLog* trace = pass.traced ? &log : nullptr;
      HookState hook;
      hook.log = trace;
      double seconds = 0.0;
      const std::string store_dir =
          options.workdir + "/store-" + std::to_string(p);
      WireSystem system =
          SetUpWire(plan, prep_dir, store_dir, trace ? &hook : nullptr, trace,
                    &seconds);
      if (!pass.traced) setup_seconds.push_back(seconds);
      const Telemetry serving = Capture();
      RunWirePass(plan, system, work,
                  deadline(static_cast<double>(p + 1) /
                           static_cast<double>(pass_count)),
                  trace, &pass, &violations);
      pass.telemetry = TelemetryDelta({{serving, Capture()}});
      if (trace != nullptr) pass.spans = log.Records();
      system.server.reset();
      system.platform.reset();
      std::filesystem::remove_all(store_dir);
      passes.push_back(std::move(pass));
    }
    passes.front().telemetry.Set("setup",
                                 TelemetryDelta({{prep_after, setup_after}}));
    std::filesystem::remove_all(prep_dir);
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("workload", JsonValue::String(options.workload));
  doc.Set("seed", Num(static_cast<double>(options.seed)));
  doc.Set("seconds", Num(options.seconds));
  doc.Set("pool_threads", Num(static_cast<double>(kPoolThreads)));
  doc.Set("paced_rps", Num(plan.paced_rps));
  doc.Set("planned_requests", Num(static_cast<double>(total)));
  JsonValue setup = JsonValue::Array();
  for (double s : setup_seconds) setup.items().push_back(Num(s));
  doc.Set("setup_seconds", std::move(setup));
  doc.Set("setup_spans", SpansJson(setup_log.Records()));
  JsonValue pass_list = JsonValue::Array();
  for (PassResult& pass : passes) {
    JsonValue o = JsonValue::Object();
    o.Set("traced", JsonValue::Bool(pass.traced));
    o.Set("requests", RequestsJson(pass.requests));
    JsonValue phases = JsonValue::Array();
    for (const PhaseWindow& w : pass.phases) {
      JsonValue pw = JsonValue::Object();
      pw.Set("name", JsonValue::String(w.name));
      pw.Set("start", Num(w.start));
      pw.Set("end", Num(w.end));
      phases.items().push_back(std::move(pw));
    }
    o.Set("phases", std::move(phases));
    o.Set("telemetry", std::move(pass.telemetry));
    o.Set("server", std::move(pass.server));
    o.Set("spans", SpansJson(pass.spans));
    pass_list.items().push_back(std::move(o));
  }
  doc.Set("passes", std::move(pass_list));
  JsonValue problems = JsonValue::Array();
  for (const std::string& v : violations.messages()) {
    problems.items().push_back(JsonValue::String(v));
  }
  doc.Set("violations", std::move(problems));
  doc.Set("peak_rss_mb", Num(PeakRssMb()));
  doc.Set("wall_s", Num(std::chrono::duration<double>(Clock::now() - start)
                            .count()));

  std::ofstream out(options.out, std::ios::trunc);
  out << doc.ToString() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", options.out.c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
