#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/telemetry/metrics.h"

namespace enld {

namespace {

/// Set inside pool workers so nested parallel loops degrade to inline
/// execution instead of deadlocking on a saturated pool.
thread_local bool tls_in_pool_worker = false;

/// Pool attribution metrics ("pool/*" is cost-only: task counts and times
/// depend on the thread count by nature and are exempt from the
/// determinism contract). Pointers cached once; recording is lock-free.
struct PoolMetrics {
  telemetry::Counter* tasks;
  telemetry::Counter* queue_wait_us;
  telemetry::Counter* execute_us;

  static const PoolMetrics& Get() {
    static const PoolMetrics m = [] {
      auto& registry = telemetry::MetricsRegistry::Global();
      return PoolMetrics{registry.GetCounter("pool/tasks"),
                         registry.GetCounter("pool/queue_wait_us"),
                         registry.GetCounter("pool/execute_us")};
    }();
    return m;
  }
};

class ThreadPool {
 public:
  explicit ThreadPool(size_t threads) {
    // Registers the pool/* counters on this thread, before any worker
    // runs: registered lazily by a worker, they could appear between two
    // telemetry snapshots of one process and make identical runs differ.
    PoolMetrics::Get();
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  size_t size() const { return workers_.size(); }

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back({std::move(task), Clock::now()});
    }
    cv_.notify_one();
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct QueuedTask {
    std::function<void()> fn;
    Clock::time_point enqueued;
  };

  static uint64_t ElapsedMicros(Clock::time_point since,
                                Clock::time_point until) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(until - since)
            .count());
  }

  void WorkerLoop() {
    tls_in_pool_worker = true;
    const PoolMetrics& metrics = PoolMetrics::Get();
    while (true) {
      QueuedTask task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      const Clock::time_point started = Clock::now();
      metrics.tasks->Increment();
      metrics.queue_wait_us->Add(ElapsedMicros(task.enqueued, started));
      task.fn();
      metrics.execute_us->Add(ElapsedMicros(started, Clock::now()));
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedTask> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

size_t DefaultThreadCount() {
  const char* env = std::getenv("ENLD_THREADS");
  if (env != nullptr) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

struct PoolState {
  std::mutex mu;
  std::unique_ptr<ThreadPool> pool;
  size_t requested = 0;  // 0 = resolve from ENLD_THREADS / hardware.
  bool initialized = false;
  size_t active_threads = 1;
};

PoolState& State() {
  static PoolState* state = new PoolState();  // Leaked: outlives exit races.
  return *state;
}

/// Returns the pool, creating it on first use. nullptr means "run inline"
/// (configured thread count <= 1).
ThreadPool* GetPool() {
  PoolState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.initialized) {
    const size_t threads =
        state.requested > 0 ? state.requested : DefaultThreadCount();
    state.active_threads = threads < 1 ? 1 : threads;
    if (state.active_threads > 1) {
      state.pool = std::make_unique<ThreadPool>(state.active_threads);
    }
    state.initialized = true;
  }
  return state.pool.get();
}

/// Shared state of one ParallelFor call. Owns a copy of the loop body so a
/// straggler helper task dequeued after the loop already finished only
/// touches this (shared_ptr-kept) struct, never the caller's stack. Every
/// claimed chunk executes exactly once, even after an exception; the first
/// exception is stored and rethrown by the caller once all chunks finished.
struct LoopState {
  LoopState(size_t begin_in, size_t end_in, size_t grain_in, size_t chunks_in,
            std::function<void(size_t, size_t)> fn_in)
      : begin(begin_in),
        end(end_in),
        grain(grain_in),
        chunks(chunks_in),
        fn(std::move(fn_in)) {}

  const size_t begin;
  const size_t end;
  const size_t grain;
  const size_t chunks;
  const std::function<void(size_t, size_t)> fn;

  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t completed = 0;
  std::exception_ptr error;

  /// Claims and runs chunks until none remain. Called by the submitting
  /// thread and by pool workers alike.
  void Drain() {
    while (true) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const size_t lo = begin + c * grain;
      const size_t hi = std::min(end, lo + grain);
      try {
        fn(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (error == nullptr) error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (++completed == chunks) done_cv.notify_all();
    }
  }
};

}  // namespace

size_t ParallelThreadCount() {
  GetPool();  // Force initialization.
  PoolState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.active_threads;
}

void SetParallelThreads(size_t threads) {
  PoolState& state = State();
  std::unique_ptr<ThreadPool> old;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    old = std::move(state.pool);  // Destroyed below, outside the lock.
    state.requested = threads;
    state.initialized = false;
    state.active_threads = 1;
  }
  old.reset();  // Joins the previous workers.
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  const size_t g = grain == 0 ? 1 : grain;
  const size_t chunks = (end - begin + g - 1) / g;

  // Loop/chunk counts depend only on (begin, end, grain) and on how often
  // call sites run — both thread-count invariant — so these counters are
  // part of the deterministic metric set, unlike pool/*.
  static telemetry::Counter* loops =
      telemetry::MetricsRegistry::Global().GetCounter("parallel/loops");
  static telemetry::Counter* chunk_counter =
      telemetry::MetricsRegistry::Global().GetCounter("parallel/chunks");
  loops->Increment();
  chunk_counter->Add(chunks);

  ThreadPool* pool = GetPool();
  if (pool == nullptr || chunks <= 1 || tls_in_pool_worker) {
    // Sequential path: same chunk decomposition, caller's thread only.
    for (size_t c = 0; c < chunks; ++c) {
      const size_t lo = begin + c * g;
      const size_t hi = std::min(end, lo + g);
      fn(lo, hi);
    }
    return;
  }

  auto loop = std::make_shared<LoopState>(begin, end, g, chunks, fn);
  // The caller is one executor; enlist at most chunks-1 helpers.
  const size_t helpers = std::min(pool->size(), chunks - 1);
  for (size_t i = 0; i < helpers; ++i) {
    pool->Submit([loop] { loop->Drain(); });
  }
  loop->Drain();

  std::unique_lock<std::mutex> lock(loop->mu);
  loop->done_cv.wait(lock, [&] { return loop->completed == loop->chunks; });
  if (loop->error != nullptr) std::rethrow_exception(loop->error);
}

}  // namespace enld
