#ifndef ENLD_PERFBENCH_SPAN_LOG_H_
#define ENLD_PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One benchmark span: a call the benchmark made into a layer.
struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds since the log's origin
  double end = 0.0;
  int parent = -1;     ///< index into the log, -1 for a root span
  uint64_t request = 0;
};

/// In-memory span recorder for the traced run. Spans are kept in memory
/// and written out when the benchmark ends. Safe to use from any thread.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Appends a finished span and returns its index.
  int Add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent, uint64_t request);

  /// Opens a span that ends at Close(); returns its index.
  int Open(std::string name, int parent, uint64_t request);
  void Close(int index);

  std::vector<SpanRecord> Records() const;

 private:
  double Since(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;  ///< guarded by mu_
};

/// RAII span on an optional log: with a null log (the untraced run) it
/// records nothing and costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent, uint64_t request)
      : log_(log),
        index_(log != nullptr ? log->Open(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench

#endif  // ENLD_PERFBENCH_SPAN_LOG_H_
