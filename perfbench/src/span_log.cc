#include "span_log.h"

#include <utility>

namespace perfbench {

int SpanLog::Add(std::string name, Clock::time_point start,
                 Clock::time_point end, int parent, uint64_t request) {
  SpanRecord record;
  record.name = std::move(name);
  record.start = Since(start);
  record.end = Since(end);
  record.parent = parent;
  record.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
  return static_cast<int>(records_.size()) - 1;
}

int SpanLog::Open(std::string name, int parent, uint64_t request) {
  const Clock::time_point now = Clock::now();
  return Add(std::move(name), now, now, parent, request);
}

void SpanLog::Close(int index) {
  const double end = Since(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<size_t>(index)].end = end;
}

std::vector<SpanRecord> SpanLog::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

}  // namespace perfbench
