#include "common/telemetry/trace.h"

#include <algorithm>

namespace enld {
namespace telemetry {

struct TraceTree::Node {
  std::string name;
  uint64_t count = 0;
  double total_seconds = 0.0;
  std::map<std::string, double> stats;
  std::vector<std::unique_ptr<Node>> children;  // First-entry order.

  Node* FindOrCreateChild(const std::string& child_name) {
    for (auto& child : children) {
      if (child->name == child_name) return child.get();
    }
    children.push_back(std::make_unique<Node>());
    children.back()->name = child_name;
    return children.back().get();
  }
};

namespace {

/// Innermost active span of this thread; null outside any span (then new
/// spans attach to the root).
thread_local TraceTree::Node* tls_current_span = nullptr;

void SnapshotNode(const TraceTree::Node& node, SpanSnapshot* out) {
  out->name = node.name;
  out->count = node.count;
  out->total_seconds = node.total_seconds;
  out->stats = node.stats;
  out->children.resize(node.children.size());
  for (size_t i = 0; i < node.children.size(); ++i) {
    SnapshotNode(*node.children[i], &out->children[i]);
  }
}

}  // namespace

const SpanSnapshot* SpanSnapshot::Child(const std::string& child_name) const {
  for (const SpanSnapshot& child : children) {
    if (child.name == child_name) return &child;
  }
  return nullptr;
}

size_t SpanSnapshot::Depth() const {
  size_t depth = 0;
  for (const SpanSnapshot& child : children) {
    depth = std::max(depth, child.Depth() + 1);
  }
  return depth;
}

TraceTree::TraceTree() : root_(std::make_unique<Node>()) {
  root_->name = "run";
}

TraceTree& TraceTree::Global() {
  static TraceTree* instance = new TraceTree();  // Leaked: outlives exit.
  return *instance;
}

SpanSnapshot TraceTree::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  SpanSnapshot out;
  SnapshotNode(*root_, &out);
  return out;
}

void TraceTree::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  root_ = std::make_unique<Node>();
  root_->name = "run";
}

ScopedSpan::ScopedSpan(std::string name) {
  TraceTree& tree = TraceTree::Global();
  std::lock_guard<std::mutex> lock(tree.mu_);
  TraceTree::Node* parent =
      tls_current_span != nullptr ? tls_current_span : tree.root_.get();
  TraceTree::Node* node = parent->FindOrCreateChild(name);
  node->count += 1;
  previous_ = tls_current_span;
  tls_current_span = node;
  node_ = node;
}

ScopedSpan::~ScopedSpan() {
  const double elapsed = watch_.ElapsedSeconds();
  TraceTree& tree = TraceTree::Global();
  std::lock_guard<std::mutex> lock(tree.mu_);
  static_cast<TraceTree::Node*>(node_)->total_seconds += elapsed;
  tls_current_span = static_cast<TraceTree::Node*>(previous_);
}

void ScopedSpan::AddStat(const std::string& stat, double delta) {
  TraceTree& tree = TraceTree::Global();
  std::lock_guard<std::mutex> lock(tree.mu_);
  static_cast<TraceTree::Node*>(node_)->stats[stat] += delta;
}

void CurrentSpanStat(const std::string& stat, double delta) {
  TraceTree& tree = TraceTree::Global();
  std::lock_guard<std::mutex> lock(tree.mu_);
  if (tls_current_span != nullptr) tls_current_span->stats[stat] += delta;
}

}  // namespace telemetry
}  // namespace enld
