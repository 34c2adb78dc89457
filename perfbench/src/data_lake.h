#ifndef ENLD_PERFBENCH_DATA_LAKE_H_
#define ENLD_PERFBENCH_DATA_LAKE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "data/noise.h"
#include "data/synthetic.h"

namespace perfbench {

/// One arriving dataset as the program receives it, plus the generator's
/// truth, which stays in the benchmark.
struct Increment {
  /// Observed labels only: `true_labels` is overwritten with the observed
  /// ones, so the program cannot see the truth it is scored against.
  enld::Dataset dataset;
  /// The generator's true label per row, for F1.
  std::vector<int> truth;
};

/// The seeded data lake every workload shares: the CIFAR100-sim profile at
/// pair-asymmetric noise 0.2 (the profile both shipped serving examples
/// deploy), an 8,000-row inventory, and an unbounded stream of
/// never-repeated increments.
///
/// The shipped workload carves its increments from one fixed 4,000-row
/// pool, which runs dry after ~20 increments. Here the inventory stays at
/// 8,000 rows and only the incremental pool grows: every 10 increments
/// come from a fresh pool chunk drawn from the same drifted geometry, each
/// chunk visiting every class once with the profile's stream shape. Rows
/// are never reused, so no request replays an earlier one.
class DataLake {
 public:
  /// `take_min`/`take_max` bound the share of a class's 40 chunk rows one
  /// increment takes: 0.2–0.45 (the profile's own) gives ~130-row
  /// increments, 0.04–0.07 gives ~16-row ones.
  DataLake(uint64_t seed, double take_min, double take_max);

  /// The inventory, truth stripped.
  const enld::Dataset& inventory() const { return inventory_; }

  /// The next never-seen increment.
  Increment Next();

 private:
  void RefillFromNextChunk();

  uint64_t seed_;
  double take_min_;
  double take_max_;
  enld::SyntheticConfig profile_;
  enld::ClassGeometry drifted_;
  enld::TransitionMatrix transition_;
  enld::Dataset inventory_;
  uint64_t chunks_ = 0;
  std::vector<enld::Dataset> ready_;  ///< carved, not yet handed out
  size_t next_ready_ = 0;
};

}  // namespace perfbench

#endif  // ENLD_PERFBENCH_DATA_LAKE_H_
