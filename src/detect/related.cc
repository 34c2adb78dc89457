#include "detect/related.h"

namespace enld {

Dataset RelatedInventorySubset(const Dataset& inventory,
                               const Dataset& incremental) {
  std::vector<bool> in_label_set(incremental.num_classes, false);
  for (int y : incremental.ObservedLabelSet()) in_label_set[y] = true;
  std::vector<size_t> related_rows;
  for (size_t i = 0; i < inventory.size(); ++i) {
    const int y = inventory.observed_labels[i];
    if (y != kMissingLabel && in_label_set[y]) related_rows.push_back(i);
  }
  return inventory.Subset(related_rows);
}

}  // namespace enld
