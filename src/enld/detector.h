#ifndef ENLD_ENLD_DETECTOR_H_
#define ENLD_ENLD_DETECTOR_H_

#include <string>
#include <vector>

#include "data/dataset.h"

namespace enld {

/// Output of a noisy-label detection request on one incremental dataset.
/// `noisy_indices` / `clean_indices` partition the positions of the input
/// dataset's labeled samples (missing-label samples appear in neither).
struct DetectionResult {
  std::vector<size_t> noisy_indices;
  std::vector<size_t> clean_indices;

  /// ENLD extras (empty for other detectors):
  /// Clean-set snapshot after each fine-grained iteration (Fig. 9).
  std::vector<std::vector<size_t>> per_iteration_clean;
  /// |A| after each iteration (Fig. 13b).
  std::vector<size_t> per_iteration_ambiguous;
  /// Recovered labels for missing-label samples, parallel to the dataset
  /// (kMissingLabel where not applicable / not recovered) — Section V-H.
  std::vector<int> recovered_labels;
};

/// The verdict a detector ends with: each labeled row of `dataset`, in
/// ascending order, goes to noisy_indices when `is_noisy(row)` holds and
/// to clean_indices otherwise.
template <typename IsNoisy>
DetectionResult PartitionLabeled(const Dataset& dataset, IsNoisy is_noisy) {
  DetectionResult result;
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (dataset.observed_labels[i] == kMissingLabel) continue;
    (is_noisy(i) ? result.noisy_indices : result.clean_indices).push_back(i);
  }
  return result;
}

/// Interface every detection method implements: one-time setup on the
/// inventory, then repeated detection requests as incremental datasets
/// arrive. The experiment runner times the two phases separately, which is
/// exactly the paper's setup-time / process-time split (Fig. 8).
class NoisyLabelDetector {
 public:
  virtual ~NoisyLabelDetector() = default;

  /// One-time initialization with the data-lake inventory.
  virtual void Setup(const Dataset& inventory) = 0;

  /// Detects noisy labels in one arriving dataset. May adapt internal
  /// state; must be callable repeatedly.
  virtual DetectionResult Detect(const Dataset& incremental) = 0;

  /// Canonical lowercase key of this detector. One key per detector, used
  /// consistently as the registry key (src/detect/registry.h), the
  /// telemetry method label and the bench report column value — e.g.
  /// "cl1", "topofilter", "enld". The registry holds its display name.
  virtual std::string name() const = 0;
};

}  // namespace enld

#endif  // ENLD_ENLD_DETECTOR_H_
