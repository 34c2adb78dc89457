#ifndef ENLD_DETECT_REGISTRY_H_
#define ENLD_DETECT_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/status.h"
#include "enld/config.h"
#include "enld/detector.h"
#include "nn/general_model.h"
#include "nn/model_zoo.h"
#include "nn/trainer.h"

namespace enld {

/// Configuration of the Topofilter baseline (Wu et al. 2020, as adapted by
/// the paper for incremental detection).
struct TopofilterConfig {
  Backbone backbone = Backbone::kResNet110Sim;
  /// Per-request training run over the related inventory subset + D.
  TrainConfig train;
  /// k of the latent-space kNN graph.
  size_t graph_k = 4;
  /// Use the mutual-kNN variant of the graph (cluster-preserving).
  bool mutual_knn = true;
  /// A component also counts as clean when its size is at least this
  /// fraction of the class's largest component (handles classes whose
  /// clean manifold splits into several modes; 1.0 = strict
  /// largest-component rule).
  double component_keep_ratio = 1.0;
  /// Number of evenly spaced training checkpoints at which clean sets are
  /// collected; a sample is clean when a majority of checkpoints select it
  /// (Wu et al. collect clean data during the training process, where
  /// early checkpoints are least affected by label memorization).
  size_t checkpoints = 3;
  uint64_t seed = 131;

  TopofilterConfig() {
    train.epochs = 16;
    train.batch_size = 64;
    train.sgd.learning_rate = 0.05;
    train.lr_decay_per_epoch = 0.9;
    // Mixup + strong weight decay keep the per-request model from
    // memorizing the noisy labels it trains on, which would blend
    // mislabeled samples into the clean component.
    train.mixup_alpha = 0.2;
    train.sgd.weight_decay = 0.01;
  }
};

/// Configuration of the O2U-Net-style loss-tracking baseline
/// (Huang et al. 2019, adapted to the incremental setting).
struct O2UConfig {
  Backbone backbone = Backbone::kResNet110Sim;
  /// Number of cyclical learning-rate rounds.
  size_t cycles = 3;
  /// Epochs per round; the learning rate decays linearly from `lr_max` to
  /// `lr_min` within each round, then jumps back (the "overfitting to
  /// underfitting" oscillation the method is named after).
  size_t epochs_per_cycle = 3;
  double lr_max = 0.05;
  double lr_min = 0.005;
  size_t batch_size = 64;
  /// Strong decay curbs memorization of the noisy labels, which would
  /// equalize the tracked losses and hide the noise.
  double weight_decay = 0.01;
  uint64_t seed = 509;
};

/// Configuration of the Co-teaching baseline (Han et al. 2018, adapted to
/// the incremental setting).
struct CoTeachingConfig {
  Backbone backbone = Backbone::kResNet110Sim;
  size_t epochs = 8;
  size_t batch_size = 64;
  double learning_rate = 0.05;
  double weight_decay = 0.01;
  /// Epochs over which the kept-fraction schedule R(t) anneals from 1 down
  /// to 1 - forget_rate (the paper's T_k).
  size_t anneal_epochs = 6;
  /// Fraction of each batch eventually dropped as suspected-noisy. When
  /// negative, the detector estimates it from a 1-D 2-means split of the
  /// first-epoch losses.
  double forget_rate = -1.0;
  uint64_t seed = 613;
};

/// Configuration of the INCV-style cross-validation baseline
/// (Chen et al. 2019, adapted to the incremental setting).
struct IncvConfig {
  Backbone backbone = Backbone::kResNet110Sim;
  /// Training schedule of each half-model.
  TrainConfig train;
  /// Refinement iterations: after the first cross-validation pass, the
  /// halves are re-drawn from the currently-selected samples and the
  /// selection is re-validated.
  size_t iterations = 2;
  uint64_t seed = 719;

  IncvConfig() {
    train.epochs = 5;
    train.batch_size = 64;
    train.sgd.learning_rate = 0.05;
    // Cross-validation only filters noise when the half-models do not
    // memorize their training half's noisy labels.
    train.sgd.weight_decay = 0.01;
    train.mixup_alpha = 0.2;
  }
};

/// Configuration of the PLS-style two-stage detector (after "Pseudo-Label
/// Selection", arXiv:2210.04578, adapted to the incremental setting). Its
/// stage-0 general model is the context's, shared with Default / CL.
struct PlsConfig {
  /// Fine-tune epochs of the stage-2 refinement on the high-confidence
  /// split.
  size_t refine_epochs = 2;
  /// A sample is high-confidence when its self-confidence reaches this
  /// multiple of its observed class's mean self-confidence (1.0 = the
  /// class-mean rule).
  double confidence_margin = 1.0;
  uint64_t seed = 811;
};

/// Configuration of the loss-trajectory probe-ranking detector. The probe
/// trains with the context's general-model backbone, schedule and seed.
struct ProbeConfig {
  /// Trailing per-epoch weight checkpoints kept from probe training; each
  /// arriving sample's loss is averaged across them to form its
  /// trajectory score.
  size_t checkpoints = 3;
  /// Candidate split positions evaluated by the threshold sweep over the
  /// ranked mean losses.
  size_t sweep_points = 32;
};

/// Configuration of the LongReMix-style high-confidence-seed detector. The
/// seed rule judges against the context's general model.
struct LongRemixConfig {
  /// Per-observed-class fallback seed size (fraction of the class's
  /// samples, lowest loss first) when the loss/agreement rule yields an
  /// empty seed for that class.
  double seed_fraction = 0.2;
  /// Expansion rounds: fine-tune on the seed, then admit newly-agreeing
  /// samples.
  size_t iterations = 2;
  /// Fine-tune epochs per expansion round (at 0.2x the general-model
  /// learning rate).
  size_t refine_epochs = 2;
  /// Seeds the per-request refinement RNG.
  uint64_t seed = 1013;
};

namespace detect {

/// Raw detector options as they arrive from a CLI flag, a config file or a
/// bench sweep: string key -> string value, e.g. {{"epochs","5"}}.
/// CreateDetector validates and types them.
using DetectorOptions = std::map<std::string, std::string>;

/// The configurations every detector is built from. Default-constructed =
/// the library's defaults (what the unit tests use); PaperDetectorContext
/// (eval/) returns the per-task calibrated setups the benches use. An
/// option overrides one field of it.
struct DetectorContext {
  /// The general model of Default, CL-1/2, PLS, Probe-Rank and LongReMix.
  GeneralModelConfig general;
  EnldConfig enld;
  TopofilterConfig topofilter;
  O2UConfig o2u;
  CoTeachingConfig coteaching;
  IncvConfig incv;
  PlsConfig pls;
  ProbeConfig probe;
  LongRemixConfig longremix;
};

// Int options bind count (size_t) and seed (uint64_t) fields alike.
static_assert(std::is_same_v<size_t, uint64_t>);

/// One option of a detector: it overrides one field of the
/// DetectorContext, and that field decides its type and default. An int
/// is all digits, within [min, 2^64 - 1]; a double parses whole with
/// strtod; a bool is "true"/"false"/"1"/"0".
struct OptionSpec {
  using IntField = size_t& (*)(DetectorContext&);
  using DoubleField = double& (*)(DetectorContext&);
  using BoolField = bool& (*)(DetectorContext&);

  std::string key;
  std::string description;
  std::variant<IntField, DoubleField, BoolField> field;
  /// Smallest value an int option accepts.
  size_t min = 0;

  /// The field in a default DetectorContext, as --list_detectors shows it.
  std::string default_value() const;
};

/// One row of the detector table.
struct DetectorInfo {
  /// Canonical lowercase key — identical to the created detector's name().
  std::string key;
  /// Human-readable name for figure-style tables ("CL-1", "O2U-Net").
  std::string display_name;
  /// One-line description for --list_detectors and DETECTORS.md.
  std::string description;
  std::vector<OptionSpec> options;
  /// Builds the detector from a context the options were applied to.
  std::unique_ptr<NoisyLabelDetector> (*build)(const DetectorContext&);
};

/// Creates a detector by key: the one creation path for every detector
/// but a directly built EnldFramework.
///   auto detector = detect::CreateDetector("topofilter",
///                                          {{"epochs", "5"}});
///   if (!detector.ok()) { ... detector.status() ... }
/// InvalidArgument with a descriptive message when the key is unknown, an
/// option key is not declared by the detector, or an option value does
/// not parse as its type or is out of range.
StatusOr<std::unique_ptr<NoisyLabelDetector>> CreateDetector(
    const std::string& key, const DetectorOptions& options = {},
    const DetectorContext& context = {});

/// Every detector of the table, sorted by key.
std::vector<DetectorInfo> ListDetectors();

/// The table row of one key; nullptr when unknown.
const DetectorInfo* FindDetector(const std::string& key);

}  // namespace detect
}  // namespace enld

#endif  // ENLD_DETECT_REGISTRY_H_
