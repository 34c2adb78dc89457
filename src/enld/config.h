#ifndef ENLD_ENLD_CONFIG_H_
#define ENLD_ENLD_CONFIG_H_

#include <cstdint>

#include "nn/general_model.h"
#include "nn/trainer.h"

namespace enld {

/// How contrastive samples are chosen each (re-)sampling round. The paper
/// compares the default contrastive sampler against the active-learning /
/// semi-supervised policies of Section V-D (Fig. 10).
enum class SamplingPolicy {
  kContrastive,        // ENLD's default (Algorithm 2).
  kRandom,             // Uniform from I_c.
  kHighestConfidence,  // Largest max M(x, θ) in I_c.
  kLeastConfidence,    // Smallest max M(x, θ) in I_c.
  kEntropy,            // Largest entropy of M(x, θ) in I_c.
  kPseudo,             // Highest confidence + pseudo label argmax M(x, θ).
};

/// Human-readable policy name (matches the paper's figure legends).
const char* SamplingPolicyName(SamplingPolicy policy);

/// Canonical lowercase detector key of an ENLD variant — "enld" for the
/// default contrastive policy, "enld-random" / "enld-hc" / ... for the
/// Section V-D alternatives. This is the key the detector registry and the
/// bench reports use (docs/DETECTORS.md).
const char* SamplingPolicyKey(SamplingPolicy policy);

/// Ablation switches of Section V-I (Fig. 14). Defaults = full ENLD.
struct EnldAblation {
  /// false => ENLD-1: random picks from the high-quality pool instead of
  /// feature-nearest contrastive sampling.
  bool use_contrastive = true;
  /// false => ENLD-2: a single agreeing step marks a sample clean
  /// (no ⌊s/2⌋+1 majority).
  bool use_majority_voting = true;
  /// false => ENLD-3: drop the C = C ∪ S merge of selected clean samples.
  bool merge_clean_into_c = true;
  /// false => ENLD-4: query the sampled label as j = i (the observed
  /// label) instead of drawing j ~ P̃(·|ỹ=i).
  bool use_probability_label = true;
};

/// Full configuration of the ENLD framework (Algorithms 1–4).
struct EnldConfig {
  /// Stage-0 model initialization (shared with pretrain baselines).
  GeneralModelConfig general;

  /// Contrastive samples per ambiguous sample (paper: k = 3).
  size_t contrastive_k = 3;
  /// Fine-grained training iterations t (paper: 5 for EMNIST, 17 for
  /// CIFAR100 / Tiny-ImageNet; benches scale this down — see DESIGN.md).
  size_t iterations = 5;
  /// Steps s per iteration (paper: 5).
  size_t steps_per_iteration = 5;
  /// Warm-up epochs on the initial contrastive set (paper: 2).
  size_t warmup_epochs = 2;
  /// Strictness of the high-quality confidence filter (1.0 = the paper's
  /// "at least the class-mean predicted probability" rule; this library
  /// defaults to a stricter 1.5 x mean, which keeps the contrastive pool
  /// nearly noise-free on the synthetic substrate — see DESIGN.md).
  double high_quality_strictness = 1.5;

  /// Optimizer settings for warm-up and fine-tune steps. `epochs` is
  /// ignored (the algorithm drives the step structure).
  TrainConfig finetune;

  SamplingPolicy policy = SamplingPolicy::kContrastive;
  EnldAblation ablation;

  /// Assign pseudo labels to missing-label samples by per-step voting
  /// (Section V-H).
  bool recover_missing_labels = true;

  uint64_t seed = 1234;

  EnldConfig() {
    finetune.epochs = 1;
    finetune.batch_size = 64;
    finetune.sgd.learning_rate = 0.002;
    finetune.sgd.momentum = 0.9;
    finetune.mixup_alpha = 0.0;
    finetune.lr_decay_per_epoch = 1.0;
  }
};

}  // namespace enld

#endif  // ENLD_ENLD_CONFIG_H_
