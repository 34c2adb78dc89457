#include "enld/fine_grained.h"

#include <algorithm>
#include <exception>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "enld/contrastive.h"
#include "enld/sample_sets.h"
#include "enld/strategies.h"
#include "knn/class_index.h"
#include "nn/loss.h"
#include "nn/trainer.h"

namespace enld {

namespace {

/// Materializes the training set for one iteration: the contrastive
/// multiset (positions into `iprime`, possibly with pseudo labels) plus the
/// already-selected clean samples of D.
Dataset BuildTrainingSet(const Dataset& iprime,
                         const std::vector<size_t>& contrastive,
                         const std::vector<int>& contrastive_labels,
                         const Dataset& incremental,
                         const std::vector<size_t>& clean_positions) {
  const size_t total = contrastive.size() + clean_positions.size();
  Dataset out;
  out.num_classes = incremental.num_classes;
  if (total == 0) return out;
  const size_t dim = incremental.dim();
  out.features.Reset(total, dim);
  out.observed_labels.reserve(total);
  out.true_labels.reserve(total);
  out.ids.reserve(total);

  size_t row = 0;
  for (size_t i = 0; i < contrastive.size(); ++i) {
    const size_t pos = contrastive[i];
    const float* src = iprime.features.Row(pos);
    std::copy(src, src + dim, out.features.Row(row));
    out.observed_labels.push_back(contrastive_labels.empty()
                                      ? iprime.observed_labels[pos]
                                      : contrastive_labels[i]);
    out.true_labels.push_back(iprime.true_labels[pos]);
    out.ids.push_back(iprime.ids[pos]);
    ++row;
  }
  for (size_t pos : clean_positions) {
    const float* src = incremental.features.Row(pos);
    std::copy(src, src + dim, out.features.Row(row));
    out.observed_labels.push_back(incremental.observed_labels[pos]);
    out.true_labels.push_back(incremental.true_labels[pos]);
    out.ids.push_back(incremental.ids[pos]);
    ++row;
  }
  return out;
}

}  // namespace

FineGrainedOutputs FineGrainedDetect(const FineGrainedInputs& inputs,
                                     const EnldConfig& config, Rng& rng) {
  ENLD_CHECK(inputs.model != nullptr);
  ENLD_CHECK(inputs.incremental != nullptr);
  ENLD_CHECK(inputs.candidate != nullptr);
  ENLD_CHECK(inputs.conditional != nullptr);
  ENLD_CHECK(inputs.candidate_view != nullptr);
  ENLD_CHECK_EQ(inputs.candidate_view->predicted.size(),
                inputs.candidate->size());
  ENLD_CHECK_GT(config.steps_per_iteration, 0u);

  MlpModel* model = inputs.model;
  const Dataset& incremental = *inputs.incremental;
  const Dataset& candidate = *inputs.candidate;
  FineGrainedOutputs out;

  // Detector internals exported per run (docs/OBSERVABILITY.md): series
  // get one value per fine-grained iteration, the vote-margin histogram
  // one observation per labeled sample per iteration. All appends happen
  // in sequential regions, so every value is thread-count invariant.
  auto& registry = telemetry::MetricsRegistry::Global();
  telemetry::Series* clean_series = registry.GetSeries("detect/clean_size");
  telemetry::Series* ambiguous_series =
      registry.GetSeries("detect/ambiguous_size");
  telemetry::Series* high_quality_series =
      registry.GetSeries("detect/high_quality_size");
  telemetry::Series* train_set_series =
      registry.GetSeries("detect/train_set_size");
  telemetry::Histogram* vote_margin = registry.GetHistogram(
      "detect/vote_margin", {0.0, 0.2, 0.4, 0.6, 0.8, 1.0});
  telemetry::Counter* votes_cast = registry.GetCounter("detect/votes_cast");
  telemetry::Counter* clean_admitted =
      registry.GetCounter("detect/clean_admitted");
  telemetry::Counter* contrastive_picks =
      registry.GetCounter("detect/contrastive_picks");
  telemetry::Counter* resample_rounds =
      registry.GetCounter("detect/resample_rounds");
  telemetry::Counter* sampling_fallbacks =
      registry.GetCounter("detect/sampling_fallbacks");

  // I' — the candidate rows whose observed label is in label(D) (line 3 of
  // Algorithm 3). All sampling pools below live inside I'.
  const std::vector<bool> label_mask =
      LabelMask(incremental.ObservedLabelSet(), incremental.num_classes);
  std::vector<size_t> iprime_positions;
  for (size_t i = 0; i < candidate.size(); ++i) {
    const int y = candidate.observed_labels[i];
    if (y != kMissingLabel && label_mask[y]) iprime_positions.push_back(i);
  }
  const Dataset iprime = candidate.Subset(iprime_positions);
  std::vector<size_t> all_iprime_rows(iprime.size());
  for (size_t i = 0; i < all_iprime_rows.size(); ++i) all_iprime_rows[i] = i;

  // Sampling round: produces the contrastive multiset (positions into
  // iprime) and, for the Pseudo policy, replacement labels.
  auto resample = [&](const ModelView& view,
                      const std::vector<size_t>& ambiguous,
                      const Matrix& ambiguous_features,
                      std::vector<size_t>* picks,
                      std::vector<int>* pick_labels) {
    picks->clear();
    pick_labels->clear();
    if (iprime.empty()) return;

    if (config.policy == SamplingPolicy::kContrastive) {
      // High-quality pool: model agrees with the observed label, filtered
      // by the per-class mean-confidence criterion.
      std::vector<size_t> high_quality;
      for (size_t i = 0; i < iprime.size(); ++i) {
        if (view.predicted[i] == iprime.observed_labels[i]) {
          high_quality.push_back(i);
        }
      }
      high_quality = FilterHighQualityByConfidence(
          view.probs, view.predicted, high_quality,
          config.high_quality_strictness);
      high_quality_series->Append(static_cast<double>(high_quality.size()));
      if (high_quality.empty() || ambiguous.empty()) return;
      if (config.ablation.use_contrastive) {
        // Graceful degradation (docs/ROBUSTNESS.md): when the class KNN
        // index cannot be built or produces no picks (every per-class pool
        // empty), fall back to the Random strategy over the high-quality
        // pool instead of training on an empty contrastive set. The
        // condition is a deterministic function of the data, so a degraded
        // run is still reproducible.
        try {
          const ClassKnnIndex index(view.features, iprime.observed_labels,
                                    high_quality, iprime.num_classes);
          *picks = ContrastiveSampling(
              incremental, ambiguous, ambiguous_features, index,
              *inputs.conditional, config.contrastive_k,
              config.ablation.use_probability_label, rng);
        } catch (const std::exception&) {
          picks->clear();
        }
        if (picks->empty()) {
          sampling_fallbacks->Increment();
          const size_t budget = config.contrastive_k * ambiguous.size();
          *picks = PolicySampling(SamplingPolicy::kRandom, view.probs,
                                  high_quality, budget, rng);
        }
      } else {
        // ENLD-1: same budget, but uniform picks from the high-quality
        // pool instead of feature-nearest ones.
        const size_t budget = config.contrastive_k * ambiguous.size();
        picks->reserve(budget);
        for (size_t i = 0; i < budget; ++i) {
          picks->push_back(high_quality[rng.UniformInt(high_quality.size())]);
        }
      }
      return;
    }

    // Alternative policies (Section V-D): pool = I' (the label(D)-related
    // candidates, matching the fair-comparison restriction used for the
    // baselines), budget = k |A|.
    const size_t budget = config.contrastive_k * std::max<size_t>(
        ambiguous.size(), 1);
    *picks = PolicySampling(config.policy, view.probs, all_iprime_rows,
                            budget, rng);
    if (config.policy == SamplingPolicy::kPseudo) {
      pick_labels->reserve(picks->size());
      for (size_t pos : *picks) {
        pick_labels->push_back(view.predicted[pos]);
      }
    }
  };

  // Initial sets (Algorithm 1, lines 5–7). The model still holds θ's
  // weights, so the I' rows of θ's candidate view are the view a forward
  // pass of I' would give, bit for bit (see ComputeModelView).
  ModelView view = [&] {
    ENLD_TRACE_SPAN("detect/inference");
    return SelectViewRows(*inputs.candidate_view, iprime_positions);
  }();
  // One forward pass of D gives both its features and its ambiguous set.
  // Each iteration's last voting pass refreshes them.
  Matrix d_features;
  std::vector<size_t> ambiguous;
  if (!incremental.empty()) {
    ambiguous = AmbiguousPositions(
        model->Predict(incremental.features, &d_features), incremental);
  }

  std::vector<size_t> contrastive;
  std::vector<int> contrastive_labels;
  {
    ENLD_TRACE_SPAN("detect/sampling");
    resample(view, ambiguous, d_features, &contrastive, &contrastive_labels);
  }
  contrastive_picks->Add(contrastive.size());
  resample_rounds->Increment();

  std::vector<size_t> clean_positions;  // S as sorted positions of D.
  std::vector<bool> in_clean(incremental.size(), false);
  Dataset train_set = BuildTrainingSet(iprime, contrastive,
                                       contrastive_labels, incremental,
                                       clean_positions);
  train_set_series->Append(static_cast<double>(train_set.size()));

  // Warm-up (Algorithm 3, line 4): short training on C, keeping the
  // weights with the best validation accuracy on D.
  if (config.warmup_epochs > 0 && !train_set.empty()) {
    ENLD_TRACE_SPAN("detect/warmup");
    TrainConfig warm = config.finetune;
    warm.epochs = config.warmup_epochs;
    warm.select_best_on_validation = true;
    warm.seed = rng.NextUInt64();
    TrainModel(model, train_set, &incremental, warm);
  }

  // Missing-label pseudo votes, accumulated over every step (Section V-H).
  const std::vector<size_t> missing = incremental.MissingLabelIndices();
  std::vector<std::vector<uint32_t>> missing_votes(
      incremental.size(),
      std::vector<uint32_t>());
  for (size_t pos : missing) {
    missing_votes[pos].assign(incremental.num_classes, 0);
  }

  // S_c bookkeeping: per-iteration membership counts over I_c positions.
  std::vector<uint32_t> candidate_counts(candidate.size(), 0);

  const size_t majority_threshold =
      config.ablation.use_majority_voting
          ? config.steps_per_iteration / 2 + 1
          : 1;

  TrainConfig step_config = config.finetune;
  step_config.epochs = 1;
  step_config.select_best_on_validation = false;

  for (size_t iter = 0; iter < config.iterations; ++iter) {
    telemetry::ScopedSpan iteration_span("detect/iteration");
    std::vector<uint32_t> count(incremental.size(), 0);
    for (size_t step = 0; step < config.steps_per_iteration; ++step) {
      if (!train_set.empty()) {
        ENLD_TRACE_SPAN("detect/finetune");
        step_config.seed = rng.NextUInt64();
        TrainModel(model, train_set, /*validation=*/nullptr, step_config);
      }
      ENLD_TRACE_SPAN("detect/voting");
      votes_cast->Add(incremental.size());
      // The model does not move after the last step, so its pass also
      // gives D's features and ambiguous set for the re-sampling below.
      const bool refresh = step + 1 == config.steps_per_iteration &&
                           !incremental.empty();
      const std::vector<int> predicted = model->Predict(
          incremental.features, refresh ? &d_features : nullptr);
      if (refresh) ambiguous = AmbiguousPositions(predicted, incremental);
      // Each sample owns its vote slots, so the scan chunks freely.
      ParallelFor(0, incremental.size(), 1024, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          const int observed = incremental.observed_labels[i];
          if (observed == kMissingLabel) {
            ++missing_votes[i][predicted[i]];
          } else if (predicted[i] == observed) {
            ++count[i];
          }
        }
      });
    }

    // Majority voting (line 11): a sample joins S when it agreed in a
    // strict majority of this iteration's steps.
    size_t admitted_this_iteration = 0;
    const double steps =
        static_cast<double>(config.steps_per_iteration);
    for (size_t i = 0; i < incremental.size(); ++i) {
      if (incremental.observed_labels[i] != kMissingLabel) {
        vote_margin->Observe(static_cast<double>(count[i]) / steps);
      }
      if (!in_clean[i] && count[i] >= majority_threshold) {
        in_clean[i] = true;
        clean_positions.push_back(i);
        ++admitted_this_iteration;
      }
    }
    clean_admitted->Add(admitted_this_iteration);
    iteration_span.AddStat("clean_admitted",
                           static_cast<double>(admitted_this_iteration));
    clean_series->Append(static_cast<double>(clean_positions.size()));
    out.result.per_iteration_clean.push_back(clean_positions);

    // Sample update & re-sampling (lines 15–21). The last iteration's
    // view feeds only the S_c counts below, with no resample after it, so
    // its pass asks for the argmax alone.
    const bool last_iteration = iter + 1 == config.iterations;
    {
      ENLD_TRACE_SPAN("detect/inference");
      if (last_iteration) {
        view = ModelView();
        view.predicted = model->Predict(iprime.features);
      } else {
        view = ComputeModelView(model, iprime);
      }
    }
    ambiguous_series->Append(static_cast<double>(ambiguous.size()));
    out.result.per_iteration_ambiguous.push_back(ambiguous.size());

    // Inventory data selection: count candidates the current model agrees
    // with; the stringency comes from requiring agreement in *every*
    // iteration (the confidence filter stays specific to contrastive
    // sampling — here it would shrink S_c far below what the model update
    // needs).
    for (size_t i = 0; i < iprime.size(); ++i) {
      if (view.predicted[i] == iprime.observed_labels[i]) {
        ++candidate_counts[iprime_positions[i]];
      }
    }

    if (!last_iteration) {
      {
        ENLD_TRACE_SPAN("detect/sampling");
        resample(view, ambiguous, d_features, &contrastive,
                 &contrastive_labels);
        train_set = BuildTrainingSet(
            iprime, contrastive, contrastive_labels, incremental,
            config.ablation.merge_clean_into_c ? clean_positions
                                               : std::vector<size_t>());
      }
      contrastive_picks->Add(contrastive.size());
      resample_rounds->Increment();
      train_set_series->Append(static_cast<double>(train_set.size()));
    }
  }

  // Final S / N partition over labeled samples.
  std::sort(clean_positions.begin(), clean_positions.end());
  for (size_t i = 0; i < incremental.size(); ++i) {
    if (incremental.observed_labels[i] == kMissingLabel) continue;
    if (in_clean[i]) {
      out.result.clean_indices.push_back(i);
    } else {
      out.result.noisy_indices.push_back(i);
    }
  }

  // Recovered labels for missing-label samples.
  if (config.recover_missing_labels && !missing.empty()) {
    out.result.recovered_labels.assign(incremental.size(), kMissingLabel);
    for (size_t pos : missing) {
      const auto& votes = missing_votes[pos];
      int best = kMissingLabel;
      uint32_t best_votes = 0;
      for (int c = 0; c < incremental.num_classes; ++c) {
        if (votes[c] > best_votes) {
          best_votes = votes[c];
          best = c;
        }
      }
      out.result.recovered_labels[pos] = best;
    }
  }

  // S_c' — stringent filter: clean in every iteration.
  if (config.iterations > 0) {
    for (size_t i = 0; i < candidate.size(); ++i) {
      if (candidate_counts[i] == config.iterations) {
        out.selected_candidate.push_back(i);
      }
    }
  }
  return out;
}

}  // namespace enld
