#include "detect/registry.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "detect/builders.h"
#include "enld/framework.h"

namespace enld {
namespace detect {
namespace {

using C = DetectorContext;

/// An ENLD policy variant: its key and display name follow the policy.
template <SamplingPolicy kPolicy>
DetectorInfo EnldEntry(const char* description,
                       const std::vector<OptionSpec>& options) {
  return {SamplingPolicyKey(kPolicy), SamplingPolicyName(kPolicy),
          description, options,
          [](const C& context) -> std::unique_ptr<NoisyLabelDetector> {
            EnldConfig config = context.enld;
            config.policy = kPolicy;
            return std::make_unique<EnldFramework>(config);
          }};
}

/// Every detector, sorted by key. Adding a detector means adding one row
/// here (docs/DETECTORS.md walks through it); enld_cli, the bench matrix
/// and the tests pick it up by key.
const std::vector<DetectorInfo>& Table() {
  static const std::vector<DetectorInfo>* const table = [] {
    const OptionSpec general_epochs = {
        "epochs", "general-model training epochs",
        [](C& c) -> auto& { return c.general.train.epochs; }};
    const std::vector<OptionSpec> pretrain = {
        general_epochs,
        {"seed", "base RNG seed",
         [](C& c) -> auto& { return c.general.seed; }}};
    const std::vector<OptionSpec> enld = {
        {"iterations", "fine-grained training iterations t",
         [](C& c) -> auto& { return c.enld.iterations; }},
        {"steps", "steps s per iteration",
         [](C& c) -> auto& { return c.enld.steps_per_iteration; }, 1},
        {"contrastive_k", "contrastive samples per ambiguous one",
         [](C& c) -> auto& { return c.enld.contrastive_k; }, 1},
        {"warmup_epochs", "warm-up epochs on the initial contrastive set",
         [](C& c) -> auto& { return c.enld.warmup_epochs; }},
        {"seed", "base RNG seed",
         [](C& c) -> auto& { return c.enld.seed; }}};
    return new std::vector<DetectorInfo>{
        {"cl1", "CL-1",
         "Confident Learning, prune-by-class: remove each class's least "
         "self-confident samples by estimated off-diagonal mass",
         pretrain, &NewCl1},
        {"cl2", "CL-2",
         "Confident Learning, prune-by-noise-rate: per off-diagonal cell, "
         "remove the largest-margin samples proportional to the confident "
         "joint",
         pretrain, &NewCl2},
        {"coteaching", "Co-teaching",
         "two peer networks exchange small-loss samples; both must "
         "disagree with a label to flag it",
         {{"epochs", "training epochs",
           [](C& c) -> auto& { return c.coteaching.epochs; }},
          {"anneal_epochs", "epochs over which the kept-fraction anneals",
           [](C& c) -> auto& { return c.coteaching.anneal_epochs; }},
          {"forget_rate",
           "fraction dropped as noisy; negative = self-estimate",
           [](C& c) -> auto& { return c.coteaching.forget_rate; }},
          {"seed", "base RNG seed",
           [](C& c) -> auto& { return c.coteaching.seed; }}},
         &NewCoTeaching},
        {"default", "Default",
         "train the general model once on the inventory; a sample is "
         "noisy iff the prediction disagrees with its observed label",
         pretrain, &NewDefault},
        EnldEntry<SamplingPolicy::kContrastive>(
            "the paper's framework: contrastive sampling + iterative "
            "fine-grained detection (Algorithms 1-3)",
            enld),
        EnldEntry<SamplingPolicy::kEntropy>(
            "ENLD sampling the highest-entropy candidates (Section V-D)",
            enld),
        EnldEntry<SamplingPolicy::kHighestConfidence>(
            "ENLD sampling the highest-confidence candidates (Section V-D)",
            enld),
        EnldEntry<SamplingPolicy::kLeastConfidence>(
            "ENLD sampling the least-confidence candidates (Section V-D)",
            enld),
        EnldEntry<SamplingPolicy::kPseudo>(
            "ENLD with pseudo-labels from the model's argmax (Section V-D)",
            enld),
        EnldEntry<SamplingPolicy::kRandom>(
            "ENLD with uniform-random sampling in place of contrastive "
            "(Section V-D)",
            enld),
        {"incv", "INCV",
         "iterative noisy cross-validation: two half-models keep the "
         "samples they agree with",
         {{"iterations", "cross-validation refinement rounds",
           [](C& c) -> auto& { return c.incv.iterations; }, 1},
          {"epochs", "epochs per half-model",
           [](C& c) -> auto& { return c.incv.train.epochs; }},
          {"seed", "base RNG seed",
           [](C& c) -> auto& { return c.incv.seed; }}},
         &NewIncv},
        {"longremix", "LongReMix",
         "high-confidence seed (agreement + small loss) expanded by "
         "fine-tune rounds; never-admitted samples are noisy",
         {general_epochs,
          {"iterations", "seed expansion rounds",
           [](C& c) -> auto& { return c.longremix.iterations; }},
          {"refine_epochs", "fine-tune epochs per round",
           [](C& c) -> auto& { return c.longremix.refine_epochs; }},
          {"seed_fraction", "per-class lowest-loss fallback seed fraction",
           [](C& c) -> auto& { return c.longremix.seed_fraction; }},
          {"seed", "base RNG seed",
           [](C& c) -> auto& { return c.longremix.seed; }}},
         &NewLongRemix},
        {"o2u", "O2U-Net",
         "cyclical-learning-rate loss tracking; the high mean-loss "
         "cluster is noisy",
         {{"cycles", "cyclical learning-rate rounds",
           [](C& c) -> auto& { return c.o2u.cycles; }, 1},
          {"epochs", "epochs per cycle",
           [](C& c) -> auto& { return c.o2u.epochs_per_cycle; }, 1},
          {"batch_size", "minibatch size",
           [](C& c) -> auto& { return c.o2u.batch_size; }, 1},
          {"seed", "base RNG seed",
           [](C& c) -> auto& { return c.o2u.seed; }}},
         &NewO2U},
        {"pls", "PLS",
         "two-stage selection: per-class self-confidence split, then a "
         "copy of the general model fine-tuned on the high-confidence "
         "side re-judges the rest",
         {general_epochs,
          {"refine_epochs",
           "stage-2 fine-tune epochs on the high-confidence split",
           [](C& c) -> auto& { return c.pls.refine_epochs; }},
          {"confidence_margin",
           "multiple of the class-mean self-confidence a sample must "
           "reach to join the high-confidence split",
           [](C& c) -> auto& { return c.pls.confidence_margin; }},
          {"seed", "base RNG seed",
           [](C& c) -> auto& { return c.pls.seed; }}},
         &NewPls},
        {"probe", "Probe-Rank",
         "loss-trajectory ranking with a between-class-variance threshold "
         "sweep instead of a fixed cut",
         {{"epochs", "probe training epochs on the inventory",
           [](C& c) -> auto& { return c.general.train.epochs; }},
          {"checkpoints",
           "trailing per-epoch weight snapshots averaged into the "
           "trajectory score",
           [](C& c) -> auto& { return c.probe.checkpoints; }},
          {"sweep_points", "candidate thresholds in the sweep",
           [](C& c) -> auto& { return c.probe.sweep_points; }},
          {"seed", "base RNG seed",
           [](C& c) -> auto& { return c.general.seed; }}},
         &NewProbe},
        {"topofilter", "Topofilter",
         "per-request training + latent-space kNN graph; the largest "
         "connected component per class is clean",
         {{"epochs", "per-request training epochs",
           [](C& c) -> auto& { return c.topofilter.train.epochs; }},
          {"graph_k", "k of the latent-space kNN graph",
           [](C& c) -> auto& { return c.topofilter.graph_k; }, 1},
          {"checkpoints", "training checkpoints voting on the clean set",
           [](C& c) -> auto& { return c.topofilter.checkpoints; }},
          {"mutual_knn", "use the mutual-kNN variant of the graph",
           [](C& c) -> auto& { return c.topofilter.mutual_knn; }},
          {"component_keep_ratio",
           "keep components at least this fraction of the largest",
           [](C& c) -> auto& { return c.topofilter.component_keep_ratio; }},
          {"seed", "base RNG seed",
           [](C& c) -> auto& { return c.topofilter.seed; }}},
         &NewTopofilter},
    };
  }();
  return *table;
}

/// Parses `value` as the option's type and writes it into its field of
/// `context`.
Status SetOption(const OptionSpec& spec, const std::string& detector,
                 const std::string& value, C* context) {
  const std::string option =
      "option '" + spec.key + "' of detector '" + detector + "'";
  const auto malformed = [&](const char* type) {
    return Status::InvalidArgument(option + " expects a " + type +
                                   ", got '" + value + "'");
  };
  if (const auto* field = std::get_if<OptionSpec::IntField>(&spec.field)) {
    size_t parsed = 0;
    const char* end = value.data() + value.size();
    const auto [stop, error] = std::from_chars(value.data(), end, parsed);
    if (value.empty() || stop != end) return malformed("int");
    if (error == std::errc::result_out_of_range) {
      return Status::InvalidArgument(
          option + " must be at most " +
          std::to_string(std::numeric_limits<size_t>::max()) + ", got '" +
          value + "'");
    }
    if (parsed < spec.min) {
      return Status::InvalidArgument(option + " must be at least " +
                                     std::to_string(spec.min) + ", got '" +
                                     value + "'");
    }
    (*field)(*context) = parsed;
  } else if (const auto* field =
                 std::get_if<OptionSpec::DoubleField>(&spec.field)) {
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size()) {
      return malformed("double");
    }
    (*field)(*context) = parsed;
  } else {
    if (value != "true" && value != "false" && value != "1" && value != "0") {
      return malformed("bool");
    }
    std::get<OptionSpec::BoolField>(spec.field)(*context) =
        value == "true" || value == "1";
  }
  return Status::OK();
}

std::string JoinKeys(const std::vector<OptionSpec>& options) {
  std::string out;
  for (const OptionSpec& spec : options) {
    if (!out.empty()) out += ", ";
    out += spec.key;
  }
  return out;
}

}  // namespace

std::string OptionSpec::default_value() const {
  C defaults;
  std::ostringstream out;
  out << std::boolalpha;
  std::visit([&](auto get) { out << get(defaults); }, field);
  return out.str();
}

StatusOr<std::unique_ptr<NoisyLabelDetector>> CreateDetector(
    const std::string& key, const DetectorOptions& options,
    const DetectorContext& context) {
  const DetectorInfo* info = FindDetector(key);
  if (info == nullptr) {
    std::string known;
    for (const DetectorInfo& entry : Table()) {
      if (!known.empty()) known += ", ";
      known += entry.key;
    }
    return Status::InvalidArgument("unknown detector '" + key +
                                   "'; registered: " + known);
  }
  C configured = context;
  for (const auto& [option_key, value] : options) {
    const auto spec = std::find_if(
        info->options.begin(), info->options.end(),
        [&](const OptionSpec& spec) { return spec.key == option_key; });
    if (spec == info->options.end()) {
      return Status::InvalidArgument(
          "unknown option '" + option_key + "' for detector '" + key +
          "'; valid options: " + JoinKeys(info->options));
    }
    ENLD_RETURN_IF_ERROR(SetOption(*spec, key, value, &configured));
  }
  return info->build(configured);
}

std::vector<DetectorInfo> ListDetectors() { return Table(); }

const DetectorInfo* FindDetector(const std::string& key) {
  const std::vector<DetectorInfo>& table = Table();
  const auto it = std::find_if(
      table.begin(), table.end(),
      [&](const DetectorInfo& entry) { return entry.key == key; });
  return it == table.end() ? nullptr : &*it;
}

}  // namespace detect
}  // namespace enld
