// The paper's evaluation (Section V: Figs. 3-14, Table II) and one
// extension as rows of one table: each row names the cells it reads,
// prints its figure's tables and states the paper's claims as predicates.
// A cell, a detector or ENLD variant over one (task, noise) stream, is
// computed once per process whatever rows read it.
//
//   bench_paper [row ...] [--telemetry_out=PATH]
//
// No row named runs them all; an unknown row exits 2. With no ENLD_BENCH_*
// variable (bench_util.h) set, a failed asserted (✅) claim exits 1; a
// scoped run's streams are too short for the paper's orderings, so it
// records every verdict, as for recorded (⚠️) claims. CLAIMS.json
// (docs/BENCHMARKS.md) goes to the working directory, free of wall-clock
// values; --telemetry_out writes the last read `enld` cell's report.

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/table.h"
#include "common/telemetry/report.h"
#include "data/noise.h"
#include "knn/class_index.h"
#include "knn/kdtree.h"
#include "nn/loss.h"
#include "nn/trainer.h"

namespace {

using namespace enld;
using namespace enld::bench;
using enum PaperDataset;

std::string Num(double value, int precision = 4) {
  return TablePrinter::Num(value, precision);
}

/// The ENLD variants of Figs. 11 and 14: one change to the paper's
/// configuration each. The unchanged configuration is the `enld` cell.
const std::map<std::string, void (*)(EnldConfig*)> kVariants = {
    {"enld/k=1", [](EnldConfig* c) { c->contrastive_k = 1; }},
    {"enld/k=2", [](EnldConfig* c) { c->contrastive_k = 2; }},
    {"enld/k=4", [](EnldConfig* c) { c->contrastive_k = 4; }},
    {"enld/no-contrastive",
     [](EnldConfig* c) { c->ablation.use_contrastive = false; }},
    {"enld/no-voting",
     [](EnldConfig* c) { c->ablation.use_majority_voting = false; }},
    {"enld/no-merge",
     [](EnldConfig* c) { c->ablation.merge_clean_into_c = false; }},
    {"enld/observed-label",
     [](EnldConfig* c) { c->ablation.use_probability_label = false; }},
};

/// A detector-table key or ENLD variant over one stream. Fig. 6 swaps the
/// backbone of the detector's models.
struct CellKey {
  PaperDataset task;
  std::string method;
  std::optional<Backbone> backbone;
  double noise;
  auto operator<=>(const CellKey&) const = default;
};

/// Builds each stream and computes each cell once; the rows share both.
struct Sweep {
  const Workload& Stream(PaperDataset task, double noise) {
    auto [it, fresh] = streams.try_emplace({task, noise});
    if (fresh) it->second = MakeWorkload(task, noise);
    return it->second;
  }

  const MethodRunResult& Cell(const CellKey& key) {
    auto it = cells.find(key);
    if (it == cells.end()) it = cells.emplace(key, Run(key)).first;
    if (key.method == "enld") last_enld = &it->second.telemetry;
    return it->second;
  }

  MethodRunResult Run(const CellKey& key) {
    detect::DetectorContext context = PaperDetectorContext(key.task);
    if (key.backbone) {
      context.topofilter.backbone = *key.backbone;
      context.enld.general.backbone = *key.backbone;
    }
    const auto variant = kVariants.find(key.method);
    if (variant != kVariants.end()) variant->second(&context.enld);
    const std::unique_ptr<NoisyLabelDetector> detector =
        variant != kVariants.end()
            ? std::make_unique<EnldFramework>(context.enld)
            : MakePaperDetector(key.method, context);
    return RunDetector(detector.get(), Stream(key.task, key.noise));
  }

  std::map<std::pair<PaperDataset, double>, Workload> streams;
  std::map<CellKey, MethodRunResult> cells;
  const telemetry::RunReport* last_enld = nullptr;  // Last `enld` read.
};

/// Numbers a row computes itself rather than reading a cell's P/R/F1:
/// printed as a table and recorded in CLAIMS.json.
struct Values {
  std::vector<std::pair<std::string, int>> columns;  // Name, decimals.
  std::vector<std::vector<double>> rows;

  double At(size_t row, const std::string& column) const {
    size_t c = 0;
    while (c < columns.size() && columns[c].first != column) ++c;
    ENLD_CHECK_LT(c, columns.size());
    return rows[row][c];
  }

  void Print(const std::string& title) const {
    std::vector<std::string> headers;
    for (const auto& column : columns) headers.push_back(column.first);
    TablePrinter table(headers);
    for (const std::vector<double>& row : rows) {
      std::vector<std::string> cells;
      for (size_t c = 0; c < row.size(); ++c) {
        cells.push_back(Num(row[c], columns[c].second));
      }
      table.AddRow(cells);
    }
    table.Print(title);
  }
};

struct Row;

/// What a row's printer and its claims see: the row's tasks and noise
/// rates as the run scopes them, the shared cells, and its own numbers.
struct View {
  const Row& row;
  Sweep& sweep;
  std::vector<PaperDataset> tasks;
  std::vector<double> noises;
  Values values;

  PaperDataset task() const { return tasks.front(); }
  const MethodRunResult& Cell(const std::string& method, double noise,
                              std::optional<Backbone> backbone = {}) const {
    return sweep.Cell({task(), method, backbone, noise});
  }
  double F1(const std::string& method, double noise) const {
    return Cell(method, noise).average().f1;
  }
  /// The mean over the noise rates of f1, or of the process time.
  double Mean(const std::string& method, bool time = false,
              std::optional<Backbone> backbone = {}) const {
    double total = 0.0;
    for (double noise : noises) {
      const MethodRunResult& run = Cell(method, noise, backbone);
      total += time ? run.average_process_seconds() : run.average().f1;
    }
    return total / noises.size();
  }
};

constexpr bool kAsserted = true, kRecorded = false;

struct Claim {
  const char* id;
  bool asserted;
  const char* sentence;
  bool (*holds)(const View&);
  bool time = false;  // A wall-clock claim: printed, never written.
};

struct Method {
  const char* key;              // A cell's method.
  const char* label = nullptr;  // As the tables print it; null: the key.
  std::string Label() const { return label != nullptr ? label : key; }
};

struct Row {
  const char* name;
  std::vector<PaperDataset> tasks;
  std::vector<double> noises;  // Empty: the sweep's (ENLD_BENCH_NOISES).
  std::vector<Method> methods;
  std::function<void(View&)> print;
  std::vector<Claim> claims;
};

const std::vector<Method> kFiveMethods = {
    {"default"}, {"cl1"}, {"cl2"}, {"topofilter"}, {"enld"}};
const std::vector<Method> kContrastiveSizes = {
    {"enld/k=1", "1"}, {"enld/k=2", "2"}, {"enld", "3"}, {"enld/k=4", "4"}};
const std::vector<Backbone> kFig6Backbones = {Backbone::kDenseNet121Sim,
                                             Backbone::kResNet164Sim};

/// Prints the noise x method quality table, then the average-f1 summary
/// when it has a title, naming methods there by display name when asked.
std::function<void(View&)> Quality(const char* column, std::string title,
                                   const char* summary_title,
                                   bool display_names = false,
                                   bool with_time = false) {
  return [=](View& v) {
    std::vector<std::string> headers = {"noise", column, "precision",
                                        "recall", "f1"};
    if (with_time) headers.push_back("avg_process_s");
    TablePrinter table(headers);
    for (double noise : v.noises) {
      for (const Method& m : v.row.methods) {
        const MethodRunResult& run = v.Cell(m.key, noise);
        const DetectionMetrics avg = run.average();
        std::vector<std::string> cells = {Num(noise, 1), m.Label(),
                                          Num(avg.precision),
                                          Num(avg.recall), Num(avg.f1)};
        if (with_time) cells.push_back(Num(run.average_process_seconds(), 3));
        table.AddRow(cells);
      }
    }
    table.Print(title);
    if (summary_title == nullptr) return;
    TablePrinter summary({column, "avg_f1"});
    for (const Method& m : v.row.methods) {
      summary.AddRow({display_names ? v.Cell(m.key, v.noises[0]).method_display
                                    : m.Label(),
                      Num(v.Mean(m.key))});
    }
    summary.Print(summary_title);
  };
}

template <typename T, typename Predicate>
bool All(const std::vector<T>& items, Predicate holds) {
  return std::all_of(items.begin(), items.end(), holds);
}

/// Whether `key`'s mean f1 is above (below, when `lowest`) every other
/// method's of the row.
bool Extreme(const View& v, const std::string& key, bool lowest = false) {
  return All(v.row.methods, [&](const Method& m) {
    return m.key == key || (lowest ? v.Mean(key) < v.Mean(m.key)
                                   : v.Mean(key) > v.Mean(m.key));
  });
}

bool EnldBest(const View& v) { return Extreme(v, "enld"); }

/// Whether in every value row the `columns` strictly ascend.
bool Ascending(const View& v, std::vector<const char*> columns) {
  for (size_t r = 0; r < v.values.rows.size(); ++r) {
    for (size_t c = 1; c < columns.size(); ++c) {
      if (v.values.At(r, columns[c - 1]) >= v.values.At(r, columns[c])) {
        return false;
      }
    }
  }
  return true;
}

/// Whether `holds(before, after)` for the `column` of every two
/// consecutive value rows, within one noise rate when the values have one.
bool EveryStep(const View& v, const std::string& column,
               bool (*holds)(double, double)) {
  const Values& values = v.values;
  const bool by_noise = values.columns.front().first == "noise";
  for (size_t r = 1; r < values.rows.size(); ++r) {
    if ((!by_noise || values.rows[r][0] == values.rows[r - 1][0]) &&
        !holds(values.At(r - 1, column), values.At(r, column))) {
      return false;
    }
  }
  return true;
}

bool Falls(double before, double after) { return after < before; }
bool Rises(double before, double after) { return after > before; }
bool NeverRises(double before, double after) { return after <= before; }

/// Whether ENLD beats Topofilter on every Fig. 6 backbone: in mean f1, or
/// in (a lower) mean process time.
bool EnldBeatsOnEachBackbone(const View& v, bool time) {
  return All(kFig6Backbones, [&](Backbone b) {
    const double enld = v.Mean("enld", time, b);
    const double topofilter = v.Mean("topofilter", time, b);
    return time ? enld < topofilter : enld > topofilter;
  });
}

// Fig. 3: validation loss on the true-labeled noisy subset D_test of each
// incremental dataset after one epoch of training on the candidate
// samples each strategy adds (Origin: none).
void StrategyLoss(View& v) {
  v.values.columns = {{"noise", 1},        {"origin", 4}, {"random", 4},
                      {"nearest_only", 4}, {"nearest_related", 4}};
  TrainConfig one_epoch = PaperEnldConfig(v.task()).finetune;
  one_epoch.epochs = 1;
  one_epoch.seed = 7;
  for (double noise : v.noises) {
    const Workload& workload = v.sweep.Stream(v.task(), noise);
    GeneralModel general =
        InitGeneralModel(workload.inventory, PaperGeneralConfig(v.task()));
    const Dataset& candidate = general.candidate_set;
    const Matrix candidate_features =
        general.model->Features(candidate.features);
    const KdTree tree(candidate_features);
    std::vector<size_t> all_rows(candidate.size());
    for (size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
    const ClassKnnIndex index(candidate_features, candidate.true_labels,
                              all_rows, candidate.num_classes);
    double origin = 0.0, random = 0.0, nearest = 0.0, related = 0.0;
    size_t counted = 0;
    Rng rng(123);
    const size_t budget = std::min<size_t>(workload.incremental.size(), 8);
    for (size_t d = 0; d < budget; ++d) {
      const Dataset& incremental = workload.incremental[d];
      const auto noisy = incremental.GroundTruthNoisyIndices();
      if (noisy.size() < 3) continue;
      const Matrix test_features = incremental.features.SelectRows(noisy);
      std::vector<int> test_labels(noisy.size());
      for (size_t i = 0; i < noisy.size(); ++i) {
        test_labels[i] = incremental.true_labels[noisy[i]];
      }
      const auto loss = [&](MlpModel* model) {
        Matrix logits;
        model->Forward(test_features, &logits);
        return SoftmaxCrossEntropy(logits, test_labels, model->num_classes(),
                                   nullptr);
      };
      // One epoch of a copy of the general model on the picks, with their
      // true labels.
      const auto loss_after = [&](const std::vector<size_t>& picks) {
        Dataset addition = candidate.Subset(picks);
        addition.observed_labels = addition.true_labels;
        Rng init(99);
        MlpModel model(general.model->layer_dims(), init);
        model.SetWeights(general.model->GetWeights());
        if (!addition.empty()) TrainModel(&model, addition, nullptr, one_epoch);
        return loss(&model);
      };
      origin += loss(general.model.get());
      // Random: |D_test| uniform picks. Nearest-Only: the nearest
      // candidate of any class per test sample. Nearest-Related: the
      // nearest of the test sample's true class.
      random += loss_after(rng.SampleWithoutReplacement(
          candidate.size(), std::min(noisy.size(), candidate.size())));
      const Matrix test_model_features =
          general.model->Features(test_features);
      std::vector<size_t> nearest_picks, related_picks;
      for (size_t i = 0; i < noisy.size(); ++i) {
        for (const auto& found : tree.Nearest(test_model_features.Row(i), 1)) {
          nearest_picks.push_back(found.index);
        }
        for (const auto& found :
             index.Nearest(test_labels[i], test_model_features.Row(i), 1)) {
          related_picks.push_back(found.index);
        }
      }
      nearest += loss_after(nearest_picks);
      related += loss_after(related_picks);
      ++counted;
    }
    if (counted == 0) continue;
    const double n = static_cast<double>(counted);
    v.values.rows.push_back(
        {noise, origin / n, random / n, nearest / n, related / n});
  }
  v.values.Print(
      "Fig. 3 — validation loss on D_test after one epoch per strategy");
}

void Backbones(View& v) {
  TablePrinter table({"backbone", "noise", "method", "precision", "recall",
                      "f1", "avg_process_s"});
  TablePrinter speedups({"backbone", "avg_speedup"});
  for (Backbone backbone : kFig6Backbones) {
    for (double noise : v.noises) {
      for (const Method& m : v.row.methods) {
        const MethodRunResult& run = v.Cell(m.key, noise, backbone);
        const DetectionMetrics avg = run.average();
        table.AddRow({BackboneName(backbone), Num(noise, 1), m.Label(),
                      Num(avg.precision), Num(avg.recall), Num(avg.f1),
                      Num(run.average_process_seconds(), 3)});
      }
    }
    speedups.AddRow({BackboneName(backbone),
                     Num(v.Mean("topofilter", true, backbone) /
                             v.Mean("enld", true, backbone),
                         2)});
  }
  table.Print("Fig. 6 — ENLD vs Topofilter across backbones (CIFAR100)");
  speedups.Print("Fig. 6 headline — process-time speedup per backbone");
}

/// Indented pre-order rows of the span tree: the Fig. 8 breakdown with its
/// hierarchy (detect > iteration > finetune/voting/...) preserved.
void AddSpanRows(const telemetry::SpanSnapshot& span, int depth,
                 const std::string& dataset, const std::string& noise,
                 TablePrinter* table) {
  table->AddRow({dataset, noise, std::string(2 * depth, ' ') + span.name,
                 std::to_string(span.count), Num(span.total_seconds, 3)});
  for (const telemetry::SpanSnapshot& child : span.children) {
    AddSpanRows(child, depth + 1, dataset, noise, table);
  }
}

double ProcessSeconds(const View& v, const char* method, PaperDataset task,
                      double noise) {
  return v.sweep.Cell({task, method, {}, noise}).average_process_seconds();
}

void ProcessTime(View& v) {
  TablePrinter table({"dataset", "noise", "method", "setup_s",
                      "avg_process_s"});
  TablePrinter speedups({"dataset", "noise", "topofilter/enld_speedup"});
  TablePrinter phases({"dataset", "noise", "span", "count", "seconds"});
  for (PaperDataset task : v.tasks) {
    for (double noise : v.noises) {
      for (const Method& m : v.row.methods) {
        const MethodRunResult& run = v.sweep.Cell({task, m.key, {}, noise});
        table.AddRow({PaperDatasetName(task), Num(noise, 1), m.Label(),
                      Num(run.setup_seconds, 2),
                      Num(run.average_process_seconds(), 3)});
      }
      speedups.AddRow({PaperDatasetName(task), Num(noise, 1),
                       Num(ProcessSeconds(v, "topofilter", task, noise) /
                               ProcessSeconds(v, "enld", task, noise),
                           2)});
      // Each top-level child of the root is one pipeline stage, with the
      // per-iteration loop nested underneath.
      for (const telemetry::SpanSnapshot& top :
           v.sweep.Cell({task, "enld", {}, noise}).telemetry.spans.children) {
        AddSpanRows(top, 0, PaperDatasetName(task), Num(noise, 1), &phases);
      }
    }
  }
  table.Print("Fig. 8 — setup and process time per incremental dataset");
  speedups.Print("Fig. 8 headline — ENLD process-time speedup vs Topofilter");
  phases.Print("ENLD span tree (per workload, current threads)");
  // Candidate-view traffic of the last ENLD cell: a miss is a Detect that
  // forwarded I_c, a hit one that found θ's view (the same counters land in
  // the --telemetry_out report and the serving /stats endpoint).
  const auto& counters = v.sweep.last_enld->metrics.counters;
  const auto count = [&](const char* name) -> unsigned long long {
    return counters.count(name) ? counters.at(name) : 0;
  };
  std::printf("candidate view: %llu hits / %llu misses\n",
              count("cache/view_hits"), count("cache/view_misses"));
}

// Fig. 9: precision / recall / f1 of the detected noisy set after each
// fine-grained iteration, with the f1 deviation over the stream.
void TrainingProcess(View& v) {
  v.values.columns = {{"noise", 1},  {"iteration", 0}, {"precision", 4},
                      {"recall", 4}, {"f1", 4},        {"f1_std", 4}};
  TablePrinter clean_table({"noise", "point", "clean_size"});
  for (double noise : v.noises) {
    const Workload& workload = v.sweep.Stream(v.task(), noise);
    const MethodRunResult& run = v.Cell("enld", noise);
    for (size_t iter = 0; iter < PaperEnldConfig(v.task()).iterations;
         ++iter) {
      std::vector<DetectionMetrics> per_dataset;
      for (size_t d = 0; d < workload.incremental.size(); ++d) {
        const Dataset& data = workload.incremental[d];
        // Noisy set after this iteration = labeled samples not yet clean.
        std::vector<bool> clean(data.size(), false);
        for (size_t pos : run.raw_results[d].per_iteration_clean[iter]) {
          clean[pos] = true;
        }
        per_dataset.push_back(EvaluateDetection(
            data, PartitionLabeled(data, [&](size_t i) { return !clean[i]; })
                      .noisy_indices));
      }
      const DetectionMetrics avg = AverageMetrics(per_dataset);
      double var = 0.0;
      for (const DetectionMetrics& m : per_dataset) {
        var += (m.f1 - avg.f1) * (m.f1 - avg.f1);
      }
      v.values.rows.push_back(
          {noise, static_cast<double>(iter + 1), avg.precision, avg.recall,
           avg.f1, std::sqrt(var / per_dataset.size())});
    }
    // The clean-set size the detector recorded per iteration per dataset.
    const std::vector<double>& sizes =
        run.telemetry.metrics.series.at("detect/clean_size");
    for (size_t p = 0; p < sizes.size(); ++p) {
      clean_table.AddRow({Num(noise, 1), std::to_string(p), Num(sizes[p], 0)});
    }
  }
  v.values.Print(
      "Fig. 9 — detection trajectory across fine-grained iterations "
      "(CIFAR100)");
  clean_table.Print(
      "Clean-set size per iteration point (telemetry detect/clean_size)");
}

void ContrastiveSizeTime(View& v) {
  TablePrinter table({"k", "avg_process_s", "avg_f1"});
  for (const Method& m : v.row.methods) {
    table.AddRow(
        {m.Label(), Num(v.Mean(m.key, true), 3), Num(v.Mean(m.key))});
  }
  table.Print("Fig. 12 — process time and f1 per contrastive size k");
}

// Fig. 13(a): pseudo-label accuracy and detection f1 at missing-label
// rates 25% / 50% / 75%.
void MissingLabels(View& v) {
  v.values.columns = {
      {"missing_rate", 2}, {"pseudo_label_f1", 4}, {"detection_f1", 4}};
  for (double missing_rate : {0.25, 0.50, 0.75}) {
    Workload workload = v.sweep.Stream(v.task(), v.noises.front());
    Rng rng(501);
    std::vector<std::vector<size_t>> masked;
    for (Dataset& d : workload.incremental) {
      masked.push_back(MaskMissingLabels(&d, missing_rate, rng));
    }
    EnldFramework enld(PaperEnldConfig(v.task()));
    enld.Setup(workload.inventory);
    double pseudo = 0.0, detection = 0.0;
    for (size_t i = 0; i < workload.incremental.size(); ++i) {
      const Dataset& d = workload.incremental[i];
      const DetectionResult result = enld.Detect(d);
      pseudo += PseudoLabelAccuracy(d, result.recovered_labels, masked[i]);
      detection += EvaluateDetection(d, result.noisy_indices).f1;
    }
    const double n = static_cast<double>(workload.incremental.size());
    v.values.rows.push_back({missing_rate, pseudo / n, detection / n});
  }
  v.values.Print(
      "Fig. 13(a) — missing-label recovery at noise 0.2 (CIFAR100)");
}

void AmbiguousSamples(View& v) {
  v.values.columns = {{"noise", 1},
                      {"iteration", 0},
                      {"avg_ambiguous", 1},
                      {"avg_dataset_size", 1}};
  for (double noise : v.noises) {
    const Workload& workload = v.sweep.Stream(v.task(), noise);
    const MethodRunResult& run = v.Cell("enld", noise);
    double avg_size = 0.0;
    for (const Dataset& d : workload.incremental) avg_size += d.size();
    avg_size /= workload.incremental.size();
    for (size_t iter = 0; iter < PaperEnldConfig(v.task()).iterations;
         ++iter) {
      double total = 0.0;
      for (const DetectionResult& result : run.raw_results) {
        total += static_cast<double>(result.per_iteration_ambiguous[iter]);
      }
      v.values.rows.push_back({noise, static_cast<double>(iter + 1),
                               total / run.raw_results.size(), avg_size});
    }
  }
  v.values.Print(
      "Fig. 13(b) — ambiguous samples per fine-grained iteration "
      "(CIFAR100)");
}

// Table II: accuracy against true labels of the original general model
// and of the model Algorithm 4 updates from the selected clean S_c.
void ModelUpdate(View& v) {
  v.values.columns = {{"noise", 1},          {"origin_model_acc", 4},
                      {"updated_model_acc", 4}, {"selected_clean", 0},
                      {"selected_purity", 4}};
  for (double noise : v.noises) {
    const Workload& workload = v.sweep.Stream(v.task(), noise);
    const auto accuracy = [&](MlpModel* model) {
      double total = 0.0;
      for (const Dataset& d : workload.incremental) {
        total += AccuracyAgainstTrue(model, d);
      }
      return total / workload.incremental.size();
    };
    EnldFramework enld(PaperEnldConfig(v.task()));
    enld.Setup(workload.inventory);
    const double before = accuracy(enld.general_model());
    for (const Dataset& d : workload.incremental) enld.Detect(d);
    const auto selected = enld.selected_clean_positions();
    const Dataset& candidate = enld.candidate_set();
    const double pure = std::count_if(
        selected.begin(), selected.end(), [&](size_t pos) {
          return candidate.observed_labels[pos] == candidate.true_labels[pos];
        });
    const double purity = selected.empty() ? 0.0 : pure / selected.size();
    const double after =
        enld.UpdateModel().ok() ? accuracy(enld.general_model()) : 0.0;
    v.values.rows.push_back({noise, before, after,
                             static_cast<double>(selected.size()), purity});
  }
  v.values.Print(
      "Table II — validation accuracy before/after the model update "
      "(CIFAR100)");
}

/// The rows, in the order a full run prints them.
const std::vector<Row> kRows = {
    {"fig03", {kCifar100}, {}, {}, StrategyLoss,
     {{"fig03.loss-order", kAsserted,
       "loss(Nearest-Related) < loss(Nearest-Only) < loss(Random) at each "
       "noise rate",
       [](const View& v) {
         return Ascending(v, {"nearest_related", "nearest_only", "random"});
       }}}},
    {"fig04", {kEmnist}, {}, kFiveMethods,
     Quality("method", "Fig. 4 — noisy label detection on EMNIST (avg over "
             "stream)", "Fig. 4 summary — average f1 over noise rates"),
     {{"fig04.enld-best", kAsserted,
       "ENLD has the best average f1 of the five methods", EnldBest}}},
    {"fig05", {kCifar100}, {}, kFiveMethods,
     Quality("method", "Fig. 5 — noisy label detection on CIFAR100 (avg "
             "over stream)", "Fig. 5 summary — average f1 over noise rates"),
     {{"fig05.enld-best", kAsserted,
       "ENLD has the best average f1 of the five methods", EnldBest}}},
    {"fig06", {kCifar100}, {}, {{"topofilter"}, {"enld"}}, Backbones,
     {{"fig06.enld-beats-topofilter", kAsserted,
       "on each backbone ENLD's average f1 beats Topofilter's",
       [](const View& v) { return EnldBeatsOnEachBackbone(v, false); }},
      {"fig06.enld-faster", kAsserted,
       "on each backbone ENLD's average process time is below Topofilter's",
       [](const View& v) { return EnldBeatsOnEachBackbone(v, true); },
       true}}},
    {"fig07", {kTinyImagenet}, {}, kFiveMethods,
     Quality("method", "Fig. 7 — noisy label detection on Tiny-Imagenet "
             "(avg over stream)",
             "Fig. 7 summary — average f1 over noise rates"),
     {{"fig07.enld-best", kAsserted,
       "ENLD has the best average f1 of the five methods", EnldBest}}},
    {"fig08", {kEmnist, kCifar100, kTinyImagenet}, {}, kFiveMethods,
     ProcessTime,
     {{"fig08.enld-faster", kAsserted,
       "ENLD's average process time is below Topofilter's on every task "
       "and noise rate",
       [](const View& v) {
         return All(v.tasks, [&](PaperDataset task) {
           return All(v.noises, [&](double noise) {
             return ProcessSeconds(v, "enld", task, noise) <
                    ProcessSeconds(v, "topofilter", task, noise);
           });
         });
       },
       true}}},
    {"fig09", {kCifar100}, {}, {}, TrainingProcess,
     {{"fig09.precision-rises-recall-never", kAsserted,
       "at each noise rate the noisy set's precision rises every iteration "
       "and its recall never rises",
       [](const View& v) {
         return EveryStep(v, "precision", Rises) &&
                EveryStep(v, "recall", NeverRises);
       }}}},
    {"fig10", {kCifar100}, {},
     {{"enld"}, {"enld-random"}, {"enld-hc"}, {"enld-lc"}, {"enld-entropy"},
      {"enld-pseudo"}},
     Quality("policy", "Fig. 10 — sampling-policy comparison (CIFAR100)",
             "Fig. 10 summary — average f1 over noise rates", true),
     {{"fig10.contrastive-best", kAsserted,
       "contrastive sampling has the best average f1 of the six policies",
       EnldBest},
      {"fig10.pseudo-hc-beat-rest", kAsserted,
       "Pseudo and HC both beat Entropy, Random and LC in average f1",
       [](const View& v) {
         return std::min(v.Mean("enld-pseudo"), v.Mean("enld-hc")) >
                std::max({v.Mean("enld-entropy"), v.Mean("enld-random"),
                          v.Mean("enld-lc")});
       }}}},
    {"fig11", {kCifar100}, {}, kContrastiveSizes,
     Quality("k", "Fig. 11 — contrastive sample size k sweep (CIFAR100)",
             nullptr),
     {{"fig11.k4-best-at-highest-noise", kRecorded,
       "k = 4 has the best f1 at the highest noise rate",
       [](const View& v) {
         return All(v.row.methods, [&](const Method& m) {
           return v.F1(m.key, v.noises.back()) <=
                  v.F1("enld/k=4", v.noises.back());
         });
       }}}},
    {"fig12", {kCifar100}, {}, kContrastiveSizes, ContrastiveSizeTime,
     {{"fig12.time-not-monotone", kRecorded,
       "average process time is not monotone in k",
       [](const View& v) {
         std::vector<double> times;
         for (const Method& m : v.row.methods) {
           times.push_back(v.Mean(m.key, true));
         }
         return !std::is_sorted(times.begin(), times.end()) &&
                !std::is_sorted(times.rbegin(), times.rend());
       },
       true}}},
    {"fig13a", {kCifar100}, {0.2}, {}, MissingLabels,
     {{"fig13a.both-fall", kRecorded,
       "pseudo-label accuracy and detection f1 both fall as the missing "
       "rate grows",
       [](const View& v) {
         return EveryStep(v, "pseudo_label_f1", Falls) &&
                EveryStep(v, "detection_f1", Falls);
       }}}},
    {"fig13b", {kCifar100}, {}, {}, AmbiguousSamples,
     {{"fig13b.ambiguous-falls", kAsserted,
       "at each noise rate |A| falls every iteration",
       [](const View& v) { return EveryStep(v, "avg_ambiguous", Falls); }}}},
    {"fig14", {kCifar100}, {},
     {{"enld", "ENLD-Origin"}, {"enld/no-contrastive", "ENLD-1"},
      {"enld/no-voting", "ENLD-2"}, {"enld/no-merge", "ENLD-3"},
      {"enld/observed-label", "ENLD-4"}},
     Quality("variant", "Fig. 14 — ablation study (CIFAR100)",
             "Fig. 14 summary — average f1 over noise rates"),
     {{"fig14.enld3-lowest", kAsserted,
       "ENLD-3 (no C = C u S merge) has the lowest average f1",
       [](const View& v) { return Extreme(v, "enld/no-merge", true); }},
      {"fig14.enld1-below-origin", kAsserted,
       "ENLD-1 (random picks) has a lower average f1 than ENLD-Origin",
       [](const View& v) {
         return v.Mean("enld/no-contrastive") < v.Mean("enld");
       }},
      {"fig14.enld4-below-origin-at-high-noise", kRecorded,
       "ENLD-4 (j = observed label) has a lower f1 than ENLD-Origin at "
       "noise 0.3 and 0.4",
       [](const View& v) {
         return All(v.noises, [&](double noise) {
           return noise < 0.25 ||
                  v.F1("enld/observed-label", noise) < v.F1("enld", noise);
         });
       }}}},
    {"table2", {kCifar100}, {}, {}, ModelUpdate,
     {{"table2.update-improves", kAsserted,
       "the updated model beats the original at each noise rate",
       [](const View& v) {
         return Ascending(v, {"origin_model_acc", "updated_model_acc"});
       }}}},
    {"ext", {kCifar100}, {0.2, 0.4},
     {{"o2u"}, {"coteaching"}, {"incv"}, {"topofilter"}, {"enld"}},
     [](View& v) {
       Quality("method", "Extension — per-request sample-selection methods "
               "on incremental data (CIFAR100)", nullptr, false, true)(v);
       std::puts(
           "\nReading: O2U-Net / Co-teaching / INCV train per request on "
           "the\nlabel(D)-related subset, where mislabeled samples are "
           "usually the\nonly occupants of their true class's feature "
           "region, so their\nrecall collapses — the failure mode that "
           "motivates ENLD (Sec. I).");
     },
     {{"ext.per-request-methods-lose", kAsserted,
       "at each noise rate ENLD's and Topofilter's f1 both beat O2U-Net's, "
       "Co-teaching's and INCV's",
       [](const View& v) {
         return All(v.noises, [&](double noise) {
           return std::min(v.F1("enld", noise), v.F1("topofilter", noise)) >
                  std::max({v.F1("o2u", noise), v.F1("coteaching", noise),
                            v.F1("incv", noise)});
         });
       }}}},
};

std::string Format(const char* format, ...) {
  va_list args, sizing;
  va_start(args, format);
  va_copy(sizing, args);
  std::string out(std::vsnprintf(nullptr, 0, format, sizing), '\0');
  va_end(sizing);
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

/// Appends `item` to `list`, after `first` when it is the list's first
/// item and after `next` otherwise.
void Append(std::string* list, const std::string& item,
            const char* first = "\n    ", const char* next = ",\n    ") {
  *list += (list->empty() ? first : next) + item;
}

/// One cell, value row or claim per line, so a change reads as a line diff.
bool WriteClaims(bool paper_sweep, const std::vector<View>& views,
                 const Sweep& sweep, const std::string& claims) {
  std::string rows, cells, values;
  for (const View& view : views) {
    Append(&rows, Format("\"%s\"", view.row.name), "", ", ");
    if (view.values.rows.empty()) continue;
    std::string columns, numbers;
    for (const auto& column : view.values.columns) {
      Append(&columns, "\"" + column.first + "\"", "", ", ");
    }
    for (const std::vector<double>& row : view.values.rows) {
      std::string line;
      for (double value : row) Append(&line, Format("%.6g", value), "", ", ");
      Append(&numbers, "[" + line + "]", "\n      ", ",\n      ");
    }
    Append(&values, Format("\"%s\": {\"columns\": [", view.row.name) +
                        columns + "], \"rows\": [" + numbers + "]}");
  }
  for (const auto& [key, run] : sweep.cells) {
    const DetectionMetrics avg = run.average();
    Append(&cells,
           Format("{\"method\": \"%s\", \"task\": \"%s\", \"backbone\": "
                  "\"%s\", \"noise\": %.6g, \"datasets\": %zu, "
                  "\"precision\": %.6g, \"recall\": %.6g, \"f1\": %.6g}",
                  key.method.c_str(), PaperDatasetName(key.task),
                  key.backbone ? BackboneName(*key.backbone) : "default",
                  key.noise, run.per_dataset.size(), avg.precision,
                  avg.recall, avg.f1));
  }
  std::FILE* file = std::fopen("CLAIMS.json", "w");
  if (file == nullptr) return false;
  std::fprintf(file,
               "{\n  \"schema\": \"enld-claims-v1\",\n  \"paper_sweep\": "
               "%s,\n  \"rows\": [%s],\n  \"cells\": [%s\n  ],\n  "
               "\"values\": {%s\n  },\n  \"claims\": [%s\n  ]\n}\n",
               paper_sweep ? "true" : "false", rows.c_str(), cells.c_str(),
               values.c_str(), claims.c_str());
  return !std::ferror(file) && std::fclose(file) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string known;
  for (const Row& row : kRows) known += std::string(" ") + row.name;
  std::vector<std::string> named;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--telemetry_out=", 16) == 0) continue;
    named.push_back(argv[i]);
    if ((known + " ").find(" " + named.back() + " ") == std::string::npos) {
      std::fprintf(stderr, "unknown row '%s'; the rows are:%s\n", argv[i],
                   known.c_str());
      return 2;
    }
  }
  // Every scope variable is parsed before any work; a bad value exits 2.
  const std::vector<PaperDataset> tasks = PaperTasks();
  const std::vector<double> noises = NoiseRates();
  DatasetBudget(1);
  bool full_length = true;
  for (const char* name :
       {"ENLD_BENCH_TASKS", "ENLD_BENCH_NOISES", "ENLD_BENCH_DATASETS"}) {
    const char* value = std::getenv(name);
    full_length = full_length && (value == nullptr || *value == '\0');
  }

  std::printf("threads: %zu (set ENLD_THREADS to change)\n",
              ParallelThreadCount());
  Sweep sweep;
  std::vector<View> views;
  std::string claims, failed;
  for (const Row& row : kRows) {
    if (!named.empty() &&
        std::count(named.begin(), named.end(), row.name) == 0) {
      continue;
    }
    std::vector<PaperDataset> scoped;
    for (PaperDataset task : row.tasks) {
      if (std::count(tasks.begin(), tasks.end(), task)) scoped.push_back(task);
    }
    std::printf("\n######## %s\n", row.name);
    if (scoped.empty()) {
      std::printf("skipped: its task is not in ENLD_BENCH_TASKS\n");
      continue;
    }
    View& view = views.emplace_back(View{
        row, sweep, scoped, row.noises.empty() ? noises : row.noises, {}});
    row.print(view);
    std::printf("\n");
    for (const Claim& claim : row.claims) {
      const bool holds = claim.holds(view);
      std::printf("claim %s %s %s%s: %s\n", holds ? "PASS" : "FAIL",
                  claim.asserted ? "✅" : "⚠️", claim.id,
                  claim.time ? " (time)" : "", claim.sentence);
      if (!holds && claim.asserted) failed += std::string(" ") + claim.id;
      if (claim.time) continue;
      Append(&claims, Format("{\"id\": \"%s\", \"row\": \"%s\", \"mark\": "
                             "\"%s\", \"verdict\": \"%s\", \"claim\": \"%s\"}",
                             claim.id, row.name,
                             claim.asserted ? "asserted" : "recorded",
                             holds ? "pass" : "fail", claim.sentence));
    }
  }

  const bool paper_sweep = full_length && views.size() == kRows.size();
  if (!WriteClaims(paper_sweep, views, sweep, claims)) {
    std::fprintf(stderr, "cannot write CLAIMS.json\n");
    return 1;
  }
  std::printf("\n%zu cells; CLAIMS.json written (paper sweep: %s)\n",
              sweep.cells.size(), paper_sweep ? "yes" : "no");
  const std::string out_path = telemetry::TelemetryOutPath(argc, argv);
  if (!out_path.empty() && sweep.last_enld != nullptr) {
    const Status written =
        telemetry::WriteRunReport(*sweep.last_enld, out_path);
    std::printf("telemetry report (last ENLD cell) -> %s: %s\n",
                out_path.c_str(), written.ToString().c_str());
    if (!written.ok()) return 1;
  }
  if (failed.empty()) return 0;
  std::printf("asserted claims failed:%s%s\n", failed.c_str(),
              full_length ? "" : " (a scoped run: not enforced)");
  return full_length ? 1 : 0;
}
