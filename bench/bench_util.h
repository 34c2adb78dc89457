#ifndef ENLD_BENCH_BENCH_UTIL_H_
#define ENLD_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "detect/registry.h"
#include "enld/framework.h"
#include "eval/experiment.h"
#include "eval/paper_setup.h"

namespace enld {
namespace bench {

/// Prints the bad value of a bench environment variable and the form it
/// accepts, then exits 2: a scoped run must not silently run another
/// sweep than the one asked for.
[[noreturn]] inline void RejectBenchEnv(const char* name,
                                        const std::string& value,
                                        const char* accepted) {
  std::fprintf(stderr, "%s=\"%s\" is not valid: expected %s\n", name,
               value.c_str(), accepted);
  std::exit(2);
}

/// Splits a comma-separated environment value; an empty token is kept,
/// so the callers reject it.
inline std::vector<std::string> SplitBenchEnv(const std::string& value) {
  std::vector<std::string> tokens;
  size_t start = 0;
  while (true) {
    const size_t comma = value.find(',', start);
    tokens.push_back(value.substr(start, comma - start));
    if (comma == std::string::npos) return tokens;
    start = comma + 1;
  }
}

/// The paper's four noise settings (Section V-A2). The
/// ENLD_BENCH_NOISES environment variable (comma-separated rates, e.g.
/// "0.2" or "0.1,0.3") overrides them for quick or CI runs.
inline std::vector<double> NoiseRates() {
  const char* env = std::getenv("ENLD_BENCH_NOISES");
  if (env == nullptr || *env == '\0') return {0.1, 0.2, 0.3, 0.4};
  std::vector<double> rates;
  for (const std::string& token : SplitBenchEnv(env)) {
    char* end = nullptr;
    const double rate = std::strtod(token.c_str(), &end);
    if (token.empty() || *end != '\0' || !(rate > 0.0 && rate < 1.0)) {
      RejectBenchEnv("ENLD_BENCH_NOISES", env,
                     "comma-separated rates in (0, 1), e.g. 0.1,0.3");
    }
    rates.push_back(rate);
  }
  return rates;
}

/// The paper's three tasks. ENLD_BENCH_TASKS (comma-separated subset of
/// "emnist,cifar100,tiny") restricts them, e.g. for the CI telemetry run.
inline std::vector<PaperDataset> PaperTasks() {
  const std::map<std::string, PaperDataset> known = {
      {"emnist", PaperDataset::kEmnist},
      {"cifar100", PaperDataset::kCifar100},
      {"tiny", PaperDataset::kTinyImagenet}};
  const char* env = std::getenv("ENLD_BENCH_TASKS");
  const bool set = env != nullptr && *env != '\0';
  std::vector<PaperDataset> tasks;
  for (const std::string& name :
       SplitBenchEnv(set ? env : "emnist,cifar100,tiny")) {
    if (known.count(name) == 0) {
      RejectBenchEnv("ENLD_BENCH_TASKS", env,
                     "a comma-separated subset of emnist,cifar100,tiny");
    }
    tasks.push_back(known.at(name));
  }
  return tasks;
}

/// The positive integers of a comma-separated environment value, or
/// `fallback` when it is unset; one value only unless `list`. Any other
/// value exits 2.
inline std::vector<size_t> PositiveCounts(const char* name,
                                          std::vector<size_t> fallback,
                                          bool list = true) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const std::vector<std::string> tokens = SplitBenchEnv(env);
  std::vector<size_t> counts;
  for (const std::string& token : tokens) {
    char* end = nullptr;
    const long parsed = std::strtol(token.c_str(), &end, 10);
    if (token.empty() || *end != '\0' || parsed <= 0 ||
        (!list && tokens.size() > 1)) {
      RejectBenchEnv(name, env,
                     list ? "comma-separated positive integers, e.g. 1,4"
                          : "a positive integer");
    }
    counts.push_back(static_cast<size_t>(parsed));
  }
  return counts;
}

/// Number of incremental datasets to process. Defaults to the paper's
/// stream length for the profile; the ENLD_BENCH_DATASETS environment
/// variable (a positive integer) overrides it (useful for quick runs).
inline size_t DatasetBudget(size_t paper_count) {
  return PositiveCounts("ENLD_BENCH_DATASETS", {paper_count}, false)[0];
}

/// Builds the workload for a paper dataset at a noise rate, honouring the
/// dataset budget.
inline Workload MakeWorkload(PaperDataset dataset, double noise_rate) {
  WorkloadConfig config = PaperWorkloadConfig(dataset, noise_rate);
  config.stream.num_datasets = DatasetBudget(config.stream.num_datasets);
  return BuildWorkload(config);
}

/// Creates one registry detector under `context` (PaperDetectorContext
/// for a task's calibrated setup). A benchmark asking for an unregistered
/// key is a programming error — aborts.
inline std::unique_ptr<NoisyLabelDetector> MakePaperDetector(
    const std::string& key, const detect::DetectorContext& context) {
  auto detector = detect::CreateDetector(key, {}, context);
  ENLD_CHECK(detector.ok());
  return std::move(detector.value());
}

}  // namespace bench
}  // namespace enld

#endif  // ENLD_BENCH_BENCH_UTIL_H_
