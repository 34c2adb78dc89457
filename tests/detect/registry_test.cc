#include "detect/registry.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "data/workload.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace enld {
namespace {

using detect::CreateDetector;
using detect::DetectorContext;
using detect::DetectorInfo;
using detect::FindDetector;
using detect::ListDetectors;
using detect::OptionSpec;
using testing_util::TinyGeneralConfig;
using testing_util::TinyWorkloadConfig;

DetectorContext TinyContext() {
  DetectorContext context;
  context.general = TinyGeneralConfig();
  context.enld.general = TinyGeneralConfig();
  context.enld.iterations = 3;
  context.enld.steps_per_iteration = 3;
  return context;
}

void ExpectValidPartition(const Dataset& d, const DetectionResult& result) {
  std::set<size_t> seen;
  for (size_t i : result.clean_indices) EXPECT_TRUE(seen.insert(i).second);
  for (size_t i : result.noisy_indices) EXPECT_TRUE(seen.insert(i).second);
  EXPECT_EQ(seen.size(), d.size() - d.MissingLabelIndices().size());
}

TEST(RegistryListTest, BuiltinsArePresentAndSorted) {
  const std::vector<DetectorInfo> detectors = ListDetectors();
  ASSERT_GE(detectors.size(), 9u);  // 7 existing + 3 new + enld variants.
  std::vector<std::string> keys;
  for (const DetectorInfo& info : detectors) keys.push_back(info.key);
  for (const char* expected :
       {"default", "cl1", "cl2", "topofilter", "o2u", "coteaching", "incv",
        "pls", "probe", "longremix", "enld", "enld-pseudo"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), expected), keys.end())
        << "missing builtin " << expected;
  }
  for (size_t i = 1; i < keys.size(); ++i) EXPECT_LT(keys[i - 1], keys[i]);
}

TEST(RegistryListTest, FindReturnsInfoOrNull) {
  const DetectorInfo* info = FindDetector("topofilter");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->key, "topofilter");
  EXPECT_EQ(info->display_name, "Topofilter");
  EXPECT_FALSE(info->options.empty());
  EXPECT_EQ(FindDetector("no-such-detector"), nullptr);
}

// Round trip: every table key constructs by name, and the instance's
// canonical name matches its key.
TEST(RegistryRoundTripTest, EveryKeyCreatesItsDetector) {
  for (const DetectorInfo& info : ListDetectors()) {
    auto detector = CreateDetector(info.key, {}, TinyContext());
    ASSERT_TRUE(detector.ok())
        << info.key << ": " << detector.status().ToString();
    EXPECT_EQ((*detector)->name(), info.key);
  }
}

/// Canonical keys are the values name() returns: lowercase alphanumerics
/// with internal dashes ("enld-random").
bool IsCanonicalKey(const std::string& key) {
  if (key.empty() || key.front() == '-' || key.back() == '-') return false;
  return std::all_of(key.begin(), key.end(), [](char c) {
    const unsigned char u = static_cast<unsigned char>(c);
    return std::islower(u) || std::isdigit(u) || c == '-';
  });
}

// The static table is the register of detectors. A row it must not hold
// — a key twice, a non-canonical key, an option key twice in one row —
// is rejected here, over the table itself.
TEST(RegistryRegisterTest, DuplicateKeyRejected) {
  std::set<std::string> keys;
  for (const DetectorInfo& info : ListDetectors()) {
    EXPECT_TRUE(keys.insert(info.key).second)
        << "'" << info.key << "' appears twice";
  }
  EXPECT_EQ(keys.count("default"), 1u);
}

TEST(RegistryRegisterTest, NonCanonicalKeysRejected) {
  for (const std::string bad :
       {"", "UpperCase", "has space", "under_score", "-edge", "edge-",
        "sym!bol"}) {
    EXPECT_FALSE(IsCanonicalKey(bad)) << "key '" << bad
                                      << "' should be rejected";
  }
  for (const DetectorInfo& info : ListDetectors()) {
    EXPECT_TRUE(IsCanonicalKey(info.key)) << "'" << info.key << "'";
  }
}

// CreateDetector applies the first row of a duplicated option key, so a
// second one would be silently dead.
TEST(RegistryRegisterTest, DuplicateOptionKeyRejected) {
  for (const DetectorInfo& info : ListDetectors()) {
    std::set<std::string> option_keys;
    for (const OptionSpec& option : info.options) {
      EXPECT_TRUE(option_keys.insert(option.key).second)
          << info.key << " declares '" << option.key << "' twice";
    }
  }
}

// The static table: keys sorted; each key's detector named by its key;
// each listed default reads back as exactly its field in a default
// DetectorContext, and is a value its option accepts.
TEST(RegistryTableTest, EntriesAreSortedAndSelfConsistent) {
  const std::vector<DetectorInfo> detectors = ListDetectors();
  for (size_t i = 0; i < detectors.size(); ++i) {
    const DetectorInfo& info = detectors[i];
    if (i > 0) {
      EXPECT_LT(detectors[i - 1].key, info.key);
    }
    auto detector = CreateDetector(info.key);
    ASSERT_TRUE(detector.ok()) << detector.status().ToString();
    EXPECT_EQ((*detector)->name(), info.key);

    for (const OptionSpec& option : info.options) {
      DetectorContext defaults;
      std::istringstream listed(option.default_value());
      std::visit(
          [&](auto get) {
            std::decay_t<decltype(get(defaults))> value{};
            listed >> std::boolalpha >> value;
            EXPECT_FALSE(listed.fail()) << info.key << "." << option.key;
            EXPECT_EQ(listed.peek(), std::char_traits<char>::eof());
            EXPECT_EQ(value, get(defaults)) << info.key << "." << option.key;
          },
          option.field);
      EXPECT_TRUE(
          CreateDetector(info.key, {{option.key, option.default_value()}})
              .ok())
          << info.key << "." << option.key;
    }
  }
}

// The typed error matrix of Create: unknown detector, unknown option,
// malformed value per type, out-of-range value. Every error is
// kInvalidArgument and names the offender.
TEST(RegistryErrorTest, UnknownDetector) {
  auto detector = CreateDetector("no-such-detector");
  ASSERT_FALSE(detector.ok());
  EXPECT_EQ(detector.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(detector.status().ToString().find("no-such-detector"),
            std::string::npos);
  // The message lists the registered keys, so typos are self-serviceable.
  EXPECT_NE(detector.status().ToString().find("topofilter"),
            std::string::npos);
}

TEST(RegistryErrorTest, UnknownOptionKey) {
  auto detector = CreateDetector("probe", {{"not_an_option", "3"}});
  ASSERT_FALSE(detector.ok());
  EXPECT_EQ(detector.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(detector.status().ToString().find("not_an_option"),
            std::string::npos);
  EXPECT_NE(detector.status().ToString().find("sweep_points"),
            std::string::npos);
}

TEST(RegistryErrorTest, MalformedIntValue) {
  for (const std::string bad : {"banana", "3.5", "-2", "12x", "", "+2", " 2"}) {
    auto detector = CreateDetector("probe", {{"epochs", bad}});
    ASSERT_FALSE(detector.ok()) << "value '" << bad << "'";
    EXPECT_EQ(detector.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(detector.status().ToString().find("int"), std::string::npos);
  }
}

TEST(RegistryErrorTest, MalformedDoubleValue) {
  auto detector =
      CreateDetector("longremix", {{"seed_fraction", "not-a-number"}});
  ASSERT_FALSE(detector.ok());
  EXPECT_EQ(detector.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(detector.status().ToString().find("double"), std::string::npos);
}

TEST(RegistryErrorTest, MalformedBoolValue) {
  auto detector = CreateDetector("topofilter", {{"mutual_knn", "maybe"}});
  ASSERT_FALSE(detector.ok());
  EXPECT_EQ(detector.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(detector.status().ToString().find("bool"), std::string::npos);
}

TEST(RegistryErrorTest, ValidValuesOfEveryTypeAccepted) {
  EXPECT_TRUE(CreateDetector("probe", {{"epochs", "2"},
                                       {"sweep_points", "8"},
                                       {"seed", "42"}},
                             TinyContext())
                  .ok());
  EXPECT_TRUE(CreateDetector("longremix", {{"seed_fraction", "0.5"}},
                             TinyContext())
                  .ok());
  EXPECT_TRUE(CreateDetector("topofilter",
                             {{"mutual_knn", "false"},
                              {"component_keep_ratio", "0.9"}},
                             TinyContext())
                  .ok());
}

/// The seven count options a detector divides or loops by: 0 passes the
/// type check but would abort inside the detector, so the table bounds
/// them at 1.
void ExpectMinimumOne(const std::string& key, const std::string& option) {
  auto detector = CreateDetector(key, {{option, "0"}});
  ASSERT_FALSE(detector.ok());
  EXPECT_EQ(detector.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(detector.status().ToString().find(
                "option '" + option + "' of detector '" + key +
                "' must be at least 1, got '0'"),
            std::string::npos)
      << detector.status().ToString();
  EXPECT_TRUE(CreateDetector(key, {{option, "1"}}).ok());
}

TEST(RegistryBoundsTest, O2UCyclesAtLeastOne) {
  ExpectMinimumOne("o2u", "cycles");
}

TEST(RegistryBoundsTest, O2UEpochsAtLeastOne) {
  ExpectMinimumOne("o2u", "epochs");
}

TEST(RegistryBoundsTest, O2UBatchSizeAtLeastOne) {
  ExpectMinimumOne("o2u", "batch_size");
}

TEST(RegistryBoundsTest, IncvIterationsAtLeastOne) {
  ExpectMinimumOne("incv", "iterations");
}

TEST(RegistryBoundsTest, TopofilterGraphKAtLeastOne) {
  ExpectMinimumOne("topofilter", "graph_k");
}

TEST(RegistryBoundsTest, EnldStepsAtLeastOne) {
  ExpectMinimumOne("enld", "steps");
}

TEST(RegistryBoundsTest, EnldContrastiveKAtLeastOne) {
  ExpectMinimumOne("enld", "contrastive_k");
}

// An int must fit its 64-bit field; clamping 99999999999999999999 to
// 2^64-1 would ask for 2^64-1 epochs.
TEST(RegistryBoundsTest, IntOverflowRejected) {
  for (const std::string key : {"probe", "o2u"}) {
    for (const std::string option : {"seed", "epochs"}) {
      auto detector =
          CreateDetector(key, {{option, "99999999999999999999"}});
      ASSERT_FALSE(detector.ok()) << key << "." << option;
      EXPECT_EQ(detector.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(detector.status().ToString().find("must be at most"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(CreateDetector("probe", {{"seed", "18446744073709551615"}})
                  .ok());
}

class DetectQualityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new Workload(BuildWorkload(TinyWorkloadConfig(0.2)));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  /// Runs a registry detector over the tiny stream; returns mean F1.
  static double MeanF1(const std::string& key) {
    auto detector = CreateDetector(key, {}, TinyContext());
    EXPECT_TRUE(detector.ok()) << detector.status().ToString();
    (*detector)->Setup(workload_->inventory);
    double f1_sum = 0.0;
    for (const Dataset& incremental : workload_->incremental) {
      const DetectionResult result = (*detector)->Detect(incremental);
      ExpectValidPartition(incremental, result);
      f1_sum += EvaluateDetection(incremental, result.noisy_indices).f1;
    }
    return f1_sum / static_cast<double>(workload_->incremental.size());
  }

  static Workload* workload_;
};

Workload* DetectQualityTest::workload_ = nullptr;

// The three new detectors must beat chance by a wide margin on the tiny
// workload (noise 0.2 => flagging everything scores F1 ~0.33). Measured
// means: pls ~0.73, probe ~0.54, longremix ~0.83.
TEST_F(DetectQualityTest, PlsDetectsNoise) { EXPECT_GT(MeanF1("pls"), 0.55); }

TEST_F(DetectQualityTest, ProbeDetectsNoise) {
  EXPECT_GT(MeanF1("probe"), 0.40);
}

TEST_F(DetectQualityTest, LongRemixDetectsNoise) {
  EXPECT_GT(MeanF1("longremix"), 0.60);
}

/// Every table detector gives identical verdicts at any pool thread count
/// (the library-wide determinism contract).
class RegistryDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelThreads(0); }

  static std::vector<DetectionResult> RunStream(const std::string& key,
                                                const Workload& workload) {
    auto detector = CreateDetector(key, {}, TinyContext());
    EXPECT_TRUE(detector.ok()) << detector.status().ToString();
    (*detector)->Setup(workload.inventory);
    std::vector<DetectionResult> results;
    for (const Dataset& incremental : workload.incremental) {
      results.push_back((*detector)->Detect(incremental));
    }
    return results;
  }
};

TEST_F(RegistryDeterminismTest, RegistryMatchesDirectAcrossThreadCounts) {
  const Workload workload = BuildWorkload(TinyWorkloadConfig(0.2));
  for (const DetectorInfo& info : ListDetectors()) {
    SetParallelThreads(1);
    const std::vector<DetectionResult> sequential =
        RunStream(info.key, workload);
    SetParallelThreads(4);
    const std::vector<DetectionResult> parallel =
        RunStream(info.key, workload);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(sequential[i].noisy_indices, parallel[i].noisy_indices)
          << info.key << " request " << i;
      EXPECT_EQ(sequential[i].clean_indices, parallel[i].clean_indices)
          << info.key << " request " << i;
    }
  }
}

}  // namespace
}  // namespace enld
