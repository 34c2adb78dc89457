#include "data_lake.h"

#include <cmath>
#include <utility>

#include "data/split.h"
#include "data/workload.h"

namespace perfbench {

namespace {

constexpr double kNoiseRate = 0.2;
/// Rows per class in each pool chunk: the profile's one-third incremental
/// share of its 120 samples per class.
constexpr size_t kChunkRowsPerClass = 40;
/// Increments carved from one chunk; with 10 classes each, every class is
/// visited exactly once per chunk.
constexpr size_t kIncrementsPerChunk = 10;

/// SplitMix64 finaliser: derives independent sub-seeds from one seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

enld::SyntheticConfig ProfileFor(uint64_t seed) {
  enld::SyntheticConfig profile = enld::Cifar100SimConfig();
  profile.seed = MixSeed(seed, 1);
  return profile;
}

}  // namespace

DataLake::DataLake(uint64_t seed, double take_min, double take_max)
    : seed_(seed),
      take_min_(take_min),
      take_max_(take_max),
      profile_(ProfileFor(seed)),
      transition_(enld::TransitionMatrix::PairAsymmetric(
          profile_.num_classes, kNoiseRate)) {
  enld::Rng geometry_rng(profile_.seed);
  const enld::ClassGeometry geometry =
      enld::MakeClassGeometry(profile_, geometry_rng);
  enld::Rng rng(MixSeed(seed_, 2));
  const size_t inventory_per_class = static_cast<size_t>(std::lround(
      enld::Cifar100WorkloadConfig(kNoiseRate).inventory_fraction *
      static_cast<double>(profile_.samples_per_class)));
  inventory_ = enld::SampleFromGeometry(geometry, inventory_per_class,
                                        profile_.sample_stddev, rng, 0);
  drifted_ = enld::ShiftGeometry(geometry, profile_.incremental_domain_shift,
                                 rng);
  enld::ApplyLabelNoise(&inventory_, transition_, rng);
  inventory_.true_labels = inventory_.observed_labels;
}

void DataLake::RefillFromNextChunk() {
  enld::Rng rng(MixSeed(seed_, 1000 + chunks_));
  const uint64_t first_id =
      inventory_.size() +
      chunks_ * kChunkRowsPerClass * static_cast<uint64_t>(
                                         profile_.num_classes);
  enld::Dataset pool =
      enld::SampleFromGeometry(drifted_, kChunkRowsPerClass,
                               profile_.sample_stddev, rng, first_id);
  enld::ApplyLabelNoise(&pool, transition_, rng);
  enld::IncrementalStreamConfig shape =
      enld::Cifar100WorkloadConfig(kNoiseRate).stream;
  shape.num_datasets = kIncrementsPerChunk;
  shape.min_take_fraction = take_min_;
  shape.max_take_fraction = take_max_;
  ready_ = enld::BuildIncrementalDatasets(pool, shape, rng);
  next_ready_ = 0;
  ++chunks_;
}

Increment DataLake::Next() {
  if (next_ready_ == ready_.size()) RefillFromNextChunk();
  Increment out;
  out.dataset = std::move(ready_[next_ready_++]);
  out.truth = out.dataset.true_labels;
  out.dataset.true_labels = out.dataset.observed_labels;
  return out;
}

}  // namespace perfbench
