#include "qens/data/splitter.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "qens/common/rng.h"
#include "qens/common/string_util.h"

namespace qens::data {

Result<TrainTestSplit> SplitTrainTest(const Dataset& dataset,
                                      double test_fraction, uint64_t seed) {
  if (dataset.NumSamples() < 2) {
    return Status::InvalidArgument("SplitTrainTest: need >= 2 samples");
  }
  if (test_fraction <= 0.0 || test_fraction >= 1.0) {
    return Status::InvalidArgument(
        "SplitTrainTest: test_fraction must be in (0, 1)");
  }
  Rng rng(seed);
  std::vector<size_t> order(dataset.NumSamples());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);

  size_t n_test = static_cast<size_t>(
      test_fraction * static_cast<double>(dataset.NumSamples()));
  n_test = std::clamp<size_t>(n_test, 1, dataset.NumSamples() - 1);

  const std::span<const size_t> rows(order);
  TrainTestSplit split;
  QENS_ASSIGN_OR_RETURN(split.test, dataset.SelectRows(rows.first(n_test)));
  QENS_ASSIGN_OR_RETURN(split.train, dataset.SelectRows(rows.subspan(n_test)));
  return split;
}

Result<std::vector<Dataset>> PartitionIid(const Dataset& dataset, size_t n,
                                          uint64_t seed) {
  if (n == 0) return Status::InvalidArgument("PartitionIid: n must be > 0");
  if (dataset.NumSamples() < n) {
    return Status::InvalidArgument(
        StrFormat("PartitionIid: %zu samples for %zu shards",
                  dataset.NumSamples(), n));
  }
  Rng rng(seed);
  std::vector<size_t> order(dataset.NumSamples());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);

  const std::span<const size_t> rows(order);
  std::vector<Dataset> shards;
  shards.reserve(n);
  const size_t base = dataset.NumSamples() / n;
  const size_t extra = dataset.NumSamples() % n;
  size_t cursor = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t take = base + (i < extra ? 1 : 0);
    QENS_ASSIGN_OR_RETURN(Dataset shard,
                          dataset.SelectRows(rows.subspan(cursor, take)));
    cursor += take;
    shards.push_back(std::move(shard));
  }
  return shards;
}

Result<std::vector<Dataset>> PartitionByFeature(const Dataset& dataset,
                                                size_t feature_index,
                                                size_t n) {
  if (n == 0) {
    return Status::InvalidArgument("PartitionByFeature: n must be > 0");
  }
  if (feature_index >= dataset.NumFeatures()) {
    return Status::OutOfRange(
        StrFormat("PartitionByFeature: feature %zu >= %zu", feature_index,
                  dataset.NumFeatures()));
  }
  if (dataset.NumSamples() < n) {
    return Status::InvalidArgument(
        StrFormat("PartitionByFeature: %zu samples for %zu shards",
                  dataset.NumSamples(), n));
  }
  std::vector<size_t> order(dataset.NumSamples());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return dataset.features()(a, feature_index) <
           dataset.features()(b, feature_index);
  });

  const std::span<const size_t> rows(order);
  std::vector<Dataset> shards;
  shards.reserve(n);
  const size_t base = dataset.NumSamples() / n;
  const size_t extra = dataset.NumSamples() % n;
  size_t cursor = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t take = base + (i < extra ? 1 : 0);
    QENS_ASSIGN_OR_RETURN(Dataset shard,
                          dataset.SelectRows(rows.subspan(cursor, take)));
    cursor += take;
    shards.push_back(std::move(shard));
  }
  return shards;
}

}  // namespace qens::data
