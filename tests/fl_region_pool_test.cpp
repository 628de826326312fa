// Query-region pooling: Fleet::QueryRegionTestData and the drift-aware
// DynamicFleet::QueryRegionTestData collect every shard's matching row ids
// and gather once. Their output must be byte-equal to the per-shard
// SelectRows + append reference below, at 1, 2 and 96 shards, and a query
// that matches nothing must return NotFound.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "qens/common/rng.h"
#include "qens/fl/dynamic_fleet.h"
#include "qens/fl/leader.h"
#include "qens/fl/query_session.h"

namespace qens::fl {
namespace {

/// One node: two features, x0 in [offset, offset + 10], x1 in [0, 1].
data::Dataset MakeNodeData(double offset, uint64_t seed, size_t n) {
  Rng rng(seed);
  Matrix x(n, 2), y(n, 1);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = offset + rng.Uniform(0, 10);
    x(i, 1) = rng.Uniform(0, 1);
    y(i, 0) = 2.0 * x(i, 0) - x(i, 1) + rng.Gaussian(0, 0.2);
  }
  return data::Dataset::Create(x, y, {"a", "b"}, "t").value();
}

FederationOptions PoolOptions() {
  FederationOptions options;
  options.environment.kmeans.k = 2;
  options.test_fraction = 0.3;
  options.seed = 5;
  return options;
}

std::shared_ptr<Fleet> MakeFleet(size_t nodes, size_t rows,
                                 const FederationOptions& options) {
  std::vector<data::Dataset> data;
  for (size_t i = 0; i < nodes; ++i) {
    data.push_back(MakeNodeData(static_cast<double>(i % 8) * 5.0, 100 + i,
                                rows));
  }
  return Fleet::Create(std::move(data), options).value();
}

query::RangeQuery QueryOver(double lo0, double hi0, double lo1, double hi1) {
  query::RangeQuery q;
  q.id = 1;
  q.region =
      query::HyperRectangle::FromFlatBounds({lo0, hi0, lo1, hi1}).value();
  return q;
}

/// The reference pool: each shard's matching rows copied with
/// Matrix::SelectRows, then appended in shard order.
struct Pool {
  std::vector<double> features;
  std::vector<double> targets;
};

void Append(const data::Dataset& shard, const query::RangeQuery& internal,
            Pool* pool) {
  const std::vector<size_t> rows =
      internal.MatchingRows(shard.features()).value();
  if (rows.empty()) return;
  const std::vector<double> f = shard.features().SelectRows(rows)->data();
  const std::vector<double> t = shard.targets().SelectRows(rows)->data();
  pool->features.insert(pool->features.end(), f.begin(), f.end());
  pool->targets.insert(pool->targets.end(), t.begin(), t.end());
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectPoolEquals(const data::Dataset& got, const Pool& want) {
  EXPECT_TRUE(SameBytes(got.features().data(), want.features));
  EXPECT_TRUE(SameBytes(got.targets().data(), want.targets));
  EXPECT_EQ(got.feature_names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(got.target_name(), "t");
}

class RegionPoolTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RegionPoolTest, FleetPoolMatchesSelectRowsReference) {
  const size_t nodes = GetParam();
  const std::shared_ptr<Fleet> fleet = MakeFleet(nodes, 40, PoolOptions());
  for (const query::RangeQuery& q :
       {QueryOver(2, 9, 0.2, 0.8), QueryOver(-100, 100, -1, 2),
        QueryOver(12, 30, 0, 0.5)}) {
    const query::RangeQuery internal = fleet->InternalQuery(q).value();
    Pool want;
    for (const data::Dataset& shard : fleet->test_shards) {
      Append(shard, internal, &want);
    }
    auto got = fleet->QueryRegionTestData(q);
    if (want.targets.empty()) {
      EXPECT_TRUE(got.status().IsNotFound());
      continue;
    }
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectPoolEquals(*got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, RegionPoolTest,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{96}));

TEST(RegionPoolTest, QueryOutsideEveryShardIsNotFound) {
  const std::shared_ptr<Fleet> fleet = MakeFleet(4, 40, PoolOptions());
  EXPECT_TRUE(fleet->QueryRegionTestData(QueryOver(1000, 1010, 0, 1))
                  .status()
                  .IsNotFound());
}

TEST(RegionPoolTest, DriftedShardsPoolShiftedRows) {
  // Every fourth row of every node sits at the origin, so a drifted node's
  // training copy holds its accumulated offset exactly in such a row: the
  // offsets start at 0.0 and add up in the same order in both.
  std::vector<data::Dataset> data;
  for (size_t i = 0; i < 8; ++i) {
    data::Dataset node = MakeNodeData(static_cast<double>(i), 200 + i, 40);
    Matrix x = node.features();
    for (size_t r = 0; r < x.rows(); r += 4) x(r, 0) = x(r, 1) = 0.0;
    data.push_back(data::Dataset::Create(x, node.targets(), {"a", "b"}, "t")
                       .value());
  }
  FederationOptions options = PoolOptions();
  options.normalize = false;
  options.dynamic.enabled = true;
  options.dynamic.drift.seed = 9;
  options.dynamic.drift.rate = 0.3;
  options.dynamic.drift.feature_shift = 0.3;
  const std::shared_ptr<Fleet> fleet =
      Fleet::Create(std::move(data), options).value();
  auto dynamic = DynamicFleet::Create(fleet);
  ASSERT_TRUE(dynamic.ok());
  Leader leader(fleet->profiles, options.ranking, options.query_driven,
                nullptr, fleet->fleet_epoch);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(dynamic->BeginRound(&leader).ok());
  }

  const query::RangeQuery q = QueryOver(0.5, 12, 0.1, 0.9);
  Pool want;
  size_t drifted = 0;
  for (size_t i = 0; i < fleet->test_shards.size(); ++i) {
    const data::Dataset& shard = fleet->test_shards[i];
    const Matrix& original = fleet->environment.node(i).local_data().features();
    const Matrix& moved = dynamic->node(i).local_data().features();
    if (&moved == &original) {
      Append(shard, q, &want);
      continue;
    }
    ++drifted;
    size_t origin = 0;
    while (original(origin, 0) != 0.0 || original(origin, 1) != 0.0) {
      ASSERT_LT(++origin, original.rows());
    }
    // A drifted node's test rows move by its accumulated offset.
    Matrix features = shard.features();
    for (size_t r = 0; r < features.rows(); ++r) {
      for (size_t d = 0; d < 2; ++d) features(r, d) += moved(origin, d);
    }
    Append(data::Dataset::Create(std::move(features), shard.targets(),
                                 shard.feature_names(), shard.target_name())
               .value(),
           q, &want);
  }
  ASSERT_GT(drifted, 0u);
  ASSERT_LT(drifted, fleet->test_shards.size());
  ASSERT_FALSE(want.targets.empty());
  auto got = dynamic->QueryRegionTestData(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectPoolEquals(*got, want);
}

}  // namespace
}  // namespace qens::fl
