// Tests for the simulated edge substrate: cost model, network accounting,
// edge nodes, and the environment builder.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "qens/common/rng.h"
#include "qens/sim/cost_model.h"
#include "qens/sim/edge_environment.h"
#include "qens/sim/edge_node.h"
#include "qens/sim/network.h"

namespace qens::sim {
namespace {

data::Dataset MakeData(size_t n, double offset, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 1), y(n, 1);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = offset + rng.Uniform(0, 10);
    y(i, 0) = 2 * x(i, 0) + rng.Gaussian(0, 0.1);
  }
  return data::Dataset::Create(x, y).value();
}

TEST(CostModelTest, TrainingTimeLinearInWork) {
  CostModel model;
  const double t1 = model.TrainingSeconds(1000, 10, 1.0);
  const double t2 = model.TrainingSeconds(2000, 10, 1.0);
  const double t3 = model.TrainingSeconds(1000, 20, 1.0);
  EXPECT_DOUBLE_EQ(t2, 2 * t1);
  EXPECT_DOUBLE_EQ(t3, 2 * t1);
}

TEST(CostModelTest, FasterNodeTrainsFaster) {
  CostModel model;
  EXPECT_LT(model.TrainingSeconds(1000, 10, 2.0),
            model.TrainingSeconds(1000, 10, 1.0));
}

TEST(CostModelTest, TransferIncludesLatency) {
  CostModelOptions options;
  options.link_latency_s = 0.1;
  options.bandwidth_bytes_per_s = 1000.0;
  CostModel model(options);
  EXPECT_DOUBLE_EQ(model.TransferSeconds(0), 0.1);
  EXPECT_DOUBLE_EQ(model.TransferSeconds(1000), 0.1 + 1.0);
  EXPECT_DOUBLE_EQ(model.RoundTripSeconds(1000, 0), 1.1 + 0.1);
}

TEST(NetworkTest, AccountsMessagesAndBytes) {
  Network net{CostModel({0.01, 1000.0, 1.0})};
  const double t = net.Send(0, 1, 500, "model-down");
  EXPECT_DOUBLE_EQ(t, 0.01 + 0.5);
  net.Send(1, 0, 200, "model-up");
  EXPECT_EQ(net.total_messages(), 2u);
  EXPECT_EQ(net.total_bytes(), 700u);
  EXPECT_NEAR(net.total_transfer_seconds(), 0.01 + 0.5 + 0.01 + 0.2, 1e-12);
  EXPECT_EQ(net.BytesWithTag("model-down"), 500u);
  EXPECT_EQ(net.BytesWithTag("nope"), 0u);
  net.Reset();
  EXPECT_EQ(net.total_messages(), 0u);
  EXPECT_EQ(net.total_bytes(), 0u);
}

TEST(NetworkTest, PerTagCountersTrackManyTags) {
  // BytesWithTag is served from running per-tag counters, not a log scan:
  // totals must be exact for every tag after interleaved sends and expose
  // the same numbers through bytes_by_tag().
  Network net{CostModel({0.0, 1000.0, 1.0})};
  const char* tags[] = {"profile", "model-down", "model-up", "model-up-lost"};
  size_t expected[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < 40; ++i) {
    const size_t which = i % 4;
    const size_t bytes = 10 + 7 * i;
    net.Send(0, 1, bytes, tags[which]);
    expected[which] += bytes;
  }
  size_t total = 0;
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(net.BytesWithTag(tags[t]), expected[t]) << tags[t];
    ASSERT_TRUE(net.bytes_by_tag().count(tags[t])) << tags[t];
    EXPECT_EQ(net.bytes_by_tag().at(tags[t]), expected[t]) << tags[t];
    total += expected[t];
  }
  EXPECT_EQ(net.total_bytes(), total);
  EXPECT_EQ(net.messages().size(), 40u);  // Log on by default.
  net.Reset();
  EXPECT_TRUE(net.bytes_by_tag().empty());
  EXPECT_EQ(net.BytesWithTag("profile"), 0u);
}

TEST(NetworkTest, CountersExactWithMessageLogOff) {
  NetworkOptions options;
  options.record_messages = false;
  Network net{CostModel({0.01, 1000.0, 1.0}), options};
  const double t = net.Send(0, 1, 500, "model-down");
  EXPECT_DOUBLE_EQ(t, 0.01 + 0.5);
  net.Send(1, 0, 200, "model-up");
  net.Send(0, 2, 300, "model-down");
  // The log stays empty...
  EXPECT_TRUE(net.messages().empty());
  // ...but every counter is still exact.
  EXPECT_EQ(net.total_messages(), 3u);
  EXPECT_EQ(net.total_bytes(), 1000u);
  EXPECT_EQ(net.BytesWithTag("model-down"), 800u);
  EXPECT_EQ(net.BytesWithTag("model-up"), 200u);
  EXPECT_NEAR(net.total_transfer_seconds(), 3 * 0.01 + 1.0, 1e-12);
}

TEST(EdgeNodeTest, QuantizeAndProfile) {
  EdgeNode node(3, "n3", MakeData(200, 0.0, 1), 1.5);
  EXPECT_EQ(node.id(), 3u);
  EXPECT_DOUBLE_EQ(node.capacity(), 1.5);
  EXPECT_FALSE(node.quantized());
  EXPECT_TRUE(node.profile().status().IsFailedPrecondition());

  clustering::KMeansOptions km;
  km.k = 5;
  ASSERT_TRUE(node.Quantize(km).ok());
  EXPECT_TRUE(node.quantized());
  auto profile = node.profile();
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ((*profile)->node_id, 3u);
  EXPECT_EQ((*profile)->clusters.size(), 5u);
  EXPECT_EQ((*profile)->total_samples, 200u);
}

TEST(EdgeNodeTest, ClusterRowsPartitionNode) {
  EdgeNode node(0, "n0", MakeData(150, 0.0, 2), 1.0);
  clustering::KMeansOptions km;
  km.k = 3;
  ASSERT_TRUE(node.Quantize(km).ok());
  const selection::NodeProfile& profile = *node.profile().value();
  // Every row lands in exactly one cluster's view, each view ascending and
  // as long as the published cluster size.
  std::vector<int> seen(150, 0);
  for (size_t c = 0; c < 3; ++c) {
    auto rows = node.ClusterRows(c);
    if (profile.clusters[c].size == 0) {
      EXPECT_TRUE(rows.status().IsNotFound());
      continue;
    }
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), profile.clusters[c].size);
    EXPECT_TRUE(std::is_sorted(rows->begin(), rows->end()));
    for (size_t r : *rows) ++seen[r];
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), 150);
}

TEST(EdgeNodeTest, ClusterRowsRebuiltOnRequantize) {
  EdgeNode node(0, "n0", MakeData(100, 0.0, 3), 1.0);
  clustering::KMeansOptions km;
  km.k = 2;
  ASSERT_TRUE(node.Quantize(km).ok());
  km.k = 4;
  ASSERT_TRUE(node.Quantize(km).ok());
  size_t total = 0;
  for (size_t c = 0; c < 4; ++c) {
    auto rows = node.ClusterRows(c);
    if (rows.ok()) total += rows->size();
  }
  EXPECT_EQ(total, 100u);
  EXPECT_TRUE(node.ClusterRows(4).status().IsOutOfRange());
}

TEST(EdgeNodeTest, ClusterRowsErrors) {
  EdgeNode node(0, "n0", MakeData(10, 0.0, 4), 1.0);
  EXPECT_TRUE(node.ClusterRows(0).status().IsFailedPrecondition());

  // Two rows over three clusters: at least one cluster stays empty.
  EdgeNode tiny(1, "n1", MakeData(2, 0.0, 5), 1.0);
  clustering::KMeansOptions km;
  km.k = 3;
  ASSERT_TRUE(tiny.Quantize(km).ok());
  EXPECT_TRUE(tiny.ClusterRows(9).status().IsOutOfRange());
  size_t empty = 0;
  for (size_t c = 0; c < 3; ++c) {
    if ((*tiny.profile())->clusters[c].size != 0) continue;
    EXPECT_TRUE(tiny.ClusterRows(c).status().IsNotFound());
    ++empty;
  }
  EXPECT_GE(empty, 1u);
}

EnvironmentOptions SmallEnvOptions() {
  EnvironmentOptions options;
  options.kmeans.k = 3;
  options.leader_index = 0;
  return options;
}

TEST(EdgeEnvironmentTest, CreateQuantizesAndShipsProfiles) {
  std::vector<data::Dataset> shards = {MakeData(100, 0, 1), MakeData(100, 5, 2),
                                       MakeData(100, 10, 3)};
  auto env = EdgeEnvironment::Create(std::move(shards), SmallEnvOptions());
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->num_nodes(), 3u);
  EXPECT_EQ(env->TotalSamples(), 300u);
  // Profile uploads recorded from each non-leader node.
  EXPECT_EQ(env->network().total_messages(), 2u);
  EXPECT_GT(env->network().BytesWithTag("profile"), 0u);
  auto profiles = env->Profiles();
  ASSERT_TRUE(profiles.ok());
  EXPECT_EQ(profiles->size(), 3u);
  EXPECT_EQ((*profiles)[1].node_id, 1u);
}

TEST(EdgeEnvironmentTest, GlobalDataSpaceIsHull) {
  std::vector<data::Dataset> shards = {MakeData(200, 0, 1),
                                       MakeData(200, 50, 2)};
  auto env = EdgeEnvironment::Create(std::move(shards), SmallEnvOptions());
  ASSERT_TRUE(env.ok());
  auto space = env->GlobalDataSpace();
  ASSERT_TRUE(space.ok());
  EXPECT_LT(space->dim(0).lo, 10.0);
  EXPECT_GT(space->dim(0).hi, 50.0);
}

TEST(EdgeEnvironmentTest, CapacitiesCycle) {
  EnvironmentOptions options = SmallEnvOptions();
  options.capacities = {1.0, 2.0};
  std::vector<data::Dataset> shards = {MakeData(50, 0, 1), MakeData(50, 0, 2),
                                       MakeData(50, 0, 3)};
  auto env = EdgeEnvironment::Create(std::move(shards), options);
  ASSERT_TRUE(env.ok());
  EXPECT_DOUBLE_EQ(env->node(0).capacity(), 1.0);
  EXPECT_DOUBLE_EQ(env->node(1).capacity(), 2.0);
  EXPECT_DOUBLE_EQ(env->node(2).capacity(), 1.0);  // Cycled.
}

TEST(EdgeEnvironmentTest, Errors) {
  EXPECT_FALSE(EdgeEnvironment::Create({}, SmallEnvOptions()).ok());

  EnvironmentOptions bad_leader = SmallEnvOptions();
  bad_leader.leader_index = 5;
  EXPECT_FALSE(
      EdgeEnvironment::Create({MakeData(10, 0, 1)}, bad_leader).ok());

  EnvironmentOptions bad_cap = SmallEnvOptions();
  bad_cap.capacities = {0.0};
  EXPECT_FALSE(
      EdgeEnvironment::Create({MakeData(10, 0, 1)}, bad_cap).ok());

  std::vector<data::Dataset> with_empty = {MakeData(10, 0, 1),
                                           data::Dataset()};
  EXPECT_FALSE(
      EdgeEnvironment::Create(std::move(with_empty), SmallEnvOptions()).ok());
}

}  // namespace
}  // namespace qens::sim
