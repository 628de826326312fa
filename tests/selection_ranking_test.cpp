// Tests for node profiles and the Eq. 3/4 ranking math.

#include "qens/selection/ranking.h"

#include <gtest/gtest.h>

#include <vector>

#include "qens/common/rng.h"

namespace qens::selection {
namespace {

using query::HyperRectangle;
using query::RangeQuery;

/// A profile with explicitly placed 1-D cluster boxes.
NodeProfile MakeProfile(size_t id,
                        const std::vector<std::pair<double, double>>& boxes,
                        size_t cluster_size = 10) {
  NodeProfile p;
  p.node_id = id;
  p.name = "test-node";
  for (const auto& [lo, hi] : boxes) {
    clustering::ClusterSummary c;
    c.centroid = {(lo + hi) / 2};
    c.bounds = HyperRectangle::FromFlatBounds({lo, hi}).value();
    c.size = cluster_size;
    p.clusters.push_back(c);
    p.total_samples += cluster_size;
  }
  return p;
}

RangeQuery MakeQuery(double lo, double hi) {
  RangeQuery q;
  q.region = HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

TEST(RankNodeTest, FullySupportingNode) {
  // Two clusters both fully inside the query -> h = 1 each, K' = K = 2,
  // p = 2, r = 2 * (2/2) = 2.
  NodeProfile p = MakeProfile(0, {{1, 2}, {3, 4}});
  RankingOptions options;
  options.epsilon = 0.3;
  auto rank = RankNode(p, MakeQuery(0, 10), options);
  ASSERT_TRUE(rank.ok());
  EXPECT_EQ(rank->supporting_clusters, 2u);
  EXPECT_DOUBLE_EQ(rank->potential, 2.0);
  EXPECT_DOUBLE_EQ(rank->ranking, 2.0);
  EXPECT_EQ(rank->supporting_samples, 20u);
}

TEST(RankNodeTest, PartialSupportScalesRanking) {
  // One supporting cluster of two: r = p * (1/2).
  NodeProfile p = MakeProfile(1, {{1, 2}, {100, 200}});
  RankingOptions options;
  options.epsilon = 0.3;
  auto rank = RankNode(p, MakeQuery(0, 10), options);
  ASSERT_TRUE(rank.ok());
  EXPECT_EQ(rank->supporting_clusters, 1u);
  EXPECT_DOUBLE_EQ(rank->potential, 1.0);
  EXPECT_DOUBLE_EQ(rank->ranking, 0.5);
  EXPECT_EQ(rank->SupportingClusterIds(), (std::vector<size_t>{0}));
}

TEST(RankNodeTest, NoSupportYieldsZero) {
  NodeProfile p = MakeProfile(2, {{100, 200}, {300, 400}});
  RankingOptions options;
  auto rank = RankNode(p, MakeQuery(0, 10), options);
  ASSERT_TRUE(rank.ok());
  EXPECT_EQ(rank->supporting_clusters, 0u);
  EXPECT_DOUBLE_EQ(rank->ranking, 0.0);
  EXPECT_EQ(rank->supporting_samples, 0u);
}

TEST(RankNodeTest, EpsilonThresholdGates) {
  // Query [0,10] inside cluster [0,100]: h = 10/100 = 0.1.
  NodeProfile p = MakeProfile(3, {{0, 100}});
  RankingOptions strict;
  strict.epsilon = 0.2;
  auto r1 = RankNode(p, MakeQuery(0, 10), strict);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->supporting_clusters, 0u);

  RankingOptions loose;
  loose.epsilon = 0.05;
  auto r2 = RankNode(p, MakeQuery(0, 10), loose);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->supporting_clusters, 1u);
  EXPECT_DOUBLE_EQ(r2->potential, 0.1);
}

TEST(RankNodeTest, EmptyClustersNeverSupport) {
  NodeProfile p = MakeProfile(4, {{0, 10}});
  p.clusters[0].size = 0;  // Empty cluster (k > m quantization artifact).
  RankingOptions options;
  auto rank = RankNode(p, MakeQuery(0, 10), options);
  ASSERT_TRUE(rank.ok());
  EXPECT_EQ(rank->supporting_clusters, 0u);
}

TEST(RankNodeTest, Errors) {
  NodeProfile p = MakeProfile(5, {{0, 10}});
  RankingOptions bad;
  bad.epsilon = 0.0;
  EXPECT_FALSE(RankNode(p, MakeQuery(0, 1), bad).ok());

  NodeProfile empty;
  empty.node_id = 9;
  RankingOptions options;
  EXPECT_FALSE(RankNode(empty, MakeQuery(0, 1), options).ok());

  // Dimensional mismatch between query and cluster bounds.
  RangeQuery q2;
  q2.region = HyperRectangle::FromFlatBounds({0, 1, 0, 1}).value();
  EXPECT_FALSE(RankNode(p, q2, options).ok());

  // Negative penalty exponents.
  RankingOptions bad_reliability;
  bad_reliability.reliability_weight = -1.0;
  EXPECT_FALSE(RankNode(p, MakeQuery(0, 1), bad_reliability).ok());
  RankingOptions bad_staleness;
  bad_staleness.staleness_weight = -1.0;
  EXPECT_FALSE(RankNode(p, MakeQuery(0, 1), bad_staleness).ok());

  // An inverted interval and a zero-dimensional query region.
  RangeQuery inverted = MakeQuery(0, 1);
  inverted.region.dim(0) = query::Interval(2.0, 1.0);
  EXPECT_FALSE(RankNode(p, inverted, options).ok());
  RangeQuery zero_dim;
  EXPECT_FALSE(RankNode(p, zero_dim, options).ok());
}

TEST(RankNodesTest, SortsByRankingDescending) {
  std::vector<NodeProfile> profiles = {
      MakeProfile(0, {{100, 200}}),        // No support.
      MakeProfile(1, {{1, 2}, {3, 4}}),    // Full support (r = 2).
      MakeProfile(2, {{1, 2}, {50, 60}}),  // Half support (r = 0.5).
  };
  RankingOptions options;
  auto ranks = RankNodes(profiles, MakeQuery(0, 10), options);
  ASSERT_TRUE(ranks.ok());
  ASSERT_EQ(ranks->size(), 3u);
  EXPECT_EQ((*ranks)[0].node_id, 1u);
  EXPECT_EQ((*ranks)[1].node_id, 2u);
  EXPECT_EQ((*ranks)[2].node_id, 0u);
  EXPECT_GE((*ranks)[0].ranking, (*ranks)[1].ranking);
  EXPECT_GE((*ranks)[1].ranking, (*ranks)[2].ranking);
}

TEST(RankNodesTest, TiesBreakByNodeId) {
  std::vector<NodeProfile> profiles = {
      MakeProfile(7, {{1, 2}}),
      MakeProfile(3, {{1, 2}}),
  };
  RankingOptions options;
  auto ranks = RankNodes(profiles, MakeQuery(0, 10), options);
  ASSERT_TRUE(ranks.ok());
  EXPECT_EQ((*ranks)[0].node_id, 3u);
  EXPECT_EQ((*ranks)[1].node_id, 7u);
}

TEST(RankNodesTest, AllEmptyClusterFleetRanksZeroForAnyQueryDimension) {
  // Every cluster is empty, so Eq. 2 is never evaluated: even a query whose
  // dimension matches no cluster box ranks every node zero and succeeds.
  NodeProfile one;
  one.node_id = 1;
  one.clusters.resize(1);
  NodeProfile two;
  two.node_id = 0;
  two.clusters.resize(2);
  const std::vector<NodeProfile> profiles = {one, two};
  RankingOptions options;
  for (const std::vector<double>& flat :
       {std::vector<double>{0, 1}, std::vector<double>{0, 1, 0, 1, 0, 1}}) {
    RangeQuery q;
    q.region = HyperRectangle::FromFlatBounds(flat).value();
    auto ranks = RankNodes(profiles, q, options);
    ASSERT_TRUE(ranks.ok()) << ranks.status().ToString();
    ASSERT_EQ(ranks->size(), 2u);
    EXPECT_EQ((*ranks)[0].node_id, 0u);
    EXPECT_EQ((*ranks)[1].node_id, 1u);
    for (const NodeRank& rank : *ranks) {
      EXPECT_EQ(rank.ranking, 0.0);
      EXPECT_EQ(rank.potential, 0.0);
      EXPECT_EQ(rank.supporting_clusters, 0u);
      EXPECT_EQ(rank.supporting_samples, 0u);
      EXPECT_EQ(rank.cluster_scores.size(), rank.total_clusters);
      for (const ClusterScore& score : rank.cluster_scores) {
        EXPECT_EQ(score.overlap, 0.0);
        EXPECT_FALSE(score.supporting);
      }
    }
  }
}

TEST(RankNodesTest, DuplicateNodeIdsKeepProfileOrder) {
  // Equal (ranking, id) pairs are left in profile order by the stable sort;
  // the cluster sizes tell the two id-5 records apart.
  const std::vector<NodeProfile> profiles = {
      MakeProfile(5, {{0, 2}}, 4),
      MakeProfile(5, {{0, 2}}, 6),
      MakeProfile(2, {{10, 12}}, 3),
  };
  RankingOptions options;
  auto covered = RankNodes(profiles, MakeQuery(0, 2), options);
  ASSERT_TRUE(covered.ok());
  ASSERT_EQ(covered->size(), 3u);
  EXPECT_EQ((*covered)[0].node_id, 5u);
  EXPECT_EQ((*covered)[0].total_samples, 4u);
  EXPECT_EQ((*covered)[1].node_id, 5u);
  EXPECT_EQ((*covered)[1].total_samples, 6u);
  EXPECT_EQ((*covered)[2].node_id, 2u);

  // All zero: id 2 sorts first, and the id-5 pair keeps profile order.
  auto disjoint = RankNodes(profiles, MakeQuery(50, 51), options);
  ASSERT_TRUE(disjoint.ok());
  ASSERT_EQ(disjoint->size(), 3u);
  EXPECT_EQ((*disjoint)[0].node_id, 2u);
  EXPECT_EQ((*disjoint)[1].total_samples, 4u);
  EXPECT_EQ((*disjoint)[2].total_samples, 6u);
}

TEST(RankingPropertyTest, MoreOverlapNeverLowersRanking) {
  // Growing the query over a fixed profile never decreases K' and, with
  // full containment, the ranking reaches its maximum.
  NodeProfile p = MakeProfile(0, {{0, 10}, {20, 30}, {40, 50}});
  RankingOptions options;
  options.epsilon = 0.2;
  double prev_supporting = 0;
  for (double hi : {5.0, 15.0, 35.0, 55.0}) {
    auto rank = RankNode(p, MakeQuery(0, hi), options);
    ASSERT_TRUE(rank.ok());
    EXPECT_GE(rank->supporting_clusters + 0.0, prev_supporting);
    prev_supporting = static_cast<double>(rank->supporting_clusters);
  }
  auto full = RankNode(p, MakeQuery(-1, 100), options);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->supporting_clusters, 3u);
  EXPECT_DOUBLE_EQ(full->ranking, 3.0);
}

TEST(RankingPropertyTest, RankingBoundedByK) {
  // r_i = p_i * K'/K <= K (each h <= 1 so p <= K' <= K).
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<double, double>> boxes;
    const size_t k = 1 + rng.UniformInt(uint64_t{6});
    for (size_t i = 0; i < k; ++i) {
      const double lo = rng.Uniform(-50, 50);
      boxes.emplace_back(lo, lo + rng.Uniform(0.1, 30));
    }
    NodeProfile p = MakeProfile(0, boxes);
    const double qlo = rng.Uniform(-60, 60);
    RankingOptions options;
    options.epsilon = rng.Uniform(0.05, 0.9);
    auto rank = RankNode(p, MakeQuery(qlo, qlo + rng.Uniform(0.1, 50)),
                         options);
    ASSERT_TRUE(rank.ok());
    EXPECT_GE(rank->ranking, 0.0);
    EXPECT_LE(rank->ranking, static_cast<double>(k));
    EXPECT_LE(rank->potential,
              static_cast<double>(rank->supporting_clusters) + 1e-12);
  }
}

TEST(NodeProfileTest, WireBytesGrowWithClusters) {
  NodeProfile one = MakeProfile(0, {{0, 1}});
  NodeProfile five = MakeProfile(0, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  EXPECT_GT(five.WireBytes(), one.WireBytes());
}

}  // namespace
}  // namespace qens::selection
