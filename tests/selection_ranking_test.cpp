// Tests for node profiles and the Eq. 3/4 ranking math, and the flat scan's
// differential test: RankNodes, Leader::Rank and Leader::Decide against the
// per-node RankNode loop the scan replaced, kept below as a reference.

#include "qens/selection/ranking.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "qens/common/rng.h"
#include "qens/fl/leader.h"

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

// ---------------------------------------------------------------------------
// Flat-scan differential test.

/// The per-node Eq. 2–4 loop the flat scan replaced: per cluster through
/// ComputeOverlapRate, options validated per node.
Result<NodeRank> ReferenceRankNode(const NodeProfile& profile,
                                   const RangeQuery& query,
                                   const RankingOptions& options) {
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("RankNode: epsilon must be > 0");
  }
  if (options.reliability_weight < 0.0) {
    return Status::InvalidArgument(
        "RankNode: reliability_weight must be >= 0");
  }
  if (options.staleness_weight < 0.0) {
    return Status::InvalidArgument(
        "RankNode: staleness_weight must be >= 0");
  }
  if (profile.clusters.empty()) {
    return Status::InvalidArgument("RankNode: node has no clusters");
  }
  NodeRank rank;
  rank.node_id = profile.node_id;
  rank.total_clusters = profile.clusters.size();
  rank.total_samples = profile.total_samples;
  for (size_t k = 0; k < profile.clusters.size(); ++k) {
    const auto& cluster = profile.clusters[k];
    ClusterScore score;
    score.cluster_id = k;
    if (cluster.size != 0) {
      QENS_ASSIGN_OR_RETURN(
          score.overlap,
          query::ComputeOverlapRate(query.region, cluster.bounds,
                                    options.overlap_mode));
      score.supporting = score.overlap >= options.epsilon;
    }
    if (score.supporting) {
      rank.potential += score.overlap;
      ++rank.supporting_clusters;
      rank.supporting_samples += cluster.size;
    }
    rank.cluster_scores.push_back(score);
  }
  rank.ranking = rank.potential *
                 static_cast<double>(rank.supporting_clusters) /
                 static_cast<double>(rank.total_clusters);
  rank.reliability = profile.reliability.SuccessRate();
  if (options.reliability_weight > 0.0) {
    rank.ranking *= std::pow(rank.reliability, options.reliability_weight);
  }
  rank.stale_rounds = profile.stale_rounds;
  if (options.staleness_weight > 0.0) {
    rank.ranking *=
        std::pow(1.0 / (1.0 + static_cast<double>(rank.stale_rounds)),
                 options.staleness_weight);
  }
  return rank;
}

Result<std::vector<NodeRank>> ReferenceRankNodes(
    const std::vector<NodeProfile>& profiles, const RangeQuery& query,
    const RankingOptions& options) {
  std::vector<NodeRank> ranks;
  for (const auto& profile : profiles) {
    QENS_ASSIGN_OR_RETURN(NodeRank r,
                          ReferenceRankNode(profile, query, options));
    ranks.push_back(std::move(r));
  }
  std::stable_sort(ranks.begin(), ranks.end(),
                   [](const NodeRank& a, const NodeRank& b) {
                     if (a.ranking != b.ranking) return a.ranking > b.ranking;
                     return a.node_id < b.node_id;
                   });
  return ranks;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Bit-for-bit equality of two ranking records; with `with_clusters`, of
/// every cluster score too (and so of the supporting ids).
void ExpectSameRank(const NodeRank& want, const NodeRank& got,
                    bool with_clusters) {
  EXPECT_EQ(got.node_id, want.node_id);
  EXPECT_EQ(Bits(got.ranking), Bits(want.ranking)) << got.node_id;
  EXPECT_EQ(Bits(got.potential), Bits(want.potential)) << got.node_id;
  EXPECT_EQ(got.supporting_clusters, want.supporting_clusters);
  EXPECT_EQ(got.total_clusters, want.total_clusters);
  EXPECT_EQ(Bits(got.reliability), Bits(want.reliability));
  EXPECT_EQ(got.stale_rounds, want.stale_rounds);
  EXPECT_EQ(got.supporting_samples, want.supporting_samples);
  EXPECT_EQ(got.total_samples, want.total_samples);
  if (!with_clusters) {
    EXPECT_TRUE(got.cluster_scores.empty());
    return;
  }
  EXPECT_EQ(got.SupportingClusterIds(), want.SupportingClusterIds());
  ASSERT_EQ(got.cluster_scores.size(), want.cluster_scores.size());
  for (size_t k = 0; k < want.cluster_scores.size(); ++k) {
    EXPECT_EQ(got.cluster_scores[k].cluster_id,
              want.cluster_scores[k].cluster_id);
    EXPECT_EQ(Bits(got.cluster_scores[k].overlap),
              Bits(want.cluster_scores[k].overlap));
    EXPECT_EQ(got.cluster_scores[k].supporting,
              want.cluster_scores[k].supporting);
  }
}

void ExpectSameRanks(const std::vector<NodeRank>& want,
                     const std::vector<NodeRank>& got, bool with_clusters) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectSameRank(want[i], got[i], with_clusters);
  }
}

/// A box on a coarse grid, so that point intervals, shared endpoints and
/// equal boxes (hence tied rankings) are common.
HyperRectangle GridBox(Rng* rng, size_t dims) {
  std::vector<query::Interval> intervals(dims);
  for (size_t d = 0; d < dims; ++d) {
    const double lo = static_cast<double>(rng->UniformInt(uint64_t{9}));
    intervals[d] = query::Interval(
        lo, lo + static_cast<double>(rng->UniformInt(uint64_t{5})));
  }
  return HyperRectangle(std::move(intervals));
}

/// N nodes of K clusters each: about one cluster in six empty, every fifth
/// node a copy of an earlier one under its own id (an exact tie), random
/// reliability histories and staleness.
std::vector<NodeProfile> RandomFleet(Rng* rng, size_t nodes, size_t k,
                                     size_t dims) {
  std::vector<NodeProfile> fleet;
  for (size_t i = 0; i < nodes; ++i) {
    if (i % 5 == 4) {
      NodeProfile twin = fleet[rng->UniformInt(uint64_t{i})];
      twin.node_id = i;
      fleet.push_back(std::move(twin));
      continue;
    }
    NodeProfile p;
    p.node_id = i;
    for (size_t c = 0; c < k; ++c) {
      clustering::ClusterSummary cluster;
      cluster.bounds = GridBox(rng, dims);
      cluster.size =
          rng->UniformInt(uint64_t{6}) == 0 ? 0 : 1 + rng->UniformInt(uint64_t{40});
      p.total_samples += cluster.size;
      p.clusters.push_back(std::move(cluster));
    }
    p.reliability.rounds_engaged = rng->UniformInt(uint64_t{4});
    p.reliability.rounds_completed =
        rng->UniformInt(p.reliability.rounds_engaged + 1);
    p.stale_rounds = rng->UniformInt(uint64_t{3});
    fleet.push_back(std::move(p));
  }
  return fleet;
}

/// RankNodes, Leader::Rank and Leader::Decide against the reference, on
/// one fleet and query.
void ExpectScanMatchesReference(const std::vector<NodeProfile>& fleet,
                                const RangeQuery& query,
                                const RankingOptions& options, size_t top_l) {
  const auto want = ReferenceRankNodes(fleet, query, options);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  const auto ranked = RankNodes(fleet, query, options);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  ExpectSameRanks(*want, *ranked, /*with_clusters=*/true);

  QueryDrivenOptions cut;
  cut.top_l = top_l;
  fl::Leader leader(fleet, options, cut);
  const auto leader_ranked = leader.Rank(query);
  ASSERT_TRUE(leader_ranked.ok());
  ExpectSameRanks(*want, *leader_ranked, /*with_clusters=*/true);

  const auto want_selected = SelectQueryDriven(*want, cut);
  ASSERT_TRUE(want_selected.ok());
  // Twice: the second Decide reuses the leader's scan buffers.
  for (int pass = 0; pass < 2; ++pass) {
    const auto decision = leader.Decide(query);
    ASSERT_TRUE(decision.ok()) << decision.status().ToString();
    ExpectSameRanks(*want, decision->all_ranks, /*with_clusters=*/false);
    ExpectSameRanks(*want_selected, decision->selected,
                    /*with_clusters=*/true);
  }
}

TEST(FlatScanTest, MatchesPerNodeReferenceBitForBit) {
  Rng rng(2027);
  size_t cases = 0;
  size_t ties = 0;
  for (size_t dims : {1, 2, 5}) {
    for (size_t k : {1, 5, 16}) {
      for (query::OverlapMode mode :
           {query::OverlapMode::kFaithful,
            query::OverlapMode::kNormalizedIntersection}) {
        for (int trial = 0; trial < 6; ++trial) {
          const std::vector<NodeProfile> fleet =
              RandomFleet(&rng, 12, k, dims);
          RangeQuery query;
          query.id = static_cast<uint64_t>(trial);
          query.region = GridBox(&rng, dims);
          RankingOptions options;
          options.overlap_mode = mode;
          options.epsilon = 0.05 + 0.2 * static_cast<double>(trial % 3);
          if (trial % 2 == 1) {
            options.reliability_weight = 0.5 * static_cast<double>(trial);
            options.staleness_weight = 0.25 * static_cast<double>(trial);
          }
          SCOPED_TRACE(testing::Message() << "d=" << dims << " K=" << k
                                          << " mode=" << OverlapModeName(mode)
                                          << " trial=" << trial);
          ExpectScanMatchesReference(fleet, query, options, 1 + trial % 4);
          const auto ranks = ReferenceRankNodes(fleet, query, options);
          for (size_t i = 1; i < ranks->size(); ++i) {
            ties += (*ranks)[i].ranking == (*ranks)[i - 1].ranking ? 1 : 0;
          }
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 108u);
  EXPECT_GT(ties, 100u);  // Tied rankings are exercised, not just possible.
}

TEST(FlatScanTest, BadInputFailsWithTheReferenceCode) {
  Rng rng(11);
  const std::vector<NodeProfile> fleet = RandomFleet(&rng, 6, 3, 2);
  RangeQuery good;
  good.region = GridBox(&rng, 2);

  struct Case {
    const char* name;
    std::vector<NodeProfile> profiles;
    RangeQuery query;
    RankingOptions options;
    bool ok = false;
  };
  std::vector<Case> cases;
  auto add = [&](const char* name) -> Case& {
    cases.push_back({name, fleet, good, RankingOptions{}, false});
    return cases.back();
  };
  add("epsilon zero").options.epsilon = 0.0;
  add("epsilon negative").options.epsilon = -0.5;
  add("reliability weight negative").options.reliability_weight = -1.0;
  add("staleness weight negative").options.staleness_weight = -1.0;
  add("query of another dimension").query.region = GridBox(&rng, 3);
  add("zero-dimensional query").query.region = HyperRectangle();
  add("inverted query").query.region.dim(1) = query::Interval(4, 1);
  add("inverted cluster box").profiles[3].clusters[1].bounds.dim(0) =
      query::Interval(7, 2);
  {
    Case& c = add("cluster box of another dimension");
    c.profiles[2].clusters[2].bounds = GridBox(&rng, 1);
  }
  add("node with no clusters").profiles[4].clusters.clear();
  {
    // Empty clusters are never scored, so their boxes never fail.
    Case& c = add("empty cluster with an inverted box");
    c.profiles[1].clusters[0].size = 0;
    c.profiles[1].clusters[0].bounds.dim(0) = query::Interval(9, 0);
    c.ok = true;
  }
  {
    Case& c = add("no profiles");
    c.profiles.clear();
    c.ok = true;
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto want = ReferenceRankNodes(c.profiles, c.query, c.options);
    const auto ranked = RankNodes(c.profiles, c.query, c.options);
    fl::Leader leader(c.profiles, c.options, QueryDrivenOptions{});
    const auto leader_ranked = leader.Rank(c.query);
    const auto decision = leader.Decide(c.query);
    ASSERT_EQ(want.ok(), c.ok) << want.status().ToString();
    EXPECT_EQ(ranked.status().code(), want.status().code());
    EXPECT_EQ(leader_ranked.status().code(), want.status().code());
    EXPECT_EQ(decision.status().code(), want.status().code());
    if (want.ok()) {
      ExpectSameRanks(*want, *ranked, /*with_clusters=*/true);
    } else {
      EXPECT_EQ(want.status().code(), StatusCode::kInvalidArgument);
    }
    if (!c.profiles.empty()) {
      const auto one = RankNode(c.profiles.back(), c.query, c.options);
      const auto want_one =
          ReferenceRankNode(c.profiles.back(), c.query, c.options);
      EXPECT_EQ(one.status().code(), want_one.status().code());
    }
  }
}

TEST(FlatScanTest, PublishedRefreshRanksOnTheNewBoxes) {
  Rng rng(404);
  std::vector<NodeProfile> fleet = RandomFleet(&rng, 10, 5, 2);
  RankingOptions options;
  options.epsilon = 0.1;
  options.staleness_weight = 1.0;
  fl::Leader leader(fleet, options, QueryDrivenOptions{});
  leader.SetStaleRounds(7, 2);
  fleet[7].stale_rounds = 2;
  RangeQuery query;
  query.region = GridBox(&rng, 2);
  ASSERT_TRUE(leader.Decide(query).ok());  // Warm the scan buffers.

  // Node 3 publishes a different number of clusters, node 6 new boxes.
  NodeProfile fresh3 = RandomFleet(&rng, 1, 7, 2)[0];
  fresh3.node_id = 3;
  NodeProfile fresh6 = RandomFleet(&rng, 1, 5, 2)[0];
  fresh6.node_id = 6;
  for (const NodeProfile* fresh : {&fresh3, &fresh6}) {
    ASSERT_TRUE(leader.PublishRefreshedProfile(*fresh).ok());
    NodeProfile& stored = fleet[fresh->node_id];
    stored.clusters = fresh->clusters;
    stored.total_samples = fresh->total_samples;
    stored.stale_rounds = 0;
  }
  for (int trial = 0; trial < 10; ++trial) {
    query.region = GridBox(&rng, 2);
    const auto want = ReferenceRankNodes(fleet, query, options);
    ASSERT_TRUE(want.ok());
    const auto ranked = leader.Rank(query);
    ASSERT_TRUE(ranked.ok());
    ExpectSameRanks(*want, *ranked, /*with_clusters=*/true);
    const auto decision = leader.Decide(query);
    ASSERT_TRUE(decision.ok());
    ExpectSameRanks(*want, decision->all_ranks, /*with_clusters=*/false);
  }
}

TEST(NodeProfileTest, WireBytesGrowWithClusters) {
  NodeProfile one = MakeProfile(0, {{0, 1}});
  NodeProfile five = MakeProfile(0, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  EXPECT_GT(five.WireBytes(), one.WireBytes());
}

}  // namespace
}  // namespace qens::selection
