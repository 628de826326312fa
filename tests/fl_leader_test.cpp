// Tests for the Leader decision front-end (rank + cut) and federation
// determinism (same seed -> identical outcomes).

#include <gtest/gtest.h>

#include "qens/common/rng.h"
#include "qens/fl/leader.h"
#include "qens/fl/query_session.h"

namespace qens::fl {
namespace {

selection::NodeProfile MakeProfile(size_t id, double lo, double hi) {
  selection::NodeProfile p;
  p.node_id = id;
  p.total_samples = 100;
  clustering::ClusterSummary c;
  c.centroid = {(lo + hi) / 2};
  c.bounds = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  c.size = 100;
  p.clusters.push_back(c);
  return p;
}

query::RangeQuery MakeQuery(double lo, double hi) {
  query::RangeQuery q;
  q.region = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

TEST(LeaderTest, DecideRanksAndCuts) {
  std::vector<selection::NodeProfile> profiles = {
      MakeProfile(0, 0, 10),    // Fully matches [0, 10].
      MakeProfile(1, 100, 110),  // Irrelevant.
      MakeProfile(2, 0, 40),    // Partial.
  };
  selection::RankingOptions ranking;
  ranking.epsilon = 0.1;
  selection::QueryDrivenOptions cut;
  cut.top_l = 2;
  Leader leader(profiles, ranking, cut);

  auto decision = leader.Decide(MakeQuery(0, 10));
  ASSERT_TRUE(decision.ok());
  ASSERT_EQ(decision->all_ranks.size(), 3u);
  // DESC order with node 0 first (full overlap).
  EXPECT_EQ(decision->all_ranks[0].node_id, 0u);
  ASSERT_EQ(decision->selected.size(), 2u);
  EXPECT_EQ(decision->SelectedNodeIds(),
            (std::vector<size_t>{0, 2}));
  const std::vector<double> weights = decision->SelectedRankings();
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_GT(weights[0], weights[1]);
}

TEST(LeaderTest, ThresholdCut) {
  std::vector<selection::NodeProfile> profiles = {
      MakeProfile(0, 0, 10), MakeProfile(1, 0, 100)};
  selection::RankingOptions ranking;
  ranking.epsilon = 0.05;
  selection::QueryDrivenOptions cut;
  cut.use_threshold = true;
  cut.psi = 0.9;
  Leader leader(profiles, ranking, cut);
  auto decision = leader.Decide(MakeQuery(0, 10));
  ASSERT_TRUE(decision.ok());
  // Only node 0 (h = 1) clears psi = 0.9; node 1 has h = 0.1.
  ASSERT_EQ(decision->selected.size(), 1u);
  EXPECT_EQ(decision->selected[0].node_id, 0u);
}

TEST(LeaderTest, AccessorsExposeConfiguration) {
  std::vector<selection::NodeProfile> profiles = {MakeProfile(0, 0, 1)};
  selection::RankingOptions ranking;
  ranking.epsilon = 0.42;
  selection::QueryDrivenOptions cut;
  cut.top_l = 7;
  Leader leader(profiles, ranking, cut);
  EXPECT_EQ(leader.profiles().size(), 1u);
  EXPECT_DOUBLE_EQ(leader.ranking_options().epsilon, 0.42);
  EXPECT_EQ(leader.selection_options().top_l, 7u);
}

data::Dataset MakeNodeData(double offset, uint64_t seed) {
  Rng rng(seed);
  Matrix x(150, 1), y(150, 1);
  for (size_t i = 0; i < 150; ++i) {
    x(i, 0) = offset + rng.Uniform(0, 10);
    y(i, 0) = 2.0 * x(i, 0) + rng.Gaussian(0, 0.2);
  }
  return data::Dataset::Create(x, y).value();
}

Result<QuerySession> MakeSession(uint64_t seed) {
  FederationOptions options;
  options.environment.kmeans.k = 3;
  options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  options.hyper.epochs = 10;
  options.epochs_per_cluster = 5;
  options.seed = seed;
  std::vector<data::Dataset> nodes = {MakeNodeData(0, 1), MakeNodeData(5, 2),
                                      MakeNodeData(10, 3)};
  QENS_ASSIGN_OR_RETURN(std::shared_ptr<Fleet> fleet,
                        Fleet::Create(std::move(nodes), options));
  return QuerySession::Create(std::move(fleet), QuerySessionOptions{});
}

TEST(FederationDeterminismTest, SameSeedSameOutcome) {
  auto fed1 = MakeSession(42);
  auto fed2 = MakeSession(42);
  ASSERT_TRUE(fed1.ok());
  ASSERT_TRUE(fed2.ok());
  query::RangeQuery q;
  q.id = 9;
  q.region = query::HyperRectangle::FromFlatBounds({2, 12}).value();
  auto o1 = fed1->RunQuery(
      q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true);
  auto o2 = fed2->RunQuery(
      q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  ASSERT_FALSE(o1->skipped);
  EXPECT_EQ(o1->selected_nodes, o2->selected_nodes);
  EXPECT_DOUBLE_EQ(o1->loss_model_avg, o2->loss_model_avg);
  EXPECT_DOUBLE_EQ(o1->loss_weighted, o2->loss_weighted);
  EXPECT_EQ(o1->samples_used, o2->samples_used);
}

TEST(FederationDeterminismTest, DifferentSeedsMayDiffer) {
  auto fed1 = MakeSession(1);
  auto fed2 = MakeSession(2);
  ASSERT_TRUE(fed1.ok());
  ASSERT_TRUE(fed2.ok());
  query::RangeQuery q;
  q.region = query::HyperRectangle::FromFlatBounds({2, 12}).value();
  auto o1 = fed1->RunQuery(
      q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true);
  auto o2 = fed2->RunQuery(
      q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  // Different splits/initializations: losses almost surely differ.
  EXPECT_NE(o1->loss_model_avg, o2->loss_model_avg);
}

TEST(FederationDeterminismTest, RandomPolicyStreamAdvances) {
  auto fed = MakeSession(7);
  ASSERT_TRUE(fed.ok());
  query::RangeQuery q;
  q.region = query::HyperRectangle::FromFlatBounds({0, 20}).value();
  // Two consecutive random-policy queries draw independent node subsets
  // (not necessarily different, but the stream must advance without error).
  auto o1 = fed->RunQuery(q, selection::PolicyKind::kRandom, false);
  auto o2 = fed->RunQuery(q, selection::PolicyKind::kRandom, false);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_FALSE(o1->skipped);
  EXPECT_FALSE(o2->skipped);
}

}  // namespace
}  // namespace qens::fl
