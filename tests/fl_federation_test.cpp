// Tests for a query session over a fleet: leader decisions, per-policy query
// execution, accounting, skip paths.

#include "qens/fl/query_session.h"

#include <gtest/gtest.h>

#include "qens/common/rng.h"

namespace qens::fl {
namespace {

/// Node with x in [offset, offset+10], y = slope x + noise.
data::Dataset MakeNodeData(double offset, double slope, uint64_t seed,
                           size_t n = 250) {
  Rng rng(seed);
  Matrix x(n, 1), y(n, 1);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = offset + rng.Uniform(0, 10);
    y(i, 0) = slope * x(i, 0) + rng.Gaussian(0, 0.2);
  }
  return data::Dataset::Create(x, y).value();
}

FederationOptions FastOptions() {
  FederationOptions options;
  options.environment.kmeans.k = 3;
  options.ranking.epsilon = 0.1;
  options.query_driven.top_l = 2;
  options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  options.hyper.epochs = 25;
  options.epochs_per_cluster = 10;
  options.random_l = 2;
  options.test_fraction = 0.2;
  options.seed = 42;
  return options;
}

/// Four nodes: two in x-region [0, 10] (slope 2), two in [50, 60] (slope 2).
std::vector<data::Dataset> MakeNodes() {
  return {MakeNodeData(0, 2.0, 1), MakeNodeData(0, 2.0, 2),
          MakeNodeData(50, 2.0, 3), MakeNodeData(50, 2.0, 4)};
}

Result<QuerySession> MakeSession(
    const FederationOptions& options = FastOptions()) {
  QENS_ASSIGN_OR_RETURN(std::shared_ptr<Fleet> fleet,
                        Fleet::Create(MakeNodes(), options));
  return QuerySession::Create(std::move(fleet), QuerySessionOptions{});
}

query::RangeQuery QueryOver(double lo, double hi) {
  query::RangeQuery q;
  q.id = 1;
  q.region = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

TEST(FederationTest, CreateSplitsTrainTest) {
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  // 250 rows per node, 20% test -> 200 train per node in the environment.
  EXPECT_EQ((*fleet)->environment.num_nodes(), 4u);
  EXPECT_EQ((*fleet)->environment.TotalSamples(), 4u * 200u);
}

TEST(FederationTest, QueryRegionTestDataPoolsAcrossNodes) {
  // Run without normalization so returned features are in raw units.
  FederationOptions options = FastOptions();
  options.normalize = false;
  auto fleet = Fleet::Create(MakeNodes(), options);
  ASSERT_TRUE(fleet.ok());
  auto test = (*fleet)->QueryRegionTestData(QueryOver(0, 10));
  ASSERT_TRUE(test.ok());
  EXPECT_GT(test->NumSamples(), 0u);
  // Everything pooled lies inside the region.
  for (size_t i = 0; i < test->NumSamples(); ++i) {
    EXPECT_GE(test->features()(i, 0), 0.0);
    EXPECT_LE(test->features()(i, 0), 10.0);
  }
  // A region with no data fails.
  EXPECT_TRUE((*fleet)->QueryRegionTestData(QueryOver(1000, 1010))
                  .status()
                  .IsNotFound());
}

TEST(FederationTest, NormalizedFederationHandlesRawQueries) {
  // With normalization on (the default), raw-unit queries still pool the
  // right rows and the internal query maps into the unit cube.
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  auto test = (*fleet)->QueryRegionTestData(QueryOver(0, 10));
  ASSERT_TRUE(test.ok());
  EXPECT_GT(test->NumSamples(), 0u);
  auto internal = (*fleet)->InternalQuery(QueryOver(0, 60));
  ASSERT_TRUE(internal.ok());
  EXPECT_GE(internal->region.dim(0).lo, -0.1);
  EXPECT_LE(internal->region.dim(0).hi, 1.1);
}

TEST(FederationTest, RawDataSpaceStaysInRawUnits) {
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  const auto& space = (*fleet)->raw_space;
  EXPECT_GT(space.dim(0).hi, 40.0);  // Covers the [50, 60] node region.
  EXPECT_LT(space.dim(0).lo, 10.0);
}

TEST(FederationTest, DenormalizeMseRoundTrips) {
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  // The raw target range is ~[0, 120]; a normalized MSE of 1 maps to
  // roughly range^2.
  const double raw = (*fleet)->DenormalizeMse(1.0);
  EXPECT_GT(raw, 100.0);
  EXPECT_DOUBLE_EQ((*fleet)->DenormalizeMse(0.0), 0.0);
}

TEST(FederationTest, QueryDrivenSelectsMatchingNodes) {
  auto fed = MakeSession();
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQuery(QueryOver(0, 10),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->skipped);
  // Only nodes 0/1 hold [0, 10] data.
  for (size_t id : outcome->selected_nodes) EXPECT_LT(id, 2u);
  EXPECT_FALSE(outcome->selected_rankings.empty());
  EXPECT_GT(outcome->test_rows, 0u);
  EXPECT_GT(outcome->samples_used, 0u);
  EXPECT_LE(outcome->samples_used, outcome->samples_selected);
  EXPECT_GT(outcome->sim_time_total, 0.0);
  EXPECT_GE(outcome->sim_time_total, outcome->sim_time_parallel);
  EXPECT_GT(outcome->sim_time_comm, 0.0);
}

TEST(FederationTest, QueryDrivenLossIsReasonable) {
  // The query covers the region of nodes 0 and 1. Training the selected
  // nodes on their supporting clusters must answer it at least as well as
  // the all-nodes baseline without selectivity (every node on all of its
  // data, the far nodes 2 and 3 included), up to the generator's noise
  // variance: near the noise floor the two tie. The absolute loss is no
  // check: the query spans 1/6 of the normalized range, so at lr 0.03 the
  // LR slope barely moves from its initial draw, and the loss depends on
  // that draw (>= 10 at about 70 % of federation seeds).
  auto fed = MakeSession();
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQuery(QueryOver(0, 10),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->skipped);
  auto baseline_fed = MakeSession();
  ASSERT_TRUE(baseline_fed.ok());
  auto baseline = baseline_fed->RunQuery(QueryOver(0, 10),
                                         selection::PolicyKind::kAllNodes,
                                         /*data_selectivity=*/false);
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline->skipped);
  constexpr double kNoiseVariance = 0.2 * 0.2;
  EXPECT_LE(outcome->loss_model_avg,
            baseline->loss_model_avg + kNoiseVariance);
  EXPECT_LE(outcome->loss_weighted, baseline->loss_weighted + kNoiseVariance);
}

TEST(FederationTest, AllNodesPolicyEngagesEveryone) {
  auto fed = MakeSession();
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQuery(QueryOver(0, 10),
                               selection::PolicyKind::kAllNodes,
                               /*data_selectivity=*/false);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->skipped);
  EXPECT_EQ(outcome->selected_nodes.size(), 4u);
  EXPECT_EQ(outcome->samples_used, fed->fleet().environment.TotalSamples());
  EXPECT_DOUBLE_EQ(outcome->DataFractionOfAll(), 1.0);
}

TEST(FederationTest, RandomPolicyRespectsL) {
  auto fed = MakeSession();
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQuery(QueryOver(0, 60),
                               selection::PolicyKind::kRandom,
                               /*data_selectivity=*/false);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->skipped);
  EXPECT_EQ(outcome->selected_nodes.size(), 2u);  // random_l = 2.
  EXPECT_TRUE(outcome->selected_rankings.empty());
}

TEST(FederationTest, GameTheoryPolicyRunsPreRound) {
  auto fed = MakeSession();
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQuery(QueryOver(0, 60),
                               selection::PolicyKind::kGameTheory,
                               /*data_selectivity=*/false);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->skipped);
  EXPECT_GT(outcome->gt_preround_seconds, 0.0);
  EXPECT_FALSE(outcome->selected_nodes.empty());
}

TEST(FederationTest, SelectivityUsesFewerSamplesThanFull) {
  auto fed = MakeSession();
  ASSERT_TRUE(fed.ok());
  // Narrow query inside node 0/1's space.
  auto selective = fed->RunQuery(QueryOver(2, 6),
                                 selection::PolicyKind::kQueryDriven,
                                 /*data_selectivity=*/true);
  auto full = fed->RunQuery(QueryOver(2, 6), selection::PolicyKind::kAllNodes,
                            /*data_selectivity=*/false);
  ASSERT_TRUE(selective.ok());
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(selective->skipped);
  ASSERT_FALSE(full->skipped);
  EXPECT_LT(selective->samples_used, full->samples_used);
  EXPECT_LT(selective->sim_time_total, full->sim_time_total);
}

TEST(FederationTest, SkipsQueryOutsideAllData) {
  auto fed = MakeSession();
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQuery(QueryOver(1000, 1010),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->skipped);
}

TEST(FederationTest, WeightedAggregationWeightsMatchRankings) {
  auto fed = MakeSession();
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQuery(QueryOver(0, 10),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->skipped);
  ASSERT_EQ(outcome->selected_rankings.size(),
            outcome->selected_nodes.size());
  for (double r : outcome->selected_rankings) EXPECT_GT(r, 0.0);
}

TEST(FederationTest, NetworkTrafficRecorded) {
  // Model traffic goes to the session's network; the environment network
  // keeps only the profile shipping of the fleet build.
  auto fed = MakeSession();
  ASSERT_TRUE(fed.ok());
  const sim::Network& env_net = fed->fleet().environment.network();
  const size_t profile_messages = env_net.total_messages();
  EXPECT_EQ(fed->network().total_messages(), 0u);
  ASSERT_TRUE(fed->RunQuery(QueryOver(0, 10),
                            selection::PolicyKind::kQueryDriven,
                            /*data_selectivity=*/true).ok());
  const sim::Network& net = fed->network();
  EXPECT_GT(net.total_messages(), 0u);
  EXPECT_GT(net.BytesWithTag("model-down"), 0u);
  EXPECT_GT(net.BytesWithTag("model-up"), 0u);
  EXPECT_EQ(net.BytesWithTag("profile"), 0u);
  EXPECT_EQ(env_net.total_messages(), profile_messages);
  EXPECT_EQ(env_net.BytesWithTag("model-down"), 0u);
}

TEST(FederationTest, CreateErrors) {
  EXPECT_FALSE(Fleet::Create({}, FastOptions()).ok());
  FederationOptions bad = FastOptions();
  bad.test_fraction = 0.0;
  EXPECT_FALSE(Fleet::Create({MakeNodeData(0, 1, 1)}, bad).ok());
  EXPECT_FALSE(QuerySession::Create(nullptr, QuerySessionOptions{}).ok());
}

}  // namespace
}  // namespace qens::fl
