// Tests for the federation extensions: multi-round FedAvg training,
// volatile-client dropout (fault injection), and the two extra selection
// policies wired through the federation.

#include <gtest/gtest.h>

#include "qens/common/rng.h"
#include "qens/common/thread_pool.h"
#include "qens/fl/query_session.h"

namespace qens::fl {
namespace {

data::Dataset MakeNodeData(double offset, double slope, uint64_t seed,
                           size_t n = 220) {
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
  options.hyper.epochs = 15;
  options.epochs_per_cluster = 6;
  options.random_l = 2;
  options.seed = 77;
  return options;
}

Result<QuerySession> MakeSession(FederationOptions options = FastOptions()) {
  std::vector<data::Dataset> nodes = {
      MakeNodeData(0, 2.0, 1), MakeNodeData(0, 2.0, 2),
      MakeNodeData(20, 2.0, 3), MakeNodeData(20, 2.0, 4)};
  QENS_ASSIGN_OR_RETURN(std::shared_ptr<Fleet> fleet,
                        Fleet::Create(std::move(nodes), options));
  return QuerySession::Create(std::move(fleet), QuerySessionOptions{});
}

query::RangeQuery QueryOver(double lo, double hi) {
  query::RangeQuery q;
  q.id = 3;
  q.region = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

TEST(MultiRoundTest, RunsRequestedRounds) {
  auto fed = MakeSession();
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQueryMultiRound(
      QueryOver(0, 10), selection::PolicyKind::kQueryDriven,
      /*data_selectivity=*/true, /*rounds=*/3);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->skipped);
  EXPECT_EQ(outcome->rounds, 3u);
}

TEST(MultiRoundTest, MoreRoundsMoreSimTimeSameDataFootprint) {
  auto fed1 = MakeSession();
  auto fed3 = MakeSession();
  ASSERT_TRUE(fed1.ok());
  ASSERT_TRUE(fed3.ok());
  auto one = fed1->RunQueryMultiRound(QueryOver(0, 10),
                                      selection::PolicyKind::kQueryDriven,
                                      true, 1);
  auto three = fed3->RunQueryMultiRound(QueryOver(0, 10),
                                        selection::PolicyKind::kQueryDriven,
                                        true, 3);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(three.ok());
  ASSERT_FALSE(one->skipped);
  ASSERT_FALSE(three->skipped);
  EXPECT_GT(three->sim_time_total, 2.5 * one->sim_time_total);
  // samples_used counts DISTINCT rows touched, not rows x rounds.
  EXPECT_EQ(three->samples_used, one->samples_used);
}

TEST(MultiRoundTest, ZeroRoundsRejected) {
  auto fed = MakeSession();
  ASSERT_TRUE(fed.ok());
  EXPECT_FALSE(fed->RunQueryMultiRound(QueryOver(0, 10),
                                       selection::PolicyKind::kQueryDriven,
                                       true, 0)
                   .ok());
}

TEST(MultiRoundTest, MultiRoundLossStaysReasonable) {
  // Three FedAvg rounds over the selected nodes' supporting clusters must
  // answer the query at least as well as three rounds over every node's
  // whole data (the all-nodes baseline without selectivity), up to the
  // generator's noise variance: near the noise floor the two tie. The
  // absolute loss is no check: short local fits on a region 1/3 of the
  // normalized range leave the LR slope near its initial draw.
  auto fed = MakeSession();
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQueryMultiRound(
      QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 3);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->skipped);
  auto baseline_fed = MakeSession();
  ASSERT_TRUE(baseline_fed.ok());
  auto baseline = baseline_fed->RunQueryMultiRound(
      QueryOver(0, 10), selection::PolicyKind::kAllNodes, false, 3);
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline->skipped);
  constexpr double kNoiseVariance = 0.2 * 0.2;
  EXPECT_LE(outcome->loss_weighted, baseline->loss_weighted + kNoiseVariance);
}

TEST(DropoutTest, FullDropoutSkipsQuery) {
  FederationOptions options = FastOptions();
  options.dropout_rate = 1.0;
  auto fed = MakeSession(options);
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQuery(QueryOver(0, 10),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->skipped);
  EXPECT_FALSE(outcome->dropped_nodes.empty());
}

TEST(DropoutTest, ZeroDropoutDropsNobody) {
  auto fed = MakeSession();
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQuery(QueryOver(0, 10),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->dropped_nodes.empty());
}

TEST(DropoutTest, PartialDropoutDegradesGracefully) {
  FederationOptions options = FastOptions();
  options.dropout_rate = 0.5;
  options.query_driven.top_l = 4;
  auto fed = MakeSession(options);
  ASSERT_TRUE(fed.ok());
  // Over several queries some must survive and produce results.
  size_t executed = 0, any_dropped = 0;
  for (int i = 0; i < 12; ++i) {
    auto outcome = fed->RunQuery(QueryOver(0, 30),
                                 selection::PolicyKind::kQueryDriven,
                                 /*data_selectivity=*/true);
    ASSERT_TRUE(outcome.ok());
    if (!outcome->skipped) ++executed;
    if (!outcome->dropped_nodes.empty()) ++any_dropped;
  }
  EXPECT_GT(executed, 0u);
  EXPECT_GT(any_dropped, 0u);
}

TEST(DropoutTest, InvalidRateRejected) {
  FederationOptions options = FastOptions();
  options.dropout_rate = 1.5;
  auto fed = MakeSession(options);
  ASSERT_TRUE(fed.ok());
  EXPECT_FALSE(fed->RunQuery(QueryOver(0, 10),
                             selection::PolicyKind::kQueryDriven,
                             /*data_selectivity=*/true).ok());
}

TEST(PolicyExtensionTest, DataCentricPolicyRuns) {
  FederationOptions options = FastOptions();
  options.data_centric.top_l = 2;
  auto fed = MakeSession(options);
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQuery(QueryOver(0, 30),
                               selection::PolicyKind::kDataCentric,
                               /*data_selectivity=*/false);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->skipped);
  EXPECT_EQ(outcome->selected_nodes.size(), 2u);
}

TEST(PolicyExtensionTest, DataCentricIsQueryAgnostic) {
  FederationOptions options = FastOptions();
  options.data_centric.top_l = 2;
  auto fed = MakeSession(options);
  ASSERT_TRUE(fed.ok());
  auto a = fed->RunQuery(QueryOver(0, 10),
                         selection::PolicyKind::kDataCentric, false);
  auto b = fed->RunQuery(QueryOver(20, 30),
                         selection::PolicyKind::kDataCentric, false);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(a->skipped);
  ASSERT_FALSE(b->skipped);
  EXPECT_EQ(a->selected_nodes, b->selected_nodes);
}

TEST(PolicyExtensionTest, StochasticPolicyTracksParticipation) {
  FederationOptions options = FastOptions();
  options.stochastic.draw_l = 2;
  options.stochastic.alpha = 0.5;
  auto fed = MakeSession(options);
  ASSERT_TRUE(fed.ok());
  for (int i = 0; i < 6; ++i) {
    auto outcome = fed->RunQuery(QueryOver(0, 30),
                                 selection::PolicyKind::kStochastic,
                                 /*data_selectivity=*/false);
    ASSERT_TRUE(outcome.ok());
    ASSERT_FALSE(outcome->skipped);
    EXPECT_EQ(outcome->selected_nodes.size(), 2u);
  }
  size_t total = 0;
  for (size_t c : fed->StochasticParticipation()) total += c;
  EXPECT_EQ(total, 12u);
}

TEST(ParallelTrainingTest, MatchesSequentialBitExact) {
  FederationOptions seq_options = FastOptions();
  FederationOptions par_options = FastOptions();
  par_options.max_parallel_nodes = common::ThreadPool::DefaultThreadCount();
  auto seq = MakeSession(seq_options);
  auto par = MakeSession(par_options);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  auto o_seq = seq->RunQuery(QueryOver(0, 30),
                             selection::PolicyKind::kQueryDriven,
                             /*data_selectivity=*/true);
  auto o_par = par->RunQuery(QueryOver(0, 30),
                             selection::PolicyKind::kQueryDriven,
                             /*data_selectivity=*/true);
  ASSERT_TRUE(o_seq.ok());
  ASSERT_TRUE(o_par.ok());
  ASSERT_FALSE(o_seq->skipped);
  ASSERT_FALSE(o_par->skipped);
  EXPECT_EQ(o_seq->selected_nodes, o_par->selected_nodes);
  EXPECT_DOUBLE_EQ(o_seq->loss_model_avg, o_par->loss_model_avg);
  EXPECT_DOUBLE_EQ(o_seq->loss_weighted, o_par->loss_weighted);
  EXPECT_EQ(o_seq->samples_used, o_par->samples_used);
  EXPECT_DOUBLE_EQ(o_seq->sim_time_total, o_par->sim_time_total);
}

TEST(ParallelTrainingTest, WorksWithAllNodesPolicy) {
  FederationOptions options = FastOptions();
  options.max_parallel_nodes = common::ThreadPool::DefaultThreadCount();
  auto fed = MakeSession(options);
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQuery(QueryOver(0, 30),
                               selection::PolicyKind::kAllNodes, false);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->skipped);
  EXPECT_EQ(outcome->selected_nodes.size(), 4u);
}

TEST(PolicyExtensionTest, PolicyNamesIncludeExtensions) {
  EXPECT_STREQ(selection::PolicyKindName(selection::PolicyKind::kDataCentric),
               "data-centric");
  EXPECT_STREQ(selection::PolicyKindName(selection::PolicyKind::kStochastic),
               "stochastic");
  EXPECT_EQ(
      selection::ParsePolicyKind("fair").value(),
      selection::PolicyKind::kStochastic);
}

}  // namespace
}  // namespace qens::fl
