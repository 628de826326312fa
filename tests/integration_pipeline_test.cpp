// End-to-end integration tests over the full pipeline (generator ->
// federation -> workload -> mechanisms), checking the *shapes* of the
// paper's headline results on small configurations:
//   - Table I regime: homogeneous nodes, all-node vs random near-tie;
//   - Table II regime: heterogeneous nodes, random >> matched selection;
//   - Fig. 8/9 regimes: query-driven uses less data and less time.

#include <gtest/gtest.h>

#include "qens/fl/experiment.h"

namespace qens::fl {
namespace {

ExperimentConfig SmallConfig(data::Heterogeneity heterogeneity) {
  ExperimentConfig config;
  config.data.num_stations = 5;
  config.data.samples_per_station = 400;
  config.data.heterogeneity = heterogeneity;
  config.data.seed = 7;
  config.data.single_feature = true;  // The paper's 1-feature setup.

  config.federation.environment.kmeans.k = 5;
  config.federation.ranking.epsilon = 0.15;
  config.federation.query_driven.top_l = 3;
  config.federation.hyper =
      ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  config.federation.hyper.epochs = 20;
  config.federation.epochs_per_cluster = 8;
  config.federation.random_l = 3;
  config.federation.seed = 11;

  config.workload.num_queries = 8;
  config.workload.min_width_frac = 0.3;
  config.workload.max_width_frac = 0.6;
  config.workload.seed = 13;
  return config;
}

TEST(IntegrationTest, RunnerBuildsAndGeneratesWorkload) {
  auto runner = ExperimentRunner::Create(
      SmallConfig(data::Heterogeneity::kHeterogeneous));
  ASSERT_TRUE(runner.ok());
  EXPECT_EQ(runner->queries().size(), 8u);
  EXPECT_EQ(runner->fleet()->environment.num_nodes(), 5u);
}

TEST(IntegrationTest, QueryDrivenMechanismCompletesWorkload) {
  auto runner = ExperimentRunner::Create(
      SmallConfig(data::Heterogeneity::kHeterogeneous));
  ASSERT_TRUE(runner.ok());
  Mechanism ours{"Weighted", selection::PolicyKind::kQueryDriven, true,
                 AggregationKind::kWeightedAveraging};
  auto stats = runner->RunMechanism(ours);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->queries_run, 0u);
  EXPECT_GE(stats->loss.mean(), 0.0);
}

TEST(IntegrationTest, TableOneShapeHomogeneousNearTie) {
  // Homogeneous nodes: random selection performs about as well as
  // engaging everyone (Table I: 24.45 vs 24.70 — a near-tie).
  auto runner =
      ExperimentRunner::Create(SmallConfig(data::Heterogeneity::kHomogeneous));
  ASSERT_TRUE(runner.ok());
  Mechanism all{"All", selection::PolicyKind::kAllNodes, false,
                AggregationKind::kModelAveraging};
  Mechanism random{"Random", selection::PolicyKind::kRandom, false,
                   AggregationKind::kModelAveraging};
  auto all_stats = runner->RunMechanism(all);
  auto random_stats = runner->RunMechanism(random);
  ASSERT_TRUE(all_stats.ok());
  ASSERT_TRUE(random_stats.ok());
  ASSERT_GT(all_stats->queries_run, 0u);
  // Near-tie: random is within 3x of all-node (in the paper the gap is 1%;
  // we allow slack for the tiny config).
  EXPECT_LT(random_stats->loss.mean(), 3.0 * all_stats->loss.mean() + 10.0);
}

TEST(IntegrationTest, TableTwoShapeHeterogeneousRandomBlowsUp) {
  // Heterogeneous nodes: random selection mixes sign-flipped sites and its
  // loss blows up relative to the query-driven mechanism (Table II: 178.10
  // vs 9.70 — random is an order of magnitude worse).
  auto runner = ExperimentRunner::Create(
      SmallConfig(data::Heterogeneity::kHeterogeneous));
  ASSERT_TRUE(runner.ok());
  Mechanism ours{"Weighted", selection::PolicyKind::kQueryDriven, true,
                 AggregationKind::kWeightedAveraging};
  Mechanism random{"Random", selection::PolicyKind::kRandom, false,
                   AggregationKind::kModelAveraging};
  auto ours_stats = runner->RunMechanism(ours);
  auto random_stats = runner->RunMechanism(random);
  ASSERT_TRUE(ours_stats.ok());
  ASSERT_TRUE(random_stats.ok());
  ASSERT_GT(ours_stats->queries_run, 0u);
  ASSERT_GT(random_stats->queries_run, 0u);
  EXPECT_LT(ours_stats->loss.mean(), random_stats->loss.mean());
}

TEST(IntegrationTest, Fig8ShapeQueryDrivenIsFaster) {
  auto runner = ExperimentRunner::Create(
      SmallConfig(data::Heterogeneity::kHeterogeneous));
  ASSERT_TRUE(runner.ok());
  Mechanism ours{"Averaging", selection::PolicyKind::kQueryDriven, true,
                 AggregationKind::kModelAveraging};
  Mechanism full{"All", selection::PolicyKind::kAllNodes, false,
                 AggregationKind::kModelAveraging};
  auto ours_records = runner->RunPerQuery(ours);
  auto full_records = runner->RunPerQuery(full);
  ASSERT_TRUE(ours_records.ok());
  ASSERT_TRUE(full_records.ok());
  double ours_time = 0, full_time = 0;
  size_t compared = 0;
  for (size_t i = 0; i < ours_records->size(); ++i) {
    if ((*ours_records)[i].skipped || (*full_records)[i].skipped) continue;
    ours_time += (*ours_records)[i].sim_time;
    full_time += (*full_records)[i].sim_time;
    ++compared;
  }
  ASSERT_GT(compared, 0u);
  EXPECT_LT(ours_time, full_time);
}

TEST(IntegrationTest, Fig9ShapeQueryDrivenUsesFractionOfData) {
  auto runner = ExperimentRunner::Create(
      SmallConfig(data::Heterogeneity::kHeterogeneous));
  ASSERT_TRUE(runner.ok());
  Mechanism ours{"Averaging", selection::PolicyKind::kQueryDriven, true,
                 AggregationKind::kModelAveraging};
  auto records = runner->RunPerQuery(ours);
  ASSERT_TRUE(records.ok());
  size_t executed = 0;
  for (const auto& r : *records) {
    if (r.skipped) continue;
    ++executed;
    EXPECT_GT(r.data_fraction_all, 0.0);
    EXPECT_LT(r.data_fraction_all, 1.0);  // Strictly less than everything.
  }
  EXPECT_GT(executed, 0u);
}

TEST(IntegrationTest, Figure7MechanismListMatchesPaper) {
  const std::vector<Mechanism> mechanisms = Figure7Mechanisms();
  ASSERT_EQ(mechanisms.size(), 4u);
  EXPECT_EQ(mechanisms[0].label, "GT");
  EXPECT_EQ(mechanisms[1].label, "Random");
  EXPECT_EQ(mechanisms[2].label, "Averaging");
  EXPECT_EQ(mechanisms[3].label, "Weighted");
  EXPECT_EQ(mechanisms[2].policy, selection::PolicyKind::kQueryDriven);
  EXPECT_TRUE(mechanisms[2].data_selectivity);
  EXPECT_EQ(mechanisms[3].aggregation, AggregationKind::kWeightedAveraging);
}

TEST(IntegrationTest, FormatMechanismTableContainsRows) {
  MechanismStats s;
  s.label = "TestMech";
  s.loss.Add(1.5);
  s.queries_run = 1;
  const std::string table = FormatMechanismTable({s});
  EXPECT_NE(table.find("TestMech"), std::string::npos);
  EXPECT_NE(table.find("avg loss"), std::string::npos);
}

TEST(IntegrationTest, PerQueryLimitRespected) {
  auto runner = ExperimentRunner::Create(
      SmallConfig(data::Heterogeneity::kHomogeneous));
  ASSERT_TRUE(runner.ok());
  Mechanism random{"Random", selection::PolicyKind::kRandom, false,
                   AggregationKind::kModelAveraging};
  auto records = runner->RunPerQuery(random, 3);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 3u);
}

}  // namespace
}  // namespace qens::fl
