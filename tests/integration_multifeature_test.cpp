// End-to-end tests in the multi-feature regime (d = 4: TEMP, PRES, DEWP,
// WSPM): multi-dimensional queries, Eq. 2 averaging over several
// dimensions, and the full federation pipeline at d > 1.

#include <gtest/gtest.h>

#include <cmath>

#include "qens/data/air_quality_generator.h"
#include "qens/fl/experiment.h"

namespace qens::fl {
namespace {

ExperimentConfig MultiFeatureConfig() {
  ExperimentConfig config;
  config.data.num_stations = 5;
  config.data.samples_per_station = 500;
  config.data.heterogeneity = data::Heterogeneity::kHeterogeneous;
  config.data.single_feature = false;  // All four features.
  config.data.seed = 23;

  config.federation.environment.kmeans.k = 5;
  config.federation.ranking.epsilon = 0.2;
  config.federation.query_driven.top_l = 3;
  config.federation.hyper =
      ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  config.federation.hyper.epochs = 15;
  config.federation.epochs_per_cluster = 6;
  config.federation.seed = 29;

  config.workload.num_queries = 6;
  config.workload.min_width_frac = 0.4;
  config.workload.max_width_frac = 0.8;
  config.workload.seed = 31;
  return config;
}

TEST(MultiFeatureTest, GeneratorEmitsFourFeatures) {
  data::AirQualityGenerator generator(MultiFeatureConfig().data);
  auto d = generator.GenerateStation(0);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->NumFeatures(), 4u);
}

TEST(MultiFeatureTest, WorkloadQueriesAreFourDimensional) {
  auto runner = ExperimentRunner::Create(MultiFeatureConfig());
  ASSERT_TRUE(runner.ok());
  for (const auto& q : runner->queries()) {
    EXPECT_EQ(q.dims(), 4u);
    EXPECT_TRUE(q.region.valid());
  }
}

TEST(MultiFeatureTest, QueryDrivenPipelineRuns) {
  auto runner = ExperimentRunner::Create(MultiFeatureConfig());
  ASSERT_TRUE(runner.ok());
  Mechanism ours{"Weighted", selection::PolicyKind::kQueryDriven, true,
                 AggregationKind::kWeightedAveraging};
  auto stats = runner->RunMechanism(ours);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->queries_run + stats->queries_skipped, 0u);
  // At least some multi-dimensional queries must be executable.
  EXPECT_GT(stats->queries_run, 0u);
  EXPECT_GE(stats->loss.mean(), 0.0);
  EXPECT_TRUE(std::isfinite(stats->loss.mean()));
}

TEST(MultiFeatureTest, RankingsAverageAcrossFourDimensions) {
  auto runner = ExperimentRunner::Create(MultiFeatureConfig());
  ASSERT_TRUE(runner.ok());
  // Per Eq. 2, every node ranking is bounded by K (each h_ik <= 1).
  const QuerySession& session = runner->session();
  for (const auto& q : runner->queries()) {
    auto internal = session.fleet().InternalQuery(q);
    ASSERT_TRUE(internal.ok());
    auto ranks = session.leader().Rank(*internal);
    ASSERT_TRUE(ranks.ok());
    for (const auto& r : *ranks) {
      EXPECT_GE(r.ranking, 0.0);
      EXPECT_LE(r.ranking, static_cast<double>(r.total_clusters));
    }
  }
}

TEST(MultiFeatureTest, BaselinesRunAtFourDimensions) {
  auto runner = ExperimentRunner::Create(MultiFeatureConfig());
  ASSERT_TRUE(runner.ok());
  for (selection::PolicyKind policy :
       {selection::PolicyKind::kRandom, selection::PolicyKind::kAllNodes}) {
    Mechanism m{selection::PolicyKindName(policy), policy, false,
                AggregationKind::kModelAveraging};
    auto stats = runner->RunMechanism(m);
    ASSERT_TRUE(stats.ok()) << selection::PolicyKindName(policy);
    EXPECT_GT(stats->queries_run, 0u);
  }
}

}  // namespace
}  // namespace qens::fl
