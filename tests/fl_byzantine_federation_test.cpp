// End-to-end tests of the Byzantine layer inside the federation: validator
// rejections reach the outcome counters, quarantine converts repeat
// offenders into skips, corruption injection is seed-deterministic, and a
// disabled layer leaves the fault-free path untouched.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "qens/fl/experiment.h"

namespace qens::fl {
namespace {

/// A small, fast federation: 4 stations, K = 2, short training.
ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.data.num_stations = 4;
  config.data.samples_per_station = 120;
  config.data.heterogeneity = data::Heterogeneity::kHeterogeneous;
  config.data.seed = 11;
  config.data.single_feature = true;
  config.federation.environment.kmeans.k = 2;
  config.federation.query_driven.top_l = 4;
  config.federation.hyper =
      ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  config.federation.hyper.epochs = 8;
  config.federation.epochs_per_cluster = 4;
  config.federation.test_fraction = 0.25;
  config.federation.seed = 12;
  config.workload.num_queries = 3;
  config.workload.min_width_frac = 0.4;
  config.workload.max_width_frac = 0.8;
  config.workload.seed = 13;
  return config;
}

/// Run every query of `config` once, accumulating the byzantine counters.
struct RunTotals {
  size_t rejected = 0;
  size_t quarantined = 0;
  double loss_sum = 0.0;
  size_t ran = 0;
};

RunTotals RunAll(const ExperimentConfig& config, size_t rounds) {
  auto runner = ExperimentRunner::Create(config);
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  RunTotals totals;
  for (const auto& q : runner->queries()) {
    auto outcome = runner->session().RunQueryMultiRound(
        q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true,
        rounds);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok() || outcome->skipped) continue;
    totals.rejected += outcome->rejected_updates;
    totals.quarantined += outcome->quarantined_skips;
    if (outcome->has_loss_robust) {
      totals.loss_sum += outcome->loss_robust;
    } else {
      totals.loss_sum += outcome->loss_fedavg;
    }
    ++totals.ran;
  }
  return totals;
}

ExperimentConfig AttackedConfig(sim::CorruptionKind kind,
                                size_t quarantine_rounds) {
  ExperimentConfig config = SmallConfig();
  auto& ft = config.federation.fault_tolerance;
  ft.enabled = true;
  ft.min_quorum_frac = 0.25;
  ft.faults.seed = 17;
  ft.faults.corruption_rate = 0.5;
  ft.faults.corruption_kinds = {kind};
  auto& byz = config.federation.byzantine;
  byz.enabled = true;
  byz.aggregator = AggregationKind::kCoordinateMedian;
  byz.quarantine_rounds = quarantine_rounds;
  byz.validator.check_finite = true;
  return config;
}

TEST(ByzantineFederationTest, NanUpdatesAreRejectedAndLossStaysFinite) {
  const RunTotals totals =
      RunAll(AttackedConfig(sim::CorruptionKind::kNanUpdate,
                            /*quarantine_rounds=*/0),
             /*rounds=*/2);
  ASSERT_GT(totals.ran, 0u);
  EXPECT_GT(totals.rejected, 0u);
  EXPECT_TRUE(std::isfinite(totals.loss_sum));
}

TEST(ByzantineFederationTest, QuarantineSkipsRepeatOffenders) {
  const RunTotals no_quarantine =
      RunAll(AttackedConfig(sim::CorruptionKind::kNanUpdate, 0),
             /*rounds=*/3);
  const RunTotals with_quarantine =
      RunAll(AttackedConfig(sim::CorruptionKind::kNanUpdate, 2),
             /*rounds=*/3);
  EXPECT_EQ(no_quarantine.quarantined, 0u);
  EXPECT_GT(with_quarantine.quarantined, 0u);
  // Every quarantined round is a screening the leader did not repeat.
  EXPECT_LT(with_quarantine.rejected, no_quarantine.rejected);
}

TEST(ByzantineFederationTest, CorruptionInjectionIsSeedDeterministic) {
  const ExperimentConfig config =
      AttackedConfig(sim::CorruptionKind::kSignFlip, /*quarantine_rounds=*/1);
  const RunTotals a = RunAll(config, /*rounds=*/2);
  const RunTotals b = RunAll(config, /*rounds=*/2);
  EXPECT_EQ(a.ran, b.ran);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_DOUBLE_EQ(a.loss_sum, b.loss_sum);
}

TEST(ByzantineFederationTest, DisabledLayerMatchesPlainRun) {
  // byzantine.enabled = false must leave the fault-free path bit-identical:
  // same losses, no rejections, no robust loss on the outcome.
  const ExperimentConfig plain = SmallConfig();
  ExperimentConfig with_struct = SmallConfig();
  with_struct.federation.byzantine.validator.norm_mad_k = 5.0;  // Unused.
  auto runner_a = ExperimentRunner::Create(plain);
  auto runner_b = ExperimentRunner::Create(with_struct);
  ASSERT_TRUE(runner_a.ok());
  ASSERT_TRUE(runner_b.ok());
  for (size_t i = 0; i < runner_a->queries().size(); ++i) {
    auto a = runner_a->session().RunQueryMultiRound(
        runner_a->queries()[i], selection::PolicyKind::kQueryDriven, true, 2);
    auto b = runner_b->session().RunQueryMultiRound(
        runner_b->queries()[i], selection::PolicyKind::kQueryDriven, true, 2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->skipped, b->skipped);
    if (a->skipped) continue;
    EXPECT_DOUBLE_EQ(a->loss_fedavg, b->loss_fedavg);
    EXPECT_DOUBLE_EQ(a->loss_weighted, b->loss_weighted);
    EXPECT_FALSE(a->has_loss_robust);
    EXPECT_FALSE(b->has_loss_robust);
    EXPECT_EQ(a->rejected_updates, 0u);
    EXPECT_EQ(b->rejected_updates, 0u);
  }
}

TEST(ByzantineFederationTest, CreateRejectsPredictionSpaceAggregator) {
  ExperimentConfig config = SmallConfig();
  config.federation.byzantine.enabled = true;
  config.federation.byzantine.aggregator = AggregationKind::kModelAveraging;
  EXPECT_FALSE(ExperimentRunner::Create(config).ok());
}

TEST(ByzantineFederationTest, CreateRejectsBadTrimBeta) {
  ExperimentConfig config = SmallConfig();
  config.federation.byzantine.enabled = true;
  config.federation.byzantine.aggregator = AggregationKind::kTrimmedMean;
  config.federation.byzantine.trim_beta = 0.6;
  EXPECT_FALSE(ExperimentRunner::Create(config).ok());
}

TEST(ByzantineFederationTest, CreateRejectsBadClipNorm) {
  // The clipping radius must be finite and positive: NaN and inf would
  // build a session whose first multi-round merge then fails.
  for (const double clip_norm :
       {0.0, -1.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
    ExperimentConfig config = SmallConfig();
    config.federation.byzantine.enabled = true;
    config.federation.byzantine.aggregator =
        AggregationKind::kNormClippedFedAvg;
    config.federation.byzantine.clip_norm = clip_norm;
    EXPECT_FALSE(ExperimentRunner::Create(config).ok())
        << "clip_norm " << clip_norm;
  }
}

}  // namespace
}  // namespace qens::fl
