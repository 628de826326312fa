// Tests for partial-participation aggregation (fault tolerance): survivor
// weight renormalization, quorum edge cases (all fail / exactly-quorum /
// one straggler), and the federation-level deadline/quorum/degradation
// behavior.

#include <gtest/gtest.h>

#include "qens/common/rng.h"
#include "qens/fl/aggregation.h"
#include "qens/fl/query_session.h"

namespace qens::fl {
namespace {

// ----- PartialWeights -----

TEST(PartialWeightsTest, RenormalizesOverSurvivors) {
  auto w = PartialWeights({1.0, 2.0, 3.0, 4.0}, {true, false, true, false});
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ((*w)[0], 0.25);
  EXPECT_DOUBLE_EQ((*w)[1], 0.0);
  EXPECT_DOUBLE_EQ((*w)[2], 0.75);
  EXPECT_DOUBLE_EQ((*w)[3], 0.0);
}

TEST(PartialWeightsTest, SurvivorMassSumsToOne) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.UniformInt(8);
    std::vector<double> weights(n);
    std::vector<bool> alive(n);
    bool any = false;
    for (size_t i = 0; i < n; ++i) {
      weights[i] = rng.Uniform(0, 10);
      alive[i] = rng.Bernoulli(0.6);
      any = any || alive[i];
    }
    if (!any) alive[rng.UniformInt(n)] = true;
    auto w = PartialWeights(weights, alive);
    ASSERT_TRUE(w.ok());
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (!alive[i]) {
        EXPECT_DOUBLE_EQ((*w)[i], 0.0);
      }
      sum += (*w)[i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(PartialWeightsTest, ZeroMassFallsBackToEqualWeights) {
  auto w = PartialWeights({0.0, 0.0, 0.0}, {true, false, true});
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ((*w)[0], 0.5);
  EXPECT_DOUBLE_EQ((*w)[1], 0.0);
  EXPECT_DOUBLE_EQ((*w)[2], 0.5);
}

TEST(PartialWeightsTest, DenormalMassFallsBackToEqualWeights) {
  // A surviving mass below the smallest normal double (here a denormal)
  // must take the equal-weight fallback, not divide through and return
  // weights that fail to sum to 1 (or overflow to inf).
  auto w = PartialWeights({1e-320, 0.0, 0.0}, {true, true, false});
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ((*w)[0], 0.5);
  EXPECT_DOUBLE_EQ((*w)[1], 0.5);
  EXPECT_DOUBLE_EQ((*w)[2], 0.0);
}

TEST(PartialWeightsTest, AllAliveKeepsProportions) {
  auto w = PartialWeights({1.0, 3.0}, {true, true});
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ((*w)[0], 0.25);
  EXPECT_DOUBLE_EQ((*w)[1], 0.75);
}

TEST(PartialWeightsTest, Errors) {
  EXPECT_FALSE(PartialWeights({1.0, 1.0}, {false, false}).ok());  // Nobody.
  EXPECT_FALSE(PartialWeights({1.0}, {true, true}).ok());     // Size mismatch.
  EXPECT_FALSE(PartialWeights({-1.0, 1.0}, {true, true}).ok());  // Negative.
  EXPECT_FALSE(PartialWeights({}, {}).ok());                     // Empty.
}

// ----- MeetsQuorum -----

TEST(MeetsQuorumTest, AllNodesFailing) {
  EXPECT_FALSE(MeetsQuorum(0, 4, 0.5));
  // Even a zero quorum needs at least one survivor to aggregate anything.
  EXPECT_FALSE(MeetsQuorum(0, 4, 0.0));
}

TEST(MeetsQuorumTest, ExactlyAtQuorum) {
  // ceil(0.5 * 4) = 2: two survivors of four is exactly enough.
  EXPECT_TRUE(MeetsQuorum(2, 4, 0.5));
  EXPECT_FALSE(MeetsQuorum(1, 4, 0.5));
  // Odd planned count rounds up: ceil(0.5 * 5) = 3.
  EXPECT_TRUE(MeetsQuorum(3, 5, 0.5));
  EXPECT_FALSE(MeetsQuorum(2, 5, 0.5));
}

TEST(MeetsQuorumTest, OneStragglerCut) {
  // One of four cut by the deadline leaves 3 >= ceil(0.5 * 4).
  EXPECT_TRUE(MeetsQuorum(3, 4, 0.5));
  // But a full-participation quorum tolerates no straggler at all.
  EXPECT_FALSE(MeetsQuorum(3, 4, 1.0));
  EXPECT_TRUE(MeetsQuorum(4, 4, 1.0));
}

TEST(MeetsQuorumTest, FracIsClamped) {
  EXPECT_TRUE(MeetsQuorum(4, 4, 7.0));    // Clamped to 1.
  EXPECT_TRUE(MeetsQuorum(1, 4, -3.0));   // Clamped to 0.
}

// ----- Session-level behavior under faults -----

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
  options.query_driven.top_l = 4;
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
      MakeNodeData(0, 2.0, 3), MakeNodeData(0, 2.0, 4)};
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

TEST(FaultFederationTest, EnabledWithZeroRatesBehavesLikeFaultFree) {
  FederationOptions plain = FastOptions();
  FederationOptions faulty = FastOptions();
  faulty.fault_tolerance.enabled = true;  // All fault rates stay 0.
  auto a = MakeSession(plain);
  auto b = MakeSession(faulty);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto oa = a->RunQuery(QueryOver(0, 10),
                        selection::PolicyKind::kQueryDriven,
                        /*data_selectivity=*/true);
  auto ob = b->RunQuery(QueryOver(0, 10),
                        selection::PolicyKind::kQueryDriven,
                        /*data_selectivity=*/true);
  ASSERT_TRUE(oa.ok());
  ASSERT_TRUE(ob.ok());
  ASSERT_FALSE(oa->skipped);
  ASSERT_FALSE(ob->skipped);
  // Same selection, same training, same losses; only the accounting of
  // per-round survivor weights is additionally populated.
  EXPECT_EQ(oa->selected_nodes, ob->selected_nodes);
  EXPECT_DOUBLE_EQ(oa->loss_model_avg, ob->loss_model_avg);
  EXPECT_DOUBLE_EQ(oa->loss_weighted, ob->loss_weighted);
  EXPECT_DOUBLE_EQ(oa->loss_fedavg, ob->loss_fedavg);
  EXPECT_EQ(ob->failed_nodes.size(), 0u);
  EXPECT_EQ(ob->deadline_missed_nodes.size(), 0u);
  EXPECT_EQ(ob->degraded_rounds, 0u);
  ASSERT_EQ(ob->round_survivors.size(), 1u);
  EXPECT_EQ(ob->round_survivors[0], ob->selected_nodes.size());
  double sum = 0.0;
  for (double w : ob->survivor_weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(FaultFederationTest, AllNodesFailingDegradesGracefully) {
  FederationOptions options = FastOptions();
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.faults.seed = 9;
  options.fault_tolerance.faults.dropout_rate = 1.0;  // Everyone offline.
  auto fed = MakeSession(options);
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQueryMultiRound(
      QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 3);
  ASSERT_TRUE(outcome.ok());
  // Not skipped: the leader answers with the initial global model.
  EXPECT_FALSE(outcome->skipped);
  EXPECT_EQ(outcome->degraded_rounds, 3u);
  ASSERT_EQ(outcome->round_survivors.size(), 3u);
  for (size_t s : outcome->round_survivors) EXPECT_EQ(s, 0u);
  EXPECT_FALSE(outcome->failed_nodes.empty());
  EXPECT_TRUE(outcome->survivor_weights.empty());
}

TEST(FaultFederationTest, StragglersCutByDeadline) {
  // Calibrate: run once fault-"enabled" but fault-free to measure a
  // round's critical path, then slow every node 5x with a deadline at 2x.
  FederationOptions calibrate = FastOptions();
  calibrate.fault_tolerance.enabled = true;
  auto cal_fed = MakeSession(calibrate);
  ASSERT_TRUE(cal_fed.ok());
  auto cal = cal_fed->RunQuery(QueryOver(0, 10),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
  ASSERT_TRUE(cal.ok());
  ASSERT_FALSE(cal->skipped);
  const double baseline = cal->sim_time_parallel;
  ASSERT_GT(baseline, 0.0);

  FederationOptions options = FastOptions();
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.faults.seed = 4;
  options.fault_tolerance.faults.straggler_rate = 1.0;
  options.fault_tolerance.faults.straggler_slowdown_min = 5.0;
  options.fault_tolerance.faults.straggler_slowdown_max = 5.0;
  options.fault_tolerance.round_deadline_s = 2.0 * baseline;
  auto fed = MakeSession(options);
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQuery(QueryOver(0, 10),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
  ASSERT_TRUE(outcome.ok());
  // Every node straggles past the deadline: the round degrades, the query
  // still completes, and the leader never waits past the deadline.
  EXPECT_FALSE(outcome->skipped);
  EXPECT_FALSE(outcome->deadline_missed_nodes.empty());
  EXPECT_EQ(outcome->degraded_rounds, 1u);
  EXPECT_LE(outcome->sim_time_parallel,
            options.fault_tolerance.round_deadline_s + 1e-9);
}

TEST(FaultFederationTest, QuorumHoldsWhenEnoughSurvive) {
  FederationOptions options = FastOptions();
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.faults.seed = 11;
  options.fault_tolerance.faults.dropout_rate = 0.3;
  options.fault_tolerance.min_quorum_frac = 0.25;
  auto fed = MakeSession(options);
  ASSERT_TRUE(fed.ok());
  size_t completed = 0;
  for (int i = 0; i < 8; ++i) {
    auto outcome = fed->RunQueryMultiRound(
        QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 2);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->round_survivors.size(), 2u);
    if (!outcome->skipped) ++completed;
    // Any committed (non-degraded) final round must carry normalized
    // survivor weights.
    if (!outcome->survivor_weights.empty()) {
      double sum = 0.0;
      for (double w : outcome->survivor_weights) sum += w;
      EXPECT_NEAR(sum, 1.0, 1e-12);
    }
  }
  // Dropouts at 30% with quorum 25% should let most queries through.
  EXPECT_GT(completed, 0u);
}

TEST(FaultFederationTest, MessageLossRetriesAndAccounts) {
  FederationOptions options = FastOptions();
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.faults.seed = 2;
  options.fault_tolerance.faults.message_loss_rate = 0.4;
  options.fault_tolerance.max_send_attempts = 3;
  auto fed = MakeSession(options);
  ASSERT_TRUE(fed.ok());
  size_t lost = 0;
  for (int i = 0; i < 6; ++i) {
    auto outcome = fed->RunQuery(QueryOver(0, 10),
                                 selection::PolicyKind::kQueryDriven,
                                 /*data_selectivity=*/true);
    ASSERT_TRUE(outcome.ok());
    lost += outcome->messages_lost;
    // Every retry follows a loss, but a message can be lost on its final
    // attempt with no retry left -- so retries never exceed losses.
    EXPECT_LE(outcome->send_retries, outcome->messages_lost);
  }
  EXPECT_GT(lost, 0u);
}

TEST(FaultFederationTest, SameSeedSameFaultOutcome) {
  FederationOptions options = FastOptions();
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.faults.seed = 123;
  options.fault_tolerance.faults.dropout_rate = 0.3;
  options.fault_tolerance.faults.straggler_rate = 0.3;
  options.fault_tolerance.faults.message_loss_rate = 0.2;
  auto fed_a = MakeSession(options);
  auto fed_b = MakeSession(options);
  ASSERT_TRUE(fed_a.ok());
  ASSERT_TRUE(fed_b.ok());
  for (int i = 0; i < 4; ++i) {
    auto a = fed_a->RunQuery(QueryOver(0, 10),
                             selection::PolicyKind::kQueryDriven,
                             /*data_selectivity=*/true);
    auto b = fed_b->RunQuery(QueryOver(0, 10),
                             selection::PolicyKind::kQueryDriven,
                             /*data_selectivity=*/true);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->skipped, b->skipped);
    EXPECT_EQ(a->round_survivors, b->round_survivors);
    EXPECT_EQ(a->failed_nodes, b->failed_nodes);
    EXPECT_EQ(a->deadline_missed_nodes, b->deadline_missed_nodes);
    EXPECT_EQ(a->messages_lost, b->messages_lost);
    if (!a->skipped) {
      EXPECT_DOUBLE_EQ(a->loss_weighted, b->loss_weighted);
    }
  }
}

TEST(FaultFederationTest, CrashedNodesPenalizedInReliability) {
  FederationOptions options = FastOptions();
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.faults.seed = 6;
  options.fault_tolerance.faults.crash_rate = 1.0;
  options.fault_tolerance.faults.crash_horizon = 1;  // Crash at round 0.
  auto fed = MakeSession(options);
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQuery(QueryOver(0, 10),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
  ASSERT_TRUE(outcome.ok());
  // Everyone crashed before round 0: the leader observed only failures.
  bool any_failure_recorded = false;
  for (const auto& profile : fed->leader().profiles()) {
    if (profile.reliability.failures > 0) any_failure_recorded = true;
    EXPECT_EQ(profile.reliability.rounds_completed, 0u);
  }
  EXPECT_TRUE(any_failure_recorded);
}

TEST(FaultFederationTest, InvalidPolicyOptionsRejectedAtCreate) {
  FederationOptions options = FastOptions();
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.max_send_attempts = 0;
  EXPECT_FALSE(MakeSession(options).ok());
  options = FastOptions();
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.min_quorum_frac = 1.5;
  EXPECT_FALSE(MakeSession(options).ok());
  options = FastOptions();
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.faults.message_loss_rate = -0.5;
  EXPECT_FALSE(MakeSession(options).ok());
}

}  // namespace
}  // namespace qens::fl
