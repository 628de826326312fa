// Pins the RoundEngine consolidation: RunQuery and RunQueryMultiRound are
// both thin drivers over the SAME per-round state machine, so for a
// 1-round configuration they must produce bit-identical outcomes and
// bit-identical per-round telemetry — on the fault-free path and with the
// fault-injection and Byzantine layers active. Also pins that a
// QuerySession without an explicit seed is seeded with
// FederationOptions::seed.

#include <gtest/gtest.h>

#include "qens/common/rng.h"
#include "qens/fl/query_session.h"
#include "qens/obs/metrics.h"

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
  options.query_driven.top_l = 4;
  options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  options.hyper.epochs = 15;
  options.epochs_per_cluster = 6;
  options.random_l = 2;
  options.seed = 77;
  return options;
}

std::vector<data::Dataset> MakeNodes() {
  return {MakeNodeData(0, 2.0, 1), MakeNodeData(0, 2.0, 2),
          MakeNodeData(0, 2.0, 3), MakeNodeData(0, 2.0, 4)};
}

Result<QuerySession> MakeSession(const FederationOptions& options) {
  QENS_ASSIGN_OR_RETURN(std::shared_ptr<Fleet> fleet,
                        Fleet::Create(MakeNodes(), options));
  return QuerySession::Create(std::move(fleet), QuerySessionOptions{});
}

query::RangeQuery QueryOver(double lo, double hi) {
  query::RangeQuery q;
  q.id = 3;
  q.region = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

FederationOptions FaultyByzantineOptions() {
  FederationOptions options = FastOptions();
  auto& ft = options.fault_tolerance;
  ft.enabled = true;
  ft.faults.seed = 19;
  ft.faults.dropout_rate = 0.2;
  ft.faults.straggler_rate = 0.4;
  ft.faults.message_loss_rate = 0.15;
  ft.faults.corruption_rate = 0.4;
  ft.faults.corruption_kinds = {sim::CorruptionKind::kNanUpdate};
  ft.min_quorum_frac = 0.25;
  auto& byz = options.byzantine;
  byz.enabled = true;
  byz.aggregator = AggregationKind::kCoordinateMedian;
  byz.quarantine_rounds = 1;
  byz.validator.check_finite = true;
  return options;
}

void ExpectIdenticalOutcomes(const QueryOutcome& a, const QueryOutcome& b) {
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.selected_nodes, b.selected_nodes);
  EXPECT_EQ(a.round_survivors, b.round_survivors);
  EXPECT_EQ(a.failed_nodes, b.failed_nodes);
  EXPECT_EQ(a.deadline_missed_nodes, b.deadline_missed_nodes);
  EXPECT_EQ(a.degraded_rounds, b.degraded_rounds);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
  EXPECT_EQ(a.send_retries, b.send_retries);
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(a.rejected_nodes, b.rejected_nodes);
  EXPECT_EQ(a.quarantined_nodes, b.quarantined_nodes);
  EXPECT_EQ(a.rejected_updates, b.rejected_updates);
  EXPECT_EQ(a.quarantined_skips, b.quarantined_skips);
  EXPECT_EQ(a.has_loss_robust, b.has_loss_robust);
  if (a.skipped || b.skipped) return;
  EXPECT_DOUBLE_EQ(a.loss_model_avg, b.loss_model_avg);
  EXPECT_DOUBLE_EQ(a.loss_weighted, b.loss_weighted);
  EXPECT_DOUBLE_EQ(a.loss_fedavg, b.loss_fedavg);
  if (a.has_loss_robust && b.has_loss_robust) {
    EXPECT_DOUBLE_EQ(a.loss_robust, b.loss_robust);
  }
  EXPECT_DOUBLE_EQ(a.sim_time_total, b.sim_time_total);
  EXPECT_DOUBLE_EQ(a.sim_time_parallel, b.sim_time_parallel);
  EXPECT_DOUBLE_EQ(a.sim_time_comm, b.sim_time_comm);
  ASSERT_EQ(a.survivor_weights.size(), b.survivor_weights.size());
  for (size_t i = 0; i < a.survivor_weights.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.survivor_weights[i], b.survivor_weights[i]);
  }
}

void ExpectIdenticalRoundRecords(const QueryOutcome& a,
                                 const QueryOutcome& b) {
  ASSERT_EQ(a.round_records.size(), b.round_records.size());
  for (size_t r = 0; r < a.round_records.size(); ++r) {
    const obs::RoundRecord& ra = a.round_records[r];
    const obs::RoundRecord& rb = b.round_records[r];
    EXPECT_EQ(ra.session, rb.session);
    EXPECT_EQ(ra.query_id, rb.query_id);
    EXPECT_EQ(ra.round, rb.round);
    EXPECT_EQ(ra.policy, rb.policy);
    EXPECT_EQ(ra.aggregation, rb.aggregation);
    EXPECT_EQ(ra.engaged, rb.engaged);
    EXPECT_EQ(ra.survivors, rb.survivors);
    EXPECT_EQ(ra.rejected, rb.rejected);
    EXPECT_EQ(ra.quarantined, rb.quarantined);
    EXPECT_EQ(ra.quorum_met, rb.quorum_met);
    EXPECT_DOUBLE_EQ(ra.parallel_seconds, rb.parallel_seconds);
    EXPECT_DOUBLE_EQ(ra.total_train_seconds, rb.total_train_seconds);
    EXPECT_DOUBLE_EQ(ra.comm_seconds, rb.comm_seconds);
    EXPECT_EQ(ra.has_loss, rb.has_loss);
    if (ra.has_loss && rb.has_loss) {
      EXPECT_DOUBLE_EQ(ra.loss, rb.loss);
    }
    ASSERT_EQ(ra.nodes.size(), rb.nodes.size());
    for (size_t i = 0; i < ra.nodes.size(); ++i) {
      EXPECT_EQ(ra.nodes[i].node_id, rb.nodes[i].node_id);
      EXPECT_EQ(ra.nodes[i].fate, rb.nodes[i].fate);
      EXPECT_DOUBLE_EQ(ra.nodes[i].train_seconds, rb.nodes[i].train_seconds);
      EXPECT_DOUBLE_EQ(ra.nodes[i].comm_seconds, rb.nodes[i].comm_seconds);
      EXPECT_EQ(ra.nodes[i].samples_used, rb.nodes[i].samples_used);
      EXPECT_EQ(ra.nodes[i].straggler, rb.nodes[i].straggler);
    }
  }
}

// RunQuery and RunQueryMultiRound(..., 1) drive the same RoundEngine, so
// on identically built sessions a 1-round config must match bit for
// bit — outcomes AND per-round telemetry.
TEST(RoundEngineTest, RunQueryMatchesOneRoundMultiRound) {
  obs::MetricsRegistry::Enable();
  auto fed_a = MakeSession(FastOptions());
  auto fed_b = MakeSession(FastOptions());
  ASSERT_TRUE(fed_a.ok());
  ASSERT_TRUE(fed_b.ok());
  for (int i = 0; i < 3; ++i) {
    auto a = fed_a->RunQuery(QueryOver(0, 10),
                             selection::PolicyKind::kQueryDriven, true);
    auto b = fed_b->RunQueryMultiRound(
        QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_FALSE(a->skipped);
    EXPECT_EQ(a->rounds, b->rounds);
    ExpectIdenticalOutcomes(*a, *b);
    ASSERT_EQ(a->round_records.size(), 1u);
    EXPECT_EQ(a->round_records[0].session, 0u);  // Default session id.
    ExpectIdenticalRoundRecords(*a, *b);
  }
  obs::MetricsRegistry::Disable();
}

// The fault + Byzantine plumbing lives in the engine exactly once: both
// drivers must advance the injector schedule, the quarantine ledger, and
// the validator identically.
TEST(RoundEngineTest, FaultAndByzantinePlumbingIsShared) {
  obs::MetricsRegistry::Enable();
  auto fed_a = MakeSession(FaultyByzantineOptions());
  auto fed_b = MakeSession(FaultyByzantineOptions());
  ASSERT_TRUE(fed_a.ok());
  ASSERT_TRUE(fed_b.ok());
  for (int i = 0; i < 4; ++i) {
    auto a = fed_a->RunQuery(QueryOver(0, 10),
                             selection::PolicyKind::kQueryDriven, true);
    auto b = fed_b->RunQueryMultiRound(
        QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectIdenticalOutcomes(*a, *b);
    ExpectIdenticalRoundRecords(*a, *b);
    EXPECT_EQ(fed_a->fault_round(), fed_b->fault_round());
  }
  obs::MetricsRegistry::Disable();
}

// A QuerySession without an explicit seed uses the fleet's
// FederationOptions::seed: it matches a session seeded with that value
// explicitly (and tagged differently) over a separately built fleet — same
// selections, same losses, same accounting.
TEST(RoundEngineTest, SessionSeededWithOptionsSeedMatchesDefaultSession) {
  auto fed = MakeSession(FastOptions());
  ASSERT_TRUE(fed.ok());
  EXPECT_EQ(fed->seed(), FastOptions().seed);
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  QuerySessionOptions seeded;
  seeded.session_id = 7;
  seeded.seed = FastOptions().seed;
  auto session = QuerySession::Create(*fleet, seeded);
  ASSERT_TRUE(session.ok());
  for (int i = 0; i < 2; ++i) {
    auto from_fed = fed->RunQueryMultiRound(
        QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 2);
    auto from_session = session->RunQueryMultiRound(
        QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 2);
    ASSERT_TRUE(from_fed.ok());
    ASSERT_TRUE(from_session.ok());
    ExpectIdenticalOutcomes(*from_fed, *from_session);
  }
  EXPECT_EQ(fed->network().total_bytes(), session->network().total_bytes());
  EXPECT_EQ(fed->network().total_messages(),
            session->network().total_messages());
}

// The Random policy's per-query stream advance must also be shared: after
// interleaving both drivers, two sessions stay in lockstep.
TEST(RoundEngineTest, RandomPolicyStreamAdvanceIsShared) {
  auto fed_a = MakeSession(FastOptions());
  auto fed_b = MakeSession(FastOptions());
  ASSERT_TRUE(fed_a.ok());
  ASSERT_TRUE(fed_b.ok());
  for (int i = 0; i < 3; ++i) {
    auto a = fed_a->RunQuery(QueryOver(0, 10),
                             selection::PolicyKind::kRandom, false);
    auto b = fed_b->RunQueryMultiRound(QueryOver(0, 10),
                                       selection::PolicyKind::kRandom,
                                       false, 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->selected_nodes, b->selected_nodes);
    ExpectIdenticalOutcomes(*a, *b);
  }
}

}  // namespace
}  // namespace qens::fl
