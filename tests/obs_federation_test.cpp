// Integration of the obs layer with the federation loop: metrics off must
// change nothing (no registry allocation, no round records, bit-identical
// outcomes), and metrics on must populate consistent per-round records and
// the federation counters.

#include <gtest/gtest.h>

#include "qens/common/rng.h"
#include "qens/fl/query_session.h"
#include "qens/obs/metrics.h"

namespace qens::fl {
namespace {

data::Dataset MakeNodeData(double offset, double slope, uint64_t seed,
                           size_t n = 200) {
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
  options.hyper.epochs = 12;
  options.epochs_per_cluster = 5;
  options.random_l = 2;
  options.seed = 77;
  return options;
}

Result<QuerySession> MakeSession(const FederationOptions& options) {
  std::vector<data::Dataset> nodes = {
      MakeNodeData(0, 2.0, 1), MakeNodeData(0, 2.0, 2),
      MakeNodeData(0, 2.0, 3), MakeNodeData(0, 2.0, 4)};
  QENS_ASSIGN_OR_RETURN(std::shared_ptr<Fleet> fleet,
                        Fleet::Create(std::move(nodes), options));
  return QuerySession::Create(std::move(fleet), QuerySessionOptions{});
}

query::RangeQuery QueryOver(double lo, double hi) {
  query::RangeQuery q;
  q.id = 11;
  q.region = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

class ObsFederationTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::MetricsRegistry::Disable(); }
};

TEST_F(ObsFederationTest, DisabledMeansNoRegistryAndNoRoundRecords) {
  ASSERT_FALSE(obs::MetricsRegistry::Enabled());
  auto fed = MakeSession(FastOptions());
  ASSERT_TRUE(fed.ok());
  auto outcome = fed->RunQueryMultiRound(
      QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 2);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->skipped);
  EXPECT_TRUE(outcome->round_records.empty());
  EXPECT_EQ(obs::MetricsRegistry::Get(), nullptr);
}

TEST_F(ObsFederationTest, EnablingMetricsChangesNoOutcome) {
  auto fed_off = MakeSession(FastOptions());
  ASSERT_TRUE(fed_off.ok());
  auto off = fed_off->RunQueryMultiRound(
      QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 3);
  ASSERT_TRUE(off.ok());
  ASSERT_FALSE(off->skipped);

  obs::MetricsRegistry::Enable();
  auto fed_on = MakeSession(FastOptions());
  ASSERT_TRUE(fed_on.ok());
  auto on = fed_on->RunQueryMultiRound(
      QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 3);
  ASSERT_TRUE(on.ok());
  ASSERT_FALSE(on->skipped);

  // Bit-identical simulation results either way: the instrumentation adds
  // no RNG draws and no arithmetic to the simulated quantities.
  EXPECT_EQ(off->selected_nodes, on->selected_nodes);
  EXPECT_EQ(off->round_survivors, on->round_survivors);
  EXPECT_EQ(off->samples_used, on->samples_used);
  EXPECT_DOUBLE_EQ(off->loss_model_avg, on->loss_model_avg);
  EXPECT_DOUBLE_EQ(off->loss_weighted, on->loss_weighted);
  EXPECT_DOUBLE_EQ(off->loss_fedavg, on->loss_fedavg);
  EXPECT_DOUBLE_EQ(off->sim_time_total, on->sim_time_total);
  EXPECT_DOUBLE_EQ(off->sim_time_parallel, on->sim_time_parallel);
  EXPECT_DOUBLE_EQ(off->sim_time_comm, on->sim_time_comm);

  // But the enabled run carries the records the disabled run skipped.
  EXPECT_TRUE(off->round_records.empty());
  EXPECT_EQ(on->round_records.size(), 3u);
}

TEST_F(ObsFederationTest, RoundRecordsAreInternallyConsistent) {
  obs::MetricsRegistry::Enable();
  auto fed = MakeSession(FastOptions());
  ASSERT_TRUE(fed.ok());
  const size_t rounds = 3;
  auto outcome = fed->RunQueryMultiRound(
      QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, rounds);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->skipped);
  ASSERT_EQ(outcome->round_records.size(), rounds);

  for (size_t r = 0; r < rounds; ++r) {
    const obs::RoundRecord& record = outcome->round_records[r];
    EXPECT_EQ(record.query_id, 11u);
    EXPECT_EQ(record.round, r);
    EXPECT_EQ(record.policy, "query-driven");
    EXPECT_EQ(record.aggregation, r + 1 < rounds ? "fedavg" : "ensemble");
    EXPECT_EQ(record.engaged, record.nodes.size());
    size_t completed = 0;
    double train_total = 0.0, comm_total = 0.0;
    for (const auto& node : record.nodes) {
      completed += (node.fate == obs::NodeFate::kCompleted);
      train_total += node.train_seconds;
      comm_total += node.comm_seconds;
    }
    EXPECT_EQ(record.survivors, completed);
    EXPECT_EQ(record.survivors, outcome->round_survivors[r]);
    EXPECT_NEAR(record.total_train_seconds, train_total, 1e-12);
    EXPECT_NEAR(record.comm_seconds, comm_total, 1e-12);
    // The critical path can never exceed the round's summed work.
    EXPECT_LE(record.parallel_seconds,
              record.total_train_seconds + record.comm_seconds + 1e-12);
    EXPECT_TRUE(record.quorum_met);
    // Only the final round evaluates.
    EXPECT_EQ(record.has_loss, r + 1 == rounds);
  }
  EXPECT_DOUBLE_EQ(outcome->round_records.back().loss,
                   outcome->loss_weighted);

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Get()->Snapshot();
  EXPECT_EQ(snap.counters.at("federation.queries"), 1u);
  EXPECT_EQ(snap.counters.at("federation.rounds"), rounds);
  EXPECT_GE(snap.counters.at("federation.nodes.completed"), rounds);
  EXPECT_EQ(snap.histograms.at("federation.round.parallel_seconds").total,
            rounds);
  EXPECT_EQ(snap.counters.at("span.federation.round.calls"), rounds);
}

TEST_F(ObsFederationTest, FaultPathsLandInRecordsAndCounters) {
  obs::MetricsRegistry::Enable();
  FederationOptions options = FastOptions();
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.faults.seed = 19;
  options.fault_tolerance.faults.dropout_rate = 0.4;
  options.fault_tolerance.faults.message_loss_rate = 0.3;
  options.fault_tolerance.min_quorum_frac = 0.25;
  auto fed = MakeSession(options);
  ASSERT_TRUE(fed.ok());

  size_t unavailable = 0, engaged = 0;
  for (int i = 0; i < 6; ++i) {
    auto outcome = fed->RunQueryMultiRound(
        QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 2);
    ASSERT_TRUE(outcome.ok());
    for (const auto& record : outcome->round_records) {
      engaged += record.nodes.size();
      for (const auto& node : record.nodes) {
        unavailable += (node.fate == obs::NodeFate::kUnavailable);
      }
    }
  }
  ASSERT_GT(engaged, 0u);
  // With 40% dropout some engagements must have failed and the counters
  // must agree with the per-record fates.
  ASSERT_GT(unavailable, 0u);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Get()->Snapshot();
  EXPECT_EQ(snap.counters.at("federation.nodes.unavailable"), unavailable);
}

}  // namespace
}  // namespace qens::fl
