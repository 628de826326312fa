// End-to-end pin of the dynamic-fleet layer (docs/ROBUSTNESS.md, "Dynamic
// fleets"): with the layer enabled but every rate zero the protocol is
// bit-identical to the layer being off; the full churn + drift + refresh
// trajectory replays bit-identically from its seeds at every worker count;
// churn feeds the quorum-gated failure path; and refresh advances the
// fleet epoch.

#include <gtest/gtest.h>

#include "qens/common/rng.h"
#include "qens/fl/dynamic_fleet.h"
#include "qens/fl/query_server.h"
#include "qens/obs/metrics.h"
#include "qens/obs/round_record.h"

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

/// Aggressive dynamics so a short run exercises every path: most nodes
/// churn, drift fires often, and the refresh detector trips on the first
/// unpublished event.
FederationOptions DynamicOptions(bool refresh) {
  FederationOptions options = FastOptions();
  options.dynamic.enabled = true;
  options.dynamic.churn.seed = 11;
  options.dynamic.churn.churn_rate = 0.75;
  options.dynamic.churn.churn_horizon = 32;
  options.dynamic.churn.min_up_rounds = 1;
  options.dynamic.churn.max_up_rounds = 3;
  options.dynamic.churn.min_down_rounds = 1;
  options.dynamic.churn.max_down_rounds = 2;
  options.dynamic.drift.seed = 23;
  options.dynamic.drift.rate = 0.4;
  options.dynamic.drift.feature_shift = 0.05;
  options.dynamic.refresh = refresh;
  options.dynamic.refresh_threshold = 0.001;
  return options;
}

std::vector<data::Dataset> MakeNodes() {
  return {MakeNodeData(0, 2.0, 1), MakeNodeData(0, 2.0, 2),
          MakeNodeData(0, 2.0, 3), MakeNodeData(0, 2.0, 4)};
}

query::RangeQuery QueryOver(double lo, double hi, uint64_t id) {
  query::RangeQuery q;
  q.id = id;
  q.region = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

std::vector<SessionSpec> MakeSpecs(size_t rounds = 3) {
  std::vector<SessionSpec> specs;
  for (size_t s = 0; s < 3; ++s) {
    SessionSpec spec;
    spec.requests.push_back(
        {QueryOver(0, 6.0 + static_cast<double>(s), 100 + s)});
    spec.requests.push_back({QueryOver(0, 4.0, 200 + s)});
    spec.requests.push_back(
        {QueryOver(0, 6.0 + static_cast<double>(s), 100 + s)});
    spec.rounds = rounds;
    specs.push_back(std::move(spec));
  }
  return specs;
}

void ExpectIdenticalOutcomes(const QueryOutcome& a, const QueryOutcome& b) {
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.selected_nodes, b.selected_nodes);
  EXPECT_EQ(a.round_survivors, b.round_survivors);
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(a.failed_nodes, b.failed_nodes);
  EXPECT_EQ(a.degraded_rounds, b.degraded_rounds);
  EXPECT_EQ(a.nodes_joined, b.nodes_joined);
  EXPECT_EQ(a.nodes_left, b.nodes_left);
  EXPECT_EQ(a.fleet_refreshes, b.fleet_refreshes);
  EXPECT_EQ(a.fleet_epoch, b.fleet_epoch);
  if (a.skipped || b.skipped) return;
  EXPECT_DOUBLE_EQ(a.loss_model_avg, b.loss_model_avg);
  EXPECT_DOUBLE_EQ(a.loss_weighted, b.loss_weighted);
  EXPECT_DOUBLE_EQ(a.loss_fedavg, b.loss_fedavg);
  EXPECT_DOUBLE_EQ(a.sim_time_total, b.sim_time_total);
  EXPECT_DOUBLE_EQ(a.sim_time_parallel, b.sim_time_parallel);
  EXPECT_DOUBLE_EQ(a.sim_time_comm, b.sim_time_comm);
}

void ExpectIdenticalServes(const std::vector<SessionResult>& a,
                           const std::vector<SessionResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].session_id, b[s].session_id);
    EXPECT_EQ(a[s].status.ok(), b[s].status.ok());
    EXPECT_EQ(a[s].queries_run, b[s].queries_run);
    EXPECT_EQ(a[s].comm_messages, b[s].comm_messages);
    EXPECT_EQ(a[s].comm_bytes, b[s].comm_bytes);
    ASSERT_EQ(a[s].outcomes.size(), b[s].outcomes.size());
    for (size_t i = 0; i < a[s].outcomes.size(); ++i) {
      ExpectIdenticalOutcomes(a[s].outcomes[i], b[s].outcomes[i]);
    }
  }
}

TEST(DynamicFleetTest, CreateValidatesOptions) {
  // Dynamic options are validated where the mutable state is built —
  // QuerySession::Create — matching the fault/byzantine idiom.
  auto session_with = [](void (*tweak)(DynamicFleetOptions&)) {
    FederationOptions options = FastOptions();
    options.dynamic.enabled = true;
    tweak(options.dynamic);
    auto fleet = Fleet::Create(MakeNodes(), options);
    EXPECT_TRUE(fleet.ok());
    return QuerySession::Create(*fleet, QuerySessionOptions{});
  };

  EXPECT_FALSE(
      session_with([](DynamicFleetOptions& d) { d.drift.rate = 1.5; }).ok());
  EXPECT_FALSE(session_with([](DynamicFleetOptions& d) {
                 d.drift.rate = 0.2;
                 d.drift.feature_shift = -0.1;
               }).ok());
  EXPECT_FALSE(session_with([](DynamicFleetOptions& d) {
                 d.refresh = true;
                 d.refresh_threshold = 0.0;
               }).ok());
  EXPECT_FALSE(session_with([](DynamicFleetOptions& d) {
                 d.churn.churn_rate = 2.0;
               }).ok());
}

TEST(DynamicFleetTest, ZeroRatesMatchDisabledLayerExactly) {
  // dynamic.enabled with no churn and no drift routes every round through
  // the dynamic code path but must not change a single outcome bit.
  auto off = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(off.ok());
  FederationOptions zeroed = FastOptions();
  zeroed.dynamic.enabled = true;
  auto on = Fleet::Create(MakeNodes(), zeroed);
  ASSERT_TRUE(on.ok());

  auto off_server = QueryServer::Create(*off, ServingOptions{});
  auto on_server = QueryServer::Create(*on, ServingOptions{});
  ASSERT_TRUE(off_server.ok());
  ASSERT_TRUE(on_server.ok());
  auto expected = off_server->Serve(MakeSpecs());
  auto actual = on_server->Serve(MakeSpecs());
  ExpectIdenticalServes(expected, actual);
  for (const SessionResult& session : actual) {
    for (const QueryOutcome& outcome : session.outcomes) {
      EXPECT_EQ(outcome.nodes_joined, 0u);
      EXPECT_EQ(outcome.nodes_left, 0u);
      EXPECT_EQ(outcome.fleet_refreshes, 0u);
      EXPECT_EQ(outcome.fleet_epoch, 0u);
    }
  }
}

TEST(DynamicFleetTest, TrajectoryReplaysBitIdenticallyAtEveryWorkerCount) {
  // The whole churn + drift + refresh trajectory is a pure function of the
  // seeds: a twin fleet serves the same specs bit-identically, sequentially
  // and at 2 and 4 workers.
  auto fleet = Fleet::Create(MakeNodes(), DynamicOptions(/*refresh=*/true));
  ASSERT_TRUE(fleet.ok());
  auto baseline = QueryServer::Create(*fleet, ServingOptions{});
  ASSERT_TRUE(baseline.ok());
  auto expected = baseline->Serve(MakeSpecs());

  // The dynamics actually fired somewhere in the workload.
  size_t joined = 0, left = 0, refreshes = 0;
  for (const SessionResult& session : expected) {
    ASSERT_TRUE(session.status.ok()) << session.status.ToString();
    for (const QueryOutcome& outcome : session.outcomes) {
      joined += outcome.nodes_joined;
      left += outcome.nodes_left;
      refreshes += outcome.fleet_refreshes;
    }
  }
  EXPECT_GT(left, 0u);
  EXPECT_GT(joined, 0u);
  EXPECT_GT(refreshes, 0u);

  for (size_t workers : {size_t{0}, size_t{2}, size_t{4}}) {
    auto twin = Fleet::Create(MakeNodes(), DynamicOptions(/*refresh=*/true));
    ASSERT_TRUE(twin.ok());
    ServingOptions serving;
    serving.num_workers = workers;
    auto server = QueryServer::Create(*twin, serving);
    ASSERT_TRUE(server.ok());
    auto results = server->Serve(MakeSpecs());
    ExpectIdenticalServes(expected, results);
  }
}

TEST(DynamicFleetTest, ChurnFeedsTheQuorumGatedFailurePath) {
  auto fleet = Fleet::Create(MakeNodes(), DynamicOptions(/*refresh=*/false));
  ASSERT_TRUE(fleet.ok());
  auto session = QuerySession::Create(*fleet, QuerySessionOptions{});
  ASSERT_TRUE(session.ok());
  ASSERT_NE(session->dynamic_fleet(), nullptr);

  size_t failed = 0;
  for (uint64_t q = 0; q < 6; ++q) {
    auto outcome = session->RunQueryMultiRound(
        QueryOver(0, 8, q + 1), selection::PolicyKind::kQueryDriven,
        /*data_selectivity=*/true, /*rounds=*/4);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome->skipped) continue;
    failed += outcome->failed_nodes.size();
    // Graceful degradation: even a fully-departed round answers with the
    // last committed model rather than erroring.
    EXPECT_FALSE(outcome->round_survivors.empty());
  }
  // With 75% of a 4-node fleet churning on 1-3 round up intervals, some
  // selected node was absent at some point.
  EXPECT_GT(failed, 0u);
  EXPECT_GT(session->dynamic_fleet()->rounds_started(), 0u);
}

TEST(DynamicFleetTest, RefreshAdvancesEpochAndPublishesFreshGeometry) {
  auto fleet = Fleet::Create(MakeNodes(), DynamicOptions(/*refresh=*/true));
  ASSERT_TRUE(fleet.ok());
  auto session = QuerySession::Create(*fleet, QuerySessionOptions{});
  ASSERT_TRUE(session.ok());
  uint64_t last_epoch = 0;
  size_t refreshes = 0;
  for (uint64_t q = 0; q < 4; ++q) {
    auto outcome = session->RunQueryMultiRound(
        QueryOver(0, 8, q + 1), selection::PolicyKind::kQueryDriven,
        /*data_selectivity=*/true, /*rounds=*/4);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    refreshes += outcome->fleet_refreshes;
    EXPECT_GE(outcome->fleet_epoch, last_epoch);  // Monotone.
    last_epoch = outcome->fleet_epoch;
  }
  EXPECT_GT(refreshes, 0u);
  EXPECT_GT(last_epoch, 0u);
  EXPECT_EQ(session->leader().fleet_epoch(), last_epoch);
}

TEST(DynamicFleetTest, WithoutRefreshEpochStaysAtBaseAndStalenessGrows) {
  obs::MetricsRegistry::Enable();
  auto fleet = Fleet::Create(MakeNodes(), DynamicOptions(/*refresh=*/false));
  ASSERT_TRUE(fleet.ok());
  auto session = QuerySession::Create(*fleet, QuerySessionOptions{});
  ASSERT_TRUE(session.ok());
  size_t stale_seen = 0;
  for (uint64_t q = 0; q < 4; ++q) {
    auto outcome = session->RunQueryMultiRound(
        QueryOver(0, 8, q + 1), selection::PolicyKind::kQueryDriven,
        /*data_selectivity=*/true, /*rounds=*/4);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->fleet_refreshes, 0u);
    EXPECT_EQ(outcome->fleet_epoch, 0u);
    for (const obs::RoundRecord& record : outcome->round_records) {
      stale_seen += record.stale_rounds;
      EXPECT_EQ(record.refreshes, 0u);
    }
  }
  // Drift fires but nothing republishes, so staleness accumulates.
  EXPECT_GT(stale_seen, 0u);
  obs::MetricsRegistry::Disable();
}

TEST(DynamicFleetTest, DynamicRoundRecordsRoundTripThroughExporters) {
  obs::MetricsRegistry::Enable();
  auto fleet = Fleet::Create(MakeNodes(), DynamicOptions(/*refresh=*/true));
  ASSERT_TRUE(fleet.ok());
  auto session = QuerySession::Create(*fleet, QuerySessionOptions{});
  ASSERT_TRUE(session.ok());
  std::vector<obs::RoundRecord> records;
  for (uint64_t q = 0; q < 3; ++q) {
    auto outcome = session->RunQueryMultiRound(
        QueryOver(0, 8, q + 1), selection::PolicyKind::kQueryDriven,
        /*data_selectivity=*/true, /*rounds=*/4);
    ASSERT_TRUE(outcome.ok());
    for (auto& record : outcome->round_records) {
      records.push_back(std::move(record));
    }
  }
  ASSERT_FALSE(records.empty());
  size_t joined = 0, refreshes = 0, stale = 0;
  for (const obs::RoundRecord& record : records) {
    joined += record.nodes_joined + record.nodes_left;
    refreshes += record.refreshes;
    stale += record.stale_rounds;
  }
  EXPECT_GT(joined, 0u);
  EXPECT_GT(refreshes, 0u);

  auto parsed = obs::ParseRoundRecordsJsonl(obs::RoundRecordsToJsonl(records));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*parsed)[i].fleet_epoch, records[i].fleet_epoch);
    EXPECT_EQ((*parsed)[i].nodes_joined, records[i].nodes_joined);
    EXPECT_EQ((*parsed)[i].nodes_left, records[i].nodes_left);
    EXPECT_EQ((*parsed)[i].refreshes, records[i].refreshes);
    EXPECT_EQ((*parsed)[i].stale_rounds, records[i].stale_rounds);
  }
  obs::MetricsRegistry::Disable();
}

}  // namespace
}  // namespace qens::fl
