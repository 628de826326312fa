// End-to-end pin of the opt-in ranking accelerators inside the serving
// engine: a Fleet built with use_index / use_cache must produce outcomes
// bit-identical to the paper-exact scan fleet at every worker count, the
// shared index must actually be consulted (telemetry + RoundRecord
// counters), and the accelerators must stay strictly leader-private
// (per-session caches over one shared immutable index).

#include <gtest/gtest.h>

#include "qens/common/rng.h"
#include "qens/fl/query_server.h"
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

FederationOptions AcceleratedOptions() {
  FederationOptions options = FastOptions();
  options.ranking.use_index = true;
  options.ranking.use_cache = true;
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

/// Several sessions; each repeats its first query so the ranking cache has
/// guaranteed hits.
std::vector<SessionSpec> MakeSpecs() {
  std::vector<SessionSpec> specs;
  for (size_t s = 0; s < 3; ++s) {
    SessionSpec spec;
    spec.queries.push_back(QueryOver(0, 6.0 + static_cast<double>(s), 100 + s));
    spec.queries.push_back(QueryOver(0, 4.0, 200 + s));
    spec.queries.push_back(QueryOver(0, 6.0 + static_cast<double>(s), 100 + s));
    spec.rounds = 1;
    specs.push_back(std::move(spec));
  }
  return specs;
}

void ExpectIdenticalOutcomes(const QueryOutcome& a, const QueryOutcome& b) {
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.selected_nodes, b.selected_nodes);
  EXPECT_EQ(a.round_survivors, b.round_survivors);
  EXPECT_EQ(a.samples_used, b.samples_used);
  if (a.skipped || b.skipped) return;
  EXPECT_DOUBLE_EQ(a.loss_model_avg, b.loss_model_avg);
  EXPECT_DOUBLE_EQ(a.loss_weighted, b.loss_weighted);
  EXPECT_DOUBLE_EQ(a.loss_fedavg, b.loss_fedavg);
  EXPECT_DOUBLE_EQ(a.sim_time_total, b.sim_time_total);
  EXPECT_DOUBLE_EQ(a.sim_time_parallel, b.sim_time_parallel);
  EXPECT_DOUBLE_EQ(a.sim_time_comm, b.sim_time_comm);
}

TEST(IndexedServingTest, FleetBuildsIndexOnlyWhenRequested) {
  auto plain = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*plain)->ranking_index, nullptr);

  auto accel = Fleet::Create(MakeNodes(), AcceleratedOptions());
  ASSERT_TRUE(accel.ok());
  ASSERT_NE((*accel)->ranking_index, nullptr);
  EXPECT_EQ((*accel)->ranking_index->num_nodes(), 4u);

  // Sessions share the fleet's index (no per-session rebuild) and own
  // their cache.
  auto session = QuerySession::Create(*accel, QuerySessionOptions{});
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->leader().cluster_index(), (*accel)->ranking_index.get());
  EXPECT_NE(session->leader().ranking_cache(), nullptr);
}

TEST(IndexedServingTest, AcceleratedServingIsBitIdenticalAtEveryWorkerCount) {
  auto baseline_fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(baseline_fleet.ok());
  auto accel_fleet = Fleet::Create(MakeNodes(), AcceleratedOptions());
  ASSERT_TRUE(accel_fleet.ok());
  const std::vector<SessionSpec> specs = MakeSpecs();

  auto baseline_server = QueryServer::Create(*baseline_fleet, ServingOptions{});
  ASSERT_TRUE(baseline_server.ok());
  auto expected = baseline_server->Serve(specs);

  for (size_t workers : {size_t{0}, size_t{2}, size_t{4}}) {
    ServingOptions serving;
    serving.num_workers = workers;
    auto server = QueryServer::Create(*accel_fleet, serving);
    ASSERT_TRUE(server.ok());
    auto results = server->Serve(specs);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t s = 0; s < results.size(); ++s) {
      const SessionResult& a = expected[s];
      const SessionResult& b = results[s];
      EXPECT_EQ(a.session_id, b.session_id);
      EXPECT_EQ(a.queries_run, b.queries_run);
      EXPECT_EQ(a.comm_messages, b.comm_messages);
      EXPECT_EQ(a.comm_bytes, b.comm_bytes);
      ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
      for (size_t i = 0; i < a.outcomes.size(); ++i) {
        ExpectIdenticalOutcomes(a.outcomes[i], b.outcomes[i]);
      }
    }
  }
}

TEST(IndexedServingTest, SessionTelemetryShowsIndexAndCacheUse) {
  auto fleet = Fleet::Create(MakeNodes(), AcceleratedOptions());
  ASSERT_TRUE(fleet.ok());
  auto session = QuerySession::Create(*fleet, QuerySessionOptions{});
  ASSERT_TRUE(session.ok());
  const query::RangeQuery q = QueryOver(0, 6, 1);
  ASSERT_TRUE(
      session->RunQuery(q, selection::PolicyKind::kQueryDriven, false).ok());
  ASSERT_TRUE(
      session->RunQuery(q, selection::PolicyKind::kQueryDriven, false).ok());
  const Leader::RankingTelemetry& t = session->leader().ranking_telemetry();
  EXPECT_GT(t.index_rankings, 0u);
  EXPECT_GT(t.cache_hits, 0u);  // Second run of the same query region.
  EXPECT_EQ(t.scan_rankings, 0u);
}

TEST(IndexedServingTest, RoundRecordsCarryAcceleratorCounters) {
  obs::MetricsRegistry::Enable();
  auto fleet = Fleet::Create(MakeNodes(), AcceleratedOptions());
  ASSERT_TRUE(fleet.ok());
  auto server = QueryServer::Create(*fleet, ServingOptions{});
  ASSERT_TRUE(server.ok());
  auto results = server->Serve(MakeSpecs());
  size_t index_rankings = 0, cache_hits = 0, cache_misses = 0;
  for (const SessionResult& session : results) {
    for (const QueryOutcome& outcome : session.outcomes) {
      for (size_t r = 0; r < outcome.round_records.size(); ++r) {
        const obs::RoundRecord& record = outcome.round_records[r];
        index_rankings += record.rank_index_rankings;
        cache_hits += record.rank_cache_hits;
        cache_misses += record.rank_cache_misses;
        if (r > 0) {  // Only a query's first record carries the deltas.
          EXPECT_EQ(record.rank_index_rankings, 0u);
        }
      }
    }
  }
  EXPECT_GT(index_rankings, 0u);
  EXPECT_GT(cache_hits, 0u);    // Each session repeats its first query.
  EXPECT_GT(cache_misses, 0u);  // First sighting of every region.
  obs::MetricsRegistry::Disable();
}

TEST(IndexedServingTest, ScanFleetRecordsNoAcceleratorCounters) {
  obs::MetricsRegistry::Enable();
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  auto server = QueryServer::Create(*fleet, ServingOptions{});
  ASSERT_TRUE(server.ok());
  auto results = server->Serve(MakeSpecs());
  for (const SessionResult& session : results) {
    for (const QueryOutcome& outcome : session.outcomes) {
      for (const obs::RoundRecord& record : outcome.round_records) {
        EXPECT_EQ(record.rank_index_rankings, 0u);
        EXPECT_EQ(record.rank_cache_hits, 0u);
        EXPECT_EQ(record.rank_cache_misses, 0u);
        EXPECT_EQ(record.rank_candidate_nodes, 0u);
      }
    }
  }
  obs::MetricsRegistry::Disable();
}

}  // namespace
}  // namespace qens::fl
