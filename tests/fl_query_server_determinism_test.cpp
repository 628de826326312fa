// Pins the QueryServer serving contract: sessions scheduled over a shared
// fleet are bit-identical at EVERY worker count (0 = sequential inline,
// 1, 2, 4, 8 = pooled), because each session's seed derives only from
// (base seed, session id) and every piece of mutable state is private to
// the session. Also pins the session-id tagging of RoundRecords, that
// serving leaves a default session over the same fleet untouched, and
// that the virtual-latency histogram is equal at every worker count.

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "qens/common/rng.h"
#include "qens/fl/query_server.h"
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

query::RangeQuery QueryOver(double lo, double hi, uint64_t id) {
  query::RangeQuery q;
  q.id = id;
  q.region = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

/// Four sessions with distinct query streams (widths and ids differ so a
/// cross-session state leak cannot cancel out).
std::vector<SessionSpec> MakeSpecs() {
  std::vector<SessionSpec> specs;
  for (size_t s = 0; s < 4; ++s) {
    SessionSpec spec;
    for (uint64_t q = 0; q < 2; ++q) {
      spec.requests.push_back(
          {QueryOver(0, 6.0 + static_cast<double>(s), 10 * (s + 1) + q)});
    }
    spec.rounds = 1 + s % 2;
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

/// Everything except wall_seconds (the one field allowed to vary).
void ExpectIdenticalSessionResults(const SessionResult& a,
                                   const SessionResult& b) {
  EXPECT_EQ(a.session_id, b.session_id);
  EXPECT_EQ(a.status.ok(), b.status.ok());
  EXPECT_EQ(a.queries_run, b.queries_run);
  EXPECT_EQ(a.queries_skipped, b.queries_skipped);
  EXPECT_EQ(a.comm_messages, b.comm_messages);
  EXPECT_EQ(a.comm_bytes, b.comm_bytes);
  EXPECT_DOUBLE_EQ(a.comm_seconds, b.comm_seconds);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    ExpectIdenticalOutcomes(a.outcomes[i], b.outcomes[i]);
  }
}

TEST(QueryServerTest, SessionSeedIndependentOfSchedulingInputs) {
  // Derivation is pure: same (base, id) -> same seed, distinct ids ->
  // distinct streams.
  EXPECT_EQ(QueryServer::SessionSeed(77, 1), QueryServer::SessionSeed(77, 1));
  EXPECT_NE(QueryServer::SessionSeed(77, 1), QueryServer::SessionSeed(77, 2));
  EXPECT_NE(QueryServer::SessionSeed(77, 1), QueryServer::SessionSeed(78, 1));
}

TEST(QueryServerTest, BitIdenticalAtEveryWorkerCount) {
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  const std::vector<SessionSpec> specs = MakeSpecs();

  auto sequential = QueryServer::Create(*fleet, ServingOptions{});
  ASSERT_TRUE(sequential.ok());
  auto expected = sequential->Serve(specs);
  ASSERT_EQ(expected.size(), specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    EXPECT_EQ(expected[s].session_id, s + 1);
    EXPECT_EQ(expected[s].outcomes.size(), specs[s].requests.size());
    EXPECT_GT(expected[s].queries_run, 0u);
    EXPECT_GT(expected[s].comm_bytes, 0u);
  }

  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ServingOptions options;
    options.num_workers = workers;
    auto server = QueryServer::Create(*fleet, options);
    ASSERT_TRUE(server.ok());
    auto results = server->Serve(specs);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t s = 0; s < results.size(); ++s) {
      ExpectIdenticalSessionResults(expected[s], results[s]);
    }
  }
}

TEST(QueryServerTest, RoundRecordsCarrySessionIds) {
  obs::MetricsRegistry::Enable();
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  ServingOptions options;
  options.num_workers = 2;
  auto server = QueryServer::Create(*fleet, options);
  ASSERT_TRUE(server.ok());
  auto results = server->Serve(MakeSpecs());
  size_t records_seen = 0;
  for (const SessionResult& session : results) {
    for (const QueryOutcome& outcome : session.outcomes) {
      for (const obs::RoundRecord& record : outcome.round_records) {
        EXPECT_EQ(record.session, session.session_id);
        ++records_seen;
      }
    }
  }
  EXPECT_GT(records_seen, 0u);
  obs::MetricsRegistry::Disable();
}

TEST(QueryServerTest, SessionsAreIsolatedFromEachOther) {
  // Session 2 alone must reproduce session 2 served alongside others:
  // nothing another session does may leak into its stream.
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  const std::vector<SessionSpec> specs = MakeSpecs();

  ServingOptions options;
  options.num_workers = 4;
  auto server = QueryServer::Create(*fleet, options);
  ASSERT_TRUE(server.ok());
  auto all = server->Serve(specs);

  // Replay session 2's stream on a standalone QuerySession with the same
  // derived seed and id.
  QuerySessionOptions session_options;
  session_options.session_id = 2;
  session_options.seed =
      QueryServer::SessionSeed((*fleet)->options.seed, 2);
  auto session = QuerySession::Create(*fleet, session_options);
  ASSERT_TRUE(session.ok());
  const SessionSpec& spec = specs[1];
  for (size_t q = 0; q < spec.requests.size(); ++q) {
    auto outcome = session->RunQueryMultiRound(
        spec.requests[q].query, spec.policy, spec.data_selectivity,
        spec.rounds);
    ASSERT_TRUE(outcome.ok());
    ExpectIdenticalOutcomes(all[1].outcomes[q], *outcome);
  }
}

TEST(QueryServerTest, SessionFailureIsIsolatedToItsResult) {
  // One bad spec must not fail the batch: the broken session carries the
  // error in its own SessionResult::status while every other stream runs
  // to completion, at any worker count.
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  std::vector<SessionSpec> specs = MakeSpecs();
  specs[1].rounds = 0;  // Session 2's first query fails validation.

  for (size_t workers : {size_t{0}, size_t{4}}) {
    ServingOptions options;
    options.num_workers = workers;
    auto server = QueryServer::Create(*fleet, options);
    ASSERT_TRUE(server.ok());
    auto results = server->Serve(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (size_t s = 0; s < results.size(); ++s) {
      const SessionResult& session = results[s];
      EXPECT_EQ(session.session_id, s + 1);
      if (s == 1) {
        EXPECT_FALSE(session.status.ok());
        EXPECT_NE(session.status.ToString().find("rounds"), std::string::npos)
            << session.status.ToString();
        EXPECT_TRUE(session.outcomes.empty());
        EXPECT_EQ(session.queries_run, 0u);
      } else {
        EXPECT_TRUE(session.status.ok()) << session.status.ToString();
        EXPECT_EQ(session.outcomes.size(), specs[s].requests.size());
        EXPECT_GT(session.queries_run, 0u);
      }
    }
  }
}

TEST(QueryServerTest, ServingLeavesDefaultSessionUntouched) {
  // Twin fleets with a default session each, one fleet also served: its
  // session must stay in lockstep with the undisturbed twin, and neither
  // its network nor the fleet's environment network may record any
  // serving traffic (server sessions account in their own networks).
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  auto twin_fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  ASSERT_TRUE(twin_fleet.ok());
  auto session = QuerySession::Create(*fleet, QuerySessionOptions{});
  auto twin = QuerySession::Create(*twin_fleet, QuerySessionOptions{});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(twin.ok());
  auto check_lockstep = [&] {
    auto a = session->RunQuery(QueryOver(0, 10, 3),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
    auto b = twin->RunQuery(QueryOver(0, 10, 3),
                            selection::PolicyKind::kQueryDriven,
                            /*data_selectivity=*/true);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectIdenticalOutcomes(*a, *b);
  };
  check_lockstep();
  const size_t environment_bytes =
      (*fleet)->environment.network().total_bytes();
  const size_t session_bytes = session->network().total_bytes();

  auto server = QueryServer::Create(*fleet, ServingOptions{});
  ASSERT_TRUE(server.ok());
  server->Serve(MakeSpecs());

  EXPECT_EQ((*fleet)->environment.network().total_bytes(), environment_bytes);
  EXPECT_EQ(session->network().total_bytes(), session_bytes);
  check_lockstep();
}

/// Four request sessions: six requests each, arriving 5 virtual ms apart
/// with the classes cycled, so requests queue and priority scheduling
/// executes them out of request order.
std::vector<SessionSpec> MakeRequestSpecs() {
  constexpr QueryClass kPattern[] = {QueryClass::kBatch, QueryClass::kStandard,
                                     QueryClass::kInteractive};
  std::vector<SessionSpec> specs;
  for (size_t s = 0; s < 4; ++s) {
    SessionSpec spec;
    spec.rounds = 1 + s % 2;
    for (size_t q = 0; q < 6; ++q) {
      QueryRequest request;
      request.query = QueryOver(0, 6.0 + static_cast<double>(s + q % 3),
                                100 * (s + 1) + q);
      request.query_class = kPattern[q % 3];
      request.arrival_s = 0.005 * static_cast<double>(q);
      spec.requests.push_back(std::move(request));
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(QueryServerTest, VirtualLatencyHistogramEqualAtEveryWorkerCount) {
  // Workers finish sessions in any order; the histogram must not depend on
  // it, down to the bits of its floating-point sum.
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  auto latency_histogram = [&](size_t workers) {
    obs::MetricsRegistry::Enable();
    obs::MetricsRegistry::Get()->Reset();
    ServingOptions options;
    options.num_workers = workers;
    auto server = QueryServer::Create(*fleet, options);
    EXPECT_TRUE(server.ok());
    const std::vector<SessionResult> results =
        server->Serve(MakeRequestSpecs());
    for (const SessionResult& session : results) {
      EXPECT_TRUE(session.status.ok());
    }
    obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get()->Snapshot();
    obs::MetricsRegistry::Disable();
    return snapshot.histograms["serving.vt_latency_seconds"];
  };
  const obs::HistogramSnapshot sequential = latency_histogram(1);
  const obs::HistogramSnapshot pooled = latency_histogram(4);
  EXPECT_EQ(sequential.total, 24u);
  EXPECT_EQ(sequential.total, pooled.total);
  EXPECT_EQ(std::bit_cast<uint64_t>(sequential.sum),
            std::bit_cast<uint64_t>(pooled.sum));
  EXPECT_EQ(sequential.bounds, pooled.bounds);
  EXPECT_EQ(sequential.counts, pooled.counts);
  EXPECT_EQ(sequential.min, pooled.min);
  EXPECT_EQ(sequential.max, pooled.max);
}

}  // namespace
}  // namespace qens::fl
