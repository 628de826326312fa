// Session-level contract of the coordinate-keyed streams: every stream
// is a pure function of logical coordinates, so outcomes are bit-identical
// to the sequential run at every pool worker count and across query arrival
// order — including under an active fault plan. Also pins the session seed
// derivation.

#include <gtest/gtest.h>

#include <vector>

#include "qens/common/rng.h"
#include "qens/common/split_rng.h"
#include "qens/fl/query_server.h"
#include "qens/fl/query_session.h"

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

std::vector<data::Dataset> MakeNodes() {
  return {MakeNodeData(0, 2.0, 1), MakeNodeData(2, 2.0, 2),
          MakeNodeData(4, 2.0, 3), MakeNodeData(0, 2.0, 4),
          MakeNodeData(3, 2.0, 5), MakeNodeData(1, 2.0, 6)};
}

Result<QuerySession> MakeSession(const FederationOptions& options) {
  QENS_ASSIGN_OR_RETURN(std::shared_ptr<Fleet> fleet,
                        Fleet::Create(MakeNodes(), options));
  return QuerySession::Create(std::move(fleet), QuerySessionOptions{});
}

FederationOptions BaseOptions() {
  FederationOptions options;
  options.environment.kmeans.k = 3;
  options.ranking.epsilon = 0.1;
  options.query_driven.top_l = 4;
  options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  options.hyper.epochs = 10;
  options.epochs_per_cluster = 5;
  options.seed = 77;
  return options;
}

query::RangeQuery QueryOver(double lo, double hi, uint64_t id) {
  query::RangeQuery q;
  q.id = id;
  q.region = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

void ExpectIdenticalOutcomes(const QueryOutcome& a, const QueryOutcome& b) {
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.selected_nodes, b.selected_nodes);
  EXPECT_EQ(a.round_survivors, b.round_survivors);
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(a.dropped_nodes, b.dropped_nodes);
  if (a.skipped || b.skipped) return;
  EXPECT_DOUBLE_EQ(a.loss_model_avg, b.loss_model_avg);
  EXPECT_DOUBLE_EQ(a.loss_weighted, b.loss_weighted);
  EXPECT_DOUBLE_EQ(a.loss_fedavg, b.loss_fedavg);
  EXPECT_DOUBLE_EQ(a.sim_time_total, b.sim_time_total);
  EXPECT_DOUBLE_EQ(a.sim_time_parallel, b.sim_time_parallel);
  EXPECT_DOUBLE_EQ(a.sim_time_comm, b.sim_time_comm);
}

TEST(SplittableElasticTest, TrainingFanOutBitIdenticalAcrossWorkerCounts) {
  // The same workload sequentially and pooled at several worker counts.
  // Streams are coordinate-keyed, so every run must agree.
  const std::vector<query::RangeQuery> queries = {
      QueryOver(0, 10, 1), QueryOver(2, 8, 2), QueryOver(0, 5, 3)};

  std::vector<QueryOutcome> expected;
  {
    auto fed = MakeSession(BaseOptions());
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    for (const auto& q : queries) {
      auto outcome = fed->RunQuery(
          q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      expected.push_back(*outcome);
    }
    EXPECT_FALSE(expected[0].skipped);
  }

  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    FederationOptions options = BaseOptions();
    options.max_parallel_nodes = workers;
    auto fed = MakeSession(options);
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto outcome = fed->RunQuery(queries[i],
                                   selection::PolicyKind::kQueryDriven,
                                   /*data_selectivity=*/true);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      SCOPED_TRACE(testing::Message() << "workers=" << workers
                                      << " query=" << i);
      ExpectIdenticalOutcomes(expected[i], *outcome);
    }
  }
}

TEST(SplittableElasticTest, FaultyFanOutBitIdenticalAcrossWorkerCounts) {
  // Straggler-heavy fault plan: per-unit work is skewed, so the pool
  // actually steals — and must still match the sequential run bit for bit
  // (fault draws are coordinate-keyed too).
  auto faulty_options = [] {
    FederationOptions options = BaseOptions();
    options.fault_tolerance.enabled = true;
    options.fault_tolerance.faults.seed = 5;
    options.fault_tolerance.faults.straggler_rate = 0.4;
    options.fault_tolerance.faults.dropout_rate = 0.1;
    options.fault_tolerance.faults.message_loss_rate = 0.05;
    return options;
  };
  const std::vector<query::RangeQuery> queries = {QueryOver(0, 10, 1),
                                                  QueryOver(1, 9, 2)};

  std::vector<QueryOutcome> expected;
  {
    auto fed = MakeSession(faulty_options());
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    for (const auto& q : queries) {
      auto outcome = fed->RunQueryMultiRound(q, selection::PolicyKind::kQueryDriven,
                                           /*data_selectivity=*/true, 3);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      expected.push_back(*outcome);
    }
  }

  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    FederationOptions options = faulty_options();
    options.max_parallel_nodes = workers;
    auto fed = MakeSession(options);
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto outcome = fed->RunQueryMultiRound(queries[i], selection::PolicyKind::kQueryDriven,
                              /*data_selectivity=*/true, 3);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      SCOPED_TRACE(testing::Message() << "workers=" << workers << " query="
                                      << i);
      ExpectIdenticalOutcomes(expected[i], *outcome);
    }
  }
}

TEST(SplittableElasticTest, PooledServingBitIdenticalToSequential) {
  auto fleet = Fleet::Create(MakeNodes(), BaseOptions());
  ASSERT_TRUE(fleet.ok());
  // Mixed session sizes so dynamic claiming actually redistributes.
  std::vector<SessionSpec> specs;
  for (size_t s = 0; s < 5; ++s) {
    SessionSpec spec;
    for (uint64_t q = 0; q <= s; ++q) {
      spec.requests.push_back(
          {QueryOver(0, 4.0 + static_cast<double>(s), 100 * (s + 1) + q)});
    }
    specs.push_back(std::move(spec));
  }

  auto sequential = QueryServer::Create(*fleet, ServingOptions{});
  ASSERT_TRUE(sequential.ok());
  auto expected = sequential->Serve(specs);

  for (const size_t workers : {size_t{2}, size_t{4}}) {
    ServingOptions serving;
    serving.num_workers = workers;
    auto server = QueryServer::Create(*fleet, serving);
    ASSERT_TRUE(server.ok());
    auto results = server->Serve(specs);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t s = 0; s < results.size(); ++s) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers
                                      << " session=" << s);
      EXPECT_EQ(results[s].session_id, expected[s].session_id);
      EXPECT_EQ(results[s].comm_bytes, expected[s].comm_bytes);
      ASSERT_EQ(results[s].outcomes.size(), expected[s].outcomes.size());
      for (size_t q = 0; q < results[s].outcomes.size(); ++q) {
        ExpectIdenticalOutcomes(expected[s].outcomes[q],
                                results[s].outcomes[q]);
      }
    }
  }
}

TEST(SplittableElasticTest, QueryOrderInvarianceOfRandomPolicy) {
  // Random-policy streams are keyed by query id, so the same query must
  // select the same nodes regardless of its position in the stream.
  auto run_random = [](const std::vector<query::RangeQuery>& queries,
                       uint64_t want_id) {
    auto fed = MakeSession(BaseOptions());
    EXPECT_TRUE(fed.ok());
    std::vector<size_t> selected;
    for (const auto& q : queries) {
      auto outcome = fed->RunQuery(q, selection::PolicyKind::kRandom,
                                   /*data_selectivity=*/false);
      EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
      if (q.id == want_id) selected = outcome->selected_nodes;
    }
    return selected;
  };
  const auto q1 = QueryOver(0, 10, 41);
  const auto q2 = QueryOver(2, 8, 42);
  const auto q3 = QueryOver(1, 7, 43);
  EXPECT_EQ(run_random({q1, q2, q3}, 42), run_random({q3, q2, q1}, 42));
  EXPECT_EQ(run_random({q2}, 42), run_random({q1, q2, q3}, 42));
}

TEST(SplittableElasticTest, SessionSeedDerivationsPinned) {
  // The session seed is the registered key path.
  EXPECT_EQ(QueryServer::SessionSeed(77, 3),
            SplitRng(77).Split(RngPurpose::kSessionSeed).Split(3).key());
  EXPECT_NE(QueryServer::SessionSeed(77, 3), QueryServer::SessionSeed(77, 4));
}

}  // namespace
}  // namespace qens::fl
