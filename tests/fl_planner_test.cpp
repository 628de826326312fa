// Tests for the leader-side query planner: selection consistency, row and
// time estimates, executability, and agreement with actual execution.

#include "qens/fl/planner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "qens/common/rng.h"
#include "qens/fl/query_session.h"

namespace qens::fl {
namespace {

selection::NodeProfile MakeProfile(size_t id, double lo, double hi,
                                   size_t size) {
  selection::NodeProfile p;
  p.node_id = id;
  p.total_samples = size;
  clustering::ClusterSummary c;
  c.centroid = {(lo + hi) / 2};
  c.bounds = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  c.size = size;
  p.clusters.push_back(c);
  return p;
}

query::RangeQuery MakeQuery(double lo, double hi) {
  query::RangeQuery q;
  q.region = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

PlannerOptions DefaultOptions() {
  PlannerOptions options;
  options.ranking.epsilon = 0.1;
  options.selection.top_l = 2;
  options.epochs_per_cluster = 10;
  return options;
}

TEST(PlannerTest, SelectsMatchingNodesOnly) {
  std::vector<selection::NodeProfile> profiles = {
      MakeProfile(0, 0, 10, 100), MakeProfile(1, 100, 110, 100),
      MakeProfile(2, 0, 12, 200)};
  auto plan = PlanQuery(profiles, {}, MakeQuery(0, 10), DefaultOptions());
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->executable);
  ASSERT_EQ(plan->nodes.size(), 2u);
  for (const auto& node : plan->nodes) EXPECT_NE(node.node_id, 1u);
  EXPECT_EQ(plan->total_supporting_samples, 300u);
}

TEST(PlannerTest, RowEstimateTracksCoverage) {
  // Query covers half of node 0's box: ~50 of 100 rows.
  std::vector<selection::NodeProfile> profiles = {MakeProfile(0, 0, 10, 100)};
  auto plan = PlanQuery(profiles, {}, MakeQuery(0, 5), DefaultOptions());
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->executable);
  EXPECT_NEAR(plan->nodes[0].estimated_rows, 50.0, 1e-9);
}

TEST(PlannerTest, NotExecutableWhenNothingSupports) {
  std::vector<selection::NodeProfile> profiles = {MakeProfile(0, 0, 10, 100)};
  auto plan =
      PlanQuery(profiles, {}, MakeQuery(500, 510), DefaultOptions());
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->executable);
  EXPECT_TRUE(plan->nodes.empty());
  EXPECT_NE(plan->ToString().find("NOT EXECUTABLE"), std::string::npos);
}

TEST(PlannerTest, FasterNodesPlanShorterTraining) {
  std::vector<selection::NodeProfile> profiles = {
      MakeProfile(0, 0, 10, 100), MakeProfile(1, 0, 10, 100)};
  auto plan = PlanQuery(profiles, {1.0, 4.0}, MakeQuery(0, 10),
                        DefaultOptions());
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->nodes.size(), 2u);
  const auto& n0 = plan->nodes[0].node_id == 0 ? plan->nodes[0]
                                               : plan->nodes[1];
  const auto& n1 = plan->nodes[0].node_id == 1 ? plan->nodes[0]
                                               : plan->nodes[1];
  EXPECT_GT(n0.est_train_seconds, n1.est_train_seconds);
}

TEST(PlannerTest, CommBytesScaleWithNodeCount) {
  std::vector<selection::NodeProfile> one = {MakeProfile(0, 0, 10, 100)};
  std::vector<selection::NodeProfile> two = {MakeProfile(0, 0, 10, 100),
                                             MakeProfile(1, 0, 10, 100)};
  auto plan1 = PlanQuery(one, {}, MakeQuery(0, 10), DefaultOptions());
  auto plan2 = PlanQuery(two, {}, MakeQuery(0, 10), DefaultOptions());
  ASSERT_TRUE(plan1.ok());
  ASSERT_TRUE(plan2.ok());
  EXPECT_GT(plan1->est_comm_bytes, 0u);
  EXPECT_EQ(plan2->est_comm_bytes, 2 * plan1->est_comm_bytes);
}

TEST(PlannerTest, CapacityMismatchRejected) {
  std::vector<selection::NodeProfile> profiles = {MakeProfile(0, 0, 10, 100)};
  EXPECT_FALSE(
      PlanQuery(profiles, {1.0, 2.0}, MakeQuery(0, 10), DefaultOptions())
          .ok());
}

TEST(PlannerTest, PlanBytesMatchTransportAccounting) {
  // The plan's node choice and sample counts must match what a fault-free
  // query-driven RunQuery does, and its est_comm_bytes the model traffic
  // the run records in the session's network (which holds no profile
  // traffic: that stays in the environment network of the fleet build).
  auto make_node = [&](double offset, uint64_t seed) {
    Rng r(seed);
    Matrix x(200, 1), y(200, 1);
    for (size_t i = 0; i < 200; ++i) {
      x(i, 0) = offset + r.Uniform(0, 10);
      y(i, 0) = 2 * x(i, 0) + r.Gaussian(0, 0.1);
    }
    return data::Dataset::Create(x, y).value();
  };
  FederationOptions fed_options;
  fed_options.environment.kmeans.k = 3;
  fed_options.ranking.epsilon = 0.1;
  fed_options.query_driven.top_l = 2;
  fed_options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  fed_options.hyper.epochs = 10;
  fed_options.epochs_per_cluster = 5;
  fed_options.seed = 9;
  auto fleet = Fleet::Create(
      {make_node(0, 1), make_node(0, 2), make_node(50, 3)}, fed_options);
  ASSERT_TRUE(fleet.ok());
  auto session = QuerySession::Create(*fleet, QuerySessionOptions{});
  ASSERT_TRUE(session.ok());

  query::RangeQuery q = MakeQuery(0, 10);
  auto internal = (*fleet)->InternalQuery(q);
  ASSERT_TRUE(internal.ok());
  PlannerOptions plan_options;
  plan_options.ranking = fed_options.ranking;
  plan_options.selection = fed_options.query_driven;
  plan_options.epochs_per_cluster = fed_options.epochs_per_cluster;
  plan_options.hyper = fed_options.hyper;
  auto profiles = (*fleet)->environment.Profiles();
  ASSERT_TRUE(profiles.ok());
  auto plan = PlanQuery(*profiles, {}, *internal, plan_options);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->executable);

  auto outcome = session->RunQuery(
      q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->skipped);

  // Same node set, same training volume...
  std::vector<size_t> planned;
  for (const auto& n : plan->nodes) planned.push_back(n.node_id);
  std::sort(planned.begin(), planned.end());
  std::vector<size_t> executed = outcome->selected_nodes;
  std::sort(executed.begin(), executed.end());
  EXPECT_EQ(planned, executed);
  EXPECT_EQ(plan->total_supporting_samples, outcome->samples_used);

  // ...and exactly the predicted bytes on the wire, in both directions:
  // every transfer is priced at a size that depends on the architecture
  // alone, so the planner knows the up-link of a model not yet trained.
  const sim::Network& network = session->network();
  const size_t down_bytes = network.BytesWithTag("model-down");
  const size_t up_bytes = network.BytesWithTag("model-up");
  EXPECT_EQ(down_bytes, plan->est_comm_bytes / 2);
  EXPECT_EQ(up_bytes, plan->est_comm_bytes / 2);
  // One down + one up per selected node, nothing else in the session's
  // network.
  EXPECT_EQ(network.total_messages(), 2 * plan->nodes.size());
  EXPECT_EQ(network.total_bytes(), plan->est_comm_bytes);
}

}  // namespace
}  // namespace qens::fl
