#ifndef QENS_FL_PLANNER_H_
#define QENS_FL_PLANNER_H_

/// \file planner.h
/// Leader-side query planning: BEFORE engaging anyone, predict what a
/// query will cost — which nodes would be selected, how many rows they
/// would train on, how long local training should take, and how many bytes
/// will move. Everything is computed from the published cluster digests
/// and the platform cost model; no node is contacted and no data is read.
///
/// This is the natural composition of the paper's machinery: the ranking
/// (Eqs. 2-4) chooses the nodes, the digests bound the data, and the cost
/// model (Fig. 8's time axis) prices the round. An application can use the
/// plan to tune epsilon / top-l, to budget a query stream, or to reject
/// queries that would touch too little (or too much) data.

#include <cstddef>
#include <string>
#include <vector>

#include "qens/common/status.h"
#include "qens/ml/model_codec.h"
#include "qens/ml/model_factory.h"
#include "qens/query/range_query.h"
#include "qens/selection/node_profile.h"
#include "qens/selection/policies.h"
#include "qens/selection/ranking.h"
#include "qens/sim/cost_model.h"

namespace qens::fl {

/// Planner configuration: the same knobs the federation runs with.
struct PlannerOptions {
  selection::RankingOptions ranking;
  selection::QueryDrivenOptions selection;
  /// Local epochs per supporting cluster (prices the training time).
  size_t epochs_per_cluster = 20;
  /// Model the round would train (prices the model transfer bytes).
  ml::HyperParams hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  sim::CostModelOptions cost;
  /// Must match FederationOptions::wire of the session that will execute
  /// the query: prices both link directions with the codec's closed-form
  /// sizes (down-link absolute codec, up-link delta codec). With the wire
  /// layer off both directions are the raw binary64 size. Either way the
  /// size depends on the architecture alone, so est_comm_bytes matches the
  /// executed transfer exactly.
  ml::WireOptions wire;
};

/// One selected node's predicted contribution.
struct NodePlan {
  size_t node_id = 0;
  double ranking = 0.0;            ///< r_i (Eq. 4).
  size_t supporting_clusters = 0;  ///< K'.
  size_t supporting_samples = 0;   ///< Rows of supporting clusters.
  double estimated_rows = 0.0;     ///< Digest-density rows inside the query.
  double est_train_seconds = 0.0;  ///< Cost-model local training time.
};

/// The full pre-execution plan for one query.
struct QueryPlan {
  query::RangeQuery query;
  std::vector<NodePlan> nodes;        ///< Selected nodes, ranking order.
  size_t total_supporting_samples = 0;
  double total_estimated_rows = 0.0;
  double est_round_seconds = 0.0;     ///< max(node train) + transfers.
  size_t est_comm_bytes = 0;          ///< Model down+up for every node.
  bool executable = false;            ///< False when nothing supports q.

  std::string ToString() const;
};

/// Build the plan. `capacities` aligns with `profiles` by index (empty =
/// all 1.0). Fails on ranking errors (dimension mismatch, bad epsilon).
Result<QueryPlan> PlanQuery(const std::vector<selection::NodeProfile>& profiles,
                            const std::vector<double>& capacities,
                            const query::RangeQuery& query,
                            const PlannerOptions& options);

}  // namespace qens::fl

#endif  // QENS_FL_PLANNER_H_
