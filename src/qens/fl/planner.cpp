#include "qens/fl/planner.h"

#include <algorithm>
#include <sstream>

#include "qens/common/rng.h"
#include "qens/common/string_util.h"
#include "qens/ml/model_codec.h"
#include "qens/ml/model_io.h"
#include "qens/query/selectivity_estimator.h"

namespace qens::fl {

std::string QueryPlan::ToString() const {
  std::ostringstream out;
  out << "plan for " << query.ToString() << ": ";
  if (!executable) {
    out << "NOT EXECUTABLE (no supporting data)";
    return out.str();
  }
  out << nodes.size() << " node(s), " << total_supporting_samples
      << " supporting samples, ~"
      << StrFormat("%.0f", total_estimated_rows) << " rows in region, "
      << StrFormat("%.4f", est_round_seconds) << "s round, "
      << est_comm_bytes << " bytes";
  return out.str();
}

Result<QueryPlan> PlanQuery(
    const std::vector<selection::NodeProfile>& profiles,
    const std::vector<double>& capacities, const query::RangeQuery& query,
    const PlannerOptions& options) {
  if (!capacities.empty() && capacities.size() != profiles.size()) {
    return Status::InvalidArgument(
        StrFormat("PlanQuery: %zu capacities for %zu profiles",
                  capacities.size(), profiles.size()));
  }
  QueryPlan plan;
  plan.query = query;

  // Rank and cut exactly like the leader would.
  QENS_ASSIGN_OR_RETURN(std::vector<selection::NodeRank> ranks,
                        selection::RankNodes(profiles, query, options.ranking));
  QENS_ASSIGN_OR_RETURN(
      std::vector<selection::NodeRank> selected,
      selection::SelectQueryDriven(ranks, options.selection));

  // Size of the model that would be broadcast / returned: closed-form from
  // the architecture in both directions, so any instance prices it.
  size_t down_bytes = 0;
  size_t up_bytes = 0;
  if (!profiles.empty() && !profiles[0].clusters.empty()) {
    const size_t input_features = profiles[0].clusters[0].centroid.size();
    if (input_features > 0) {
      Rng rng(1);
      QENS_ASSIGN_OR_RETURN(ml::SequentialModel model,
                            ml::BuildModel(options.hyper, input_features,
                                           &rng));
      if (options.wire.enabled) {
        down_bytes = ml::EncodedModelBytes(model,
                                           ml::DownlinkKind(options.wire),
                                           options.wire.top_k_fraction);
        up_bytes = ml::EncodedModelBytes(model, ml::UplinkKind(options.wire),
                                         options.wire.top_k_fraction);
      } else {
        down_bytes = ml::SerializedModelBytes(model);
        up_bytes = down_bytes;
      }
    }
  }

  const sim::CostModel cost(options.cost);
  double max_train = 0.0;
  for (const auto& rank : selected) {
    if (rank.supporting_clusters == 0) continue;
    NodePlan node;
    node.node_id = rank.node_id;
    node.ranking = rank.ranking;
    node.supporting_clusters = rank.supporting_clusters;
    node.supporting_samples = rank.supporting_samples;

    // Digest-density estimate of the rows actually inside the region.
    const selection::NodeProfile* profile = nullptr;
    for (const auto& p : profiles) {
      if (p.node_id == rank.node_id) {
        profile = &p;
        break;
      }
    }
    if (profile == nullptr) {
      return Status::Internal("PlanQuery: selected node without profile");
    }
    QENS_ASSIGN_OR_RETURN(
        query::NodeSelectivityEstimate estimate,
        query::EstimateNodeSelectivity(profile->clusters, query));
    node.estimated_rows = estimate.estimated_rows;

    const double capacity =
        capacities.empty() ? 1.0 : capacities[rank.node_id];
    node.est_train_seconds = cost.TrainingSeconds(
        node.supporting_samples, options.epochs_per_cluster, capacity);
    max_train = std::max(max_train, node.est_train_seconds);

    plan.total_supporting_samples += node.supporting_samples;
    plan.total_estimated_rows += node.estimated_rows;
    plan.est_comm_bytes += down_bytes + up_bytes;
    plan.nodes.push_back(std::move(node));
  }

  plan.executable = !plan.nodes.empty();
  if (plan.executable) {
    // Participants train in parallel; transfers are per node.
    plan.est_round_seconds =
        max_train + cost.RoundTripSeconds(down_bytes, up_bytes) *
                        static_cast<double>(plan.nodes.size());
  }
  return plan;
}

}  // namespace qens::fl
