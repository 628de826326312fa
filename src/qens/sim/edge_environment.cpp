#include "qens/sim/edge_environment.h"

#include "qens/common/string_util.h"
#include "qens/selection/profile_io.h"

namespace qens::sim {

Result<EdgeEnvironment> EdgeEnvironment::Create(
    std::vector<data::Dataset> node_data, const EnvironmentOptions& options) {
  if (node_data.empty()) {
    return Status::InvalidArgument("environment: no nodes");
  }
  if (options.leader_index >= node_data.size()) {
    return Status::OutOfRange(
        StrFormat("environment: leader index %zu >= %zu",
                  options.leader_index, node_data.size()));
  }

  std::vector<EdgeNode> nodes;
  nodes.reserve(node_data.size());
  for (size_t i = 0; i < node_data.size(); ++i) {
    if (node_data[i].empty()) {
      return Status::InvalidArgument(
          StrFormat("environment: node %zu dataset is empty", i));
    }
    const double capacity =
        options.capacities.empty()
            ? 1.0
            : options.capacities[i % options.capacities.size()];
    if (capacity <= 0.0) {
      return Status::InvalidArgument(
          StrFormat("environment: node %zu capacity must be > 0", i));
    }
    nodes.emplace_back(i, StrFormat("node-%zu", i), std::move(node_data[i]),
                       capacity);
  }

  Network network{CostModel(options.cost)};

  // Quantize every node with a node-specific k-means seed (deterministic,
  // decorrelated) and account the profile upload to the leader.
  for (auto& node : nodes) {
    clustering::KMeansOptions km = options.kmeans;
    km.seed = options.kmeans.seed + 0x9e37 * (node.id() + 1);
    QENS_RETURN_NOT_OK(node.Quantize(km));
    QENS_ASSIGN_OR_RETURN(const selection::NodeProfile* profile,
                          node.profile());
    if (node.id() != options.leader_index) {
      // Ship the actual serialized profile size (the v1 wire codec).
      network.Send(node.id(), options.leader_index,
                   selection::SerializedProfileBytes(*profile), "profile");
    }
  }

  return EdgeEnvironment(std::move(nodes), options.leader_index,
                         std::move(network), options);
}

Result<std::vector<selection::NodeProfile>> EdgeEnvironment::Profiles() const {
  std::vector<selection::NodeProfile> profiles;
  profiles.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    QENS_ASSIGN_OR_RETURN(const selection::NodeProfile* p, node.profile());
    profiles.push_back(*p);
  }
  return profiles;
}

size_t EdgeEnvironment::TotalSamples() const {
  size_t total = 0;
  for (const auto& node : nodes_) total += node.NumSamples();
  return total;
}

Result<query::HyperRectangle> EdgeEnvironment::GlobalDataSpace() const {
  Result<query::HyperRectangle> hull = nodes_[0].local_data().FeatureSpace();
  QENS_RETURN_NOT_OK(hull.status());
  query::HyperRectangle acc = hull.value();
  for (size_t i = 1; i < nodes_.size(); ++i) {
    QENS_ASSIGN_OR_RETURN(query::HyperRectangle space,
                          nodes_[i].local_data().FeatureSpace());
    QENS_ASSIGN_OR_RETURN(acc, acc.Hull(space));
  }
  return acc;
}

}  // namespace qens::sim
