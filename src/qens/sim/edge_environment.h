#ifndef QENS_SIM_EDGE_ENVIRONMENT_H_
#define QENS_SIM_EDGE_ENVIRONMENT_H_

/// \file edge_environment.h
/// The full simulated deployment: N edge nodes with local datasets and
/// capacities, a leader index, the network, and the cost model (the paper's
/// system model, Section III-A/B).

#include <cstdint>
#include <memory>
#include <vector>

#include "qens/clustering/kmeans.h"
#include "qens/common/status.h"
#include "qens/data/dataset.h"
#include "qens/sim/cost_model.h"
#include "qens/sim/edge_node.h"
#include "qens/sim/network.h"

namespace qens::sim {

/// Environment construction knobs.
struct EnvironmentOptions {
  /// Per-node k-means quantization (paper: K = 5).
  clustering::KMeansOptions kmeans;
  CostModelOptions cost;
  /// Relative capacities; cycled when fewer entries than nodes. Empty means
  /// all nodes at capacity 1.0.
  std::vector<double> capacities;
  /// Index of the leader node (the query organizer).
  size_t leader_index = 0;
};

/// Owns the nodes and the network for one deployment.
class EdgeEnvironment {
 public:
  /// Build from per-node datasets. Every node is quantized immediately and
  /// its profile "shipped" to the leader over the network (so the profile
  /// traffic is visible in the counters). Fails on empty input, an empty
  /// node dataset, or an out-of-range leader index.
  static Result<EdgeEnvironment> Create(std::vector<data::Dataset> node_data,
                                        const EnvironmentOptions& options);

  size_t num_nodes() const { return nodes_.size(); }
  size_t leader_index() const { return leader_index_; }

  const EdgeNode& node(size_t i) const { return nodes_[i]; }
  EdgeNode& node(size_t i) { return nodes_[i]; }
  const std::vector<EdgeNode>& nodes() const { return nodes_; }

  /// The profile shipping of Create; nothing is sent here afterwards
  /// (query sessions account their traffic in their own networks).
  const Network& network() const { return network_; }
  const CostModel& cost_model() const { return network_.cost_model(); }

  /// All node profiles, ordered by node id (what the leader ranks against).
  Result<std::vector<selection::NodeProfile>> Profiles() const;

  /// Sum of samples across all nodes.
  size_t TotalSamples() const;

  /// Hull of all nodes' feature spaces — the global data space queries are
  /// generated over.
  Result<query::HyperRectangle> GlobalDataSpace() const;

  const EnvironmentOptions& options() const { return options_; }

 private:
  EdgeEnvironment(std::vector<EdgeNode> nodes, size_t leader_index,
                  Network network, EnvironmentOptions options)
      : nodes_(std::move(nodes)),
        leader_index_(leader_index),
        network_(std::move(network)),
        options_(options) {}

  std::vector<EdgeNode> nodes_;
  size_t leader_index_;
  Network network_;
  EnvironmentOptions options_;
};

}  // namespace qens::sim

#endif  // QENS_SIM_EDGE_ENVIRONMENT_H_
