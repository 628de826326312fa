#ifndef QENS_SELECTION_NODE_PROFILE_H_
#define QENS_SELECTION_NODE_PROFILE_H_

/// \file node_profile.h
/// The per-node metadata the leader ranks against a query: the node id and
/// the node's K cluster digests. This is everything a node publishes —
/// O(1)-sized w.r.t. its data (Section III-C) — so the leader never sees raw
/// samples (the paper's privacy constraint).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qens/clustering/cluster_summary.h"
#include "qens/clustering/kmeans.h"
#include "qens/common/status.h"
#include "qens/data/dataset.h"

namespace qens::selection {

/// Leader-side observed reliability of a node, accumulated across rounds
/// by whoever coordinates training. NOT part of the shipped digest (no
/// wire-format change): the leader learns it by watching who answers.
struct ReliabilityStats {
  size_t rounds_engaged = 0;    ///< Times the node was selected for a round.
  size_t rounds_completed = 0;  ///< Returned a model within the deadline.
  size_t failures = 0;          ///< Crashed / offline / all sends lost.
  size_t deadline_misses = 0;   ///< Straggled past the round deadline.
  size_t rejections = 0;        ///< Update rejected by the leader's validator.

  /// Completed / engaged; 1.0 for a never-engaged (unobserved) node so
  /// unknown nodes are not penalized. Rejections count as engaged but not
  /// completed, so repeat offenders sink in the reliability ranking.
  double SuccessRate() const;

  void RecordCompleted() { ++rounds_engaged; ++rounds_completed; }
  void RecordFailure() { ++rounds_engaged; ++failures; }
  void RecordDeadlineMiss() { ++rounds_engaged; ++deadline_misses; }
  void RecordRejected() { ++rounds_engaged; ++rejections; }
};

/// A node's published digest: id + cluster summaries.
struct NodeProfile {
  size_t node_id = 0;
  std::string name;
  std::vector<clustering::ClusterSummary> clusters;
  size_t total_samples = 0;

  /// Observed failure/straggle history (leader-side, never serialized).
  ReliabilityStats reliability;

  /// Rounds since the node's local data started drifting away from this
  /// digest without a refresh (leader-side, never serialized; maintained by
  /// the dynamic-fleet layer, 0 in static fleets). Feeds the opt-in
  /// staleness discount in RankingOptions::staleness_weight.
  size_t stale_rounds = 0;

  size_t num_clusters() const { return clusters.size(); }

  /// Bytes the node ships to the leader for ranking (all summaries).
  size_t WireBytes() const;
};

/// Run the node-local quantization step (Eq. 1) and package the result as
/// the profile the node would ship to the leader. K and the k-means seed
/// come from `kmeans_options`.
Result<NodeProfile> BuildNodeProfile(size_t node_id, const std::string& name,
                                     const data::Dataset& local_data,
                                     const clustering::KMeansOptions&
                                         kmeans_options);

/// Profile plus the private cluster membership (kept node-side; used by the
/// data-selectivity mechanism to train only on supporting clusters), held as
/// a cluster -> rows CSR (compressed sparse row) table that QuantizeNode
/// builds with the profile, so a re-quantization rebuilds both.
struct QuantizedNode {
  NodeProfile profile;
  /// Cluster c's rows are cluster_rows[cluster_offsets[c], [c + 1]),
  /// ascending; cluster_offsets has K + 1 entries.
  std::vector<size_t> cluster_offsets;
  std::vector<size_t> cluster_rows;

  /// One cluster's row indices, ascending: a view into the table. Empty for
  /// an empty or out-of-range cluster.
  std::span<const size_t> RowsOfCluster(size_t c) const {
    if (c >= profile.clusters.size()) return {};
    return {cluster_rows.data() + cluster_offsets[c],
            cluster_rows.data() + cluster_offsets[c + 1]};
  }
};

/// Quantize a node's data keeping the private cluster -> rows table.
Result<QuantizedNode> QuantizeNode(size_t node_id, const std::string& name,
                                   const data::Dataset& local_data,
                                   const clustering::KMeansOptions&
                                       kmeans_options);

}  // namespace qens::selection

#endif  // QENS_SELECTION_NODE_PROFILE_H_
