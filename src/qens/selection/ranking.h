#ifndef QENS_SELECTION_RANKING_H_
#define QENS_SELECTION_RANKING_H_

/// \file ranking.h
/// The leader-side ranking computation (Section III-C, Eqs. 2–4):
///   h_ik  — overlap rate of cluster k of node i with the query (Eq. 2);
///   supporting clusters — those with h_ik >= epsilon;
///   p_i   = sum of h_ik over supporting clusters (Eq. 3);
///   r_i(q) = p_i * K'/K (Eq. 4), K' = number of supporting clusters.
/// Complexity is O(d) per cluster and O(K d) per node, independent of the
/// node's data size — the paper's "negligible calculations" claim, verified
/// by bench_x1_selection_scalability.

#include <vector>

#include "qens/common/status.h"
#include "qens/query/overlap.h"
#include "qens/query/range_query.h"
#include "qens/selection/node_profile.h"

namespace qens::selection {

/// Ranking configuration.
struct RankingOptions {
  /// Overlap threshold epsilon (> 0): cluster k supports query q iff
  /// h_ik >= epsilon.
  double epsilon = 0.3;
  query::OverlapMode overlap_mode = query::OverlapMode::kFaithful;
  /// Flaky-node penalty exponent (>= 0): the final ranking is scaled by
  /// SuccessRate()^reliability_weight from the profile's observed
  /// failure/straggle history. 0 (default) disables the penalty and
  /// reproduces the paper's Eq. 4 exactly.
  double reliability_weight = 0.0;
  /// Stale-digest discount exponent (>= 0): the final ranking is scaled by
  /// (1 / (1 + stale_rounds))^staleness_weight, where stale_rounds counts
  /// rounds since the node's data drifted away from its published digest
  /// without a cluster refresh (see fl/dynamic_fleet.h). 0 (default)
  /// disables the discount and reproduces the paper's Eq. 4 exactly.
  double staleness_weight = 0.0;
};

/// One cluster's score against a query.
struct ClusterScore {
  size_t cluster_id = 0;
  double overlap = 0.0;     ///< h_ik (Eq. 2).
  bool supporting = false;  ///< h_ik >= epsilon and the cluster is non-empty.
};

/// A node's complete ranking record against one query.
struct NodeRank {
  size_t node_id = 0;
  double potential = 0.0;        ///< p_i (Eq. 3).
  double ranking = 0.0;          ///< r_i(q) (Eq. 4).
  size_t supporting_clusters = 0;  ///< K'.
  size_t total_clusters = 0;       ///< K.
  double reliability = 1.0;        ///< Observed success rate (1 = clean).
  size_t stale_rounds = 0;         ///< Rounds of unpublished drift (0 = fresh).
  std::vector<ClusterScore> cluster_scores;  ///< One per cluster, in order.

  /// Ids of supporting clusters (the data-selectivity set).
  std::vector<size_t> SupportingClusterIds() const;

  /// Samples the node would train on under data selectivity (sum of
  /// supporting cluster sizes, given the profile it was computed from).
  size_t supporting_samples = 0;
  size_t total_samples = 0;
};

/// Rank one node against one query. Fails on dimensional mismatch between
/// the query and the node's cluster boundaries, or epsilon <= 0.
Result<NodeRank> RankNode(const NodeProfile& profile,
                          const query::RangeQuery& query,
                          const RankingOptions& options);

/// Rank every node and sort by descending r_i (ties broken by node id for
/// determinism).
Result<std::vector<NodeRank>> RankNodes(const std::vector<NodeProfile>& profiles,
                                        const query::RangeQuery& query,
                                        const RankingOptions& options);

}  // namespace qens::selection

#endif  // QENS_SELECTION_RANKING_H_
