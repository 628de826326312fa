#ifndef QENS_SELECTION_RANKING_H_
#define QENS_SELECTION_RANKING_H_

/// \file ranking.h
/// The leader-side ranking computation (Section III-C, Eqs. 2–4):
///   h_ik  — overlap rate of cluster k of node i with the query (Eq. 2);
///   supporting clusters — those with h_ik >= epsilon;
///   p_i   = sum of h_ik over supporting clusters (Eq. 3);
///   r_i(q) = p_i * K'/K (Eq. 4), K' = number of supporting clusters.
///
/// There is one implementation, ScanRanks: one pass over every node's
/// cluster boxes, validating the options and the query once per call and
/// each non-empty cluster's box as it is reached, and writing into a reused
/// RankScan. It costs O(d) per cluster, O(K d) per node and O(N K d + N log
/// N) per query, independent of the nodes' data sizes (the paper's
/// "negligible calculations" claim, verified by
/// bench_x1_selection_scalability), and allocates nothing once the scan's
/// buffers have grown. RankNode and RankNodes are wrappers over it that
/// return per-node records with every cluster's score.

#include <cstddef>
#include <span>
#include <vector>

#include "qens/common/status.h"
#include "qens/query/hyper_rectangle.h"
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

  /// Ids of supporting clusters (the data-selectivity set), read from
  /// cluster_scores: empty on a record that carries none, such as
  /// fl::SelectionDecision::all_ranks.
  std::vector<size_t> SupportingClusterIds() const;

  /// Samples the node would train on under data selectivity (sum of
  /// supporting cluster sizes, given the profile it was computed from).
  size_t supporting_samples = 0;
  size_t total_samples = 0;
};

/// One scan's output, kept by the caller and reused across queries.
struct RankScan {
  /// Per profile, in profile order, with cluster_scores left empty.
  std::vector<NodeRank> nodes;
  /// N + 1 entries: profile p's cluster scores are clusters[offsets[p],
  /// offsets[p + 1]), in the CSR (compressed sparse row) layout of
  /// QuantizedNode's rows.
  std::vector<size_t> offsets;
  /// Every cluster's score, profile after profile.
  std::vector<ClusterScore> clusters;
  /// Profile indices, DESC by ranking, ties by ascending node id and then
  /// profile order (RankNodes' stable order).
  std::vector<size_t> order;
};

/// Rank every node of `profiles` against `query`: Eq. 2 per cluster through
/// query::ComputeDimensionOverlap, Eq. 3 and 4 per node in cluster order,
/// then the penalty factors, then the sort. Fails, with the Status
/// RankNodes has always returned, on epsilon <= 0, a negative weight, a
/// node with no clusters, or a non-empty cluster whose box does not match
/// the query (ComputeOverlapRate's Status). No profiles is not an error.
Status ScanRanks(std::span<const NodeProfile> profiles,
                 const query::RangeQuery& query, const RankingOptions& options,
                 RankScan* scan);

/// The scan's cluster scores of profile `p`: a view into scan.clusters.
std::span<const ClusterScore> ClusterScoresOf(const RankScan& scan, size_t p);

/// Every node's record with its cluster_scores, in the scan's order.
std::vector<NodeRank> FullRanks(const RankScan& scan);

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
