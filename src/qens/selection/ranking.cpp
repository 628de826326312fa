#include "qens/selection/ranking.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "qens/common/string_util.h"

namespace qens::selection {

std::vector<size_t> NodeRank::SupportingClusterIds() const {
  std::vector<size_t> ids;
  for (const auto& cs : cluster_scores) {
    if (cs.supporting) ids.push_back(cs.cluster_id);
  }
  return ids;
}

Status ScanRanks(std::span<const NodeProfile> profiles,
                 const query::RangeQuery& query, const RankingOptions& options,
                 RankScan* scan) {
  const size_t n = profiles.size();
  scan->nodes.resize(n);
  scan->offsets.resize(n + 1);
  scan->offsets[0] = 0;
  for (size_t p = 0; p < n; ++p) {
    scan->offsets[p + 1] = scan->offsets[p] + profiles[p].clusters.size();
  }
  scan->clusters.resize(scan->offsets[n]);
  scan->order.resize(n);
  if (n == 0) return Status::OK();
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("RankNode: epsilon must be > 0");
  }
  if (options.reliability_weight < 0.0) {
    return Status::InvalidArgument(
        "RankNode: reliability_weight must be >= 0");
  }
  if (options.staleness_weight < 0.0) {
    return Status::InvalidArgument(
        "RankNode: staleness_weight must be >= 0");
  }
  const size_t dims = query.dims();
  const bool query_ok = dims > 0 && query.region.valid();
  const query::Interval* q = query.region.intervals().data();

  for (size_t p = 0; p < n; ++p) {
    const NodeProfile& profile = profiles[p];
    const size_t begin = scan->offsets[p];
    const size_t end = scan->offsets[p + 1];
    if (begin == end) {
      return Status::InvalidArgument(
          StrFormat("RankNode: node %zu has no clusters", profile.node_id));
    }
    NodeRank& rank = scan->nodes[p];
    rank.node_id = profile.node_id;
    rank.potential = 0.0;
    rank.supporting_clusters = 0;
    rank.total_clusters = end - begin;
    rank.supporting_samples = 0;
    rank.total_samples = profile.total_samples;

    for (size_t c = begin; c < end; ++c) {
      const clustering::ClusterSummary& cluster =
          profile.clusters[c - begin];
      ClusterScore& score = scan->clusters[c];
      score.cluster_id = c - begin;
      score.overlap = 0.0;
      score.supporting = false;
      // Empty cluster (possible after k > m quantization): never supports.
      if (cluster.size == 0) continue;
      if (!query_ok || cluster.bounds.dims() != dims ||
          !cluster.bounds.valid()) {
        // The pair ComputeOverlapRate rejects, with its Status.
        return query::ComputeOverlapRate(query.region, cluster.bounds,
                                         options.overlap_mode)
            .status();
      }
      const query::Interval* k = cluster.bounds.intervals().data();
      double acc = 0.0;
      for (size_t d = 0; d < dims; ++d) {
        acc += query::ComputeDimensionOverlap(q[d], k[d], options.overlap_mode)
                   .value;
      }
      score.overlap = acc / static_cast<double>(dims);  // Eq. 2.
      score.supporting = score.overlap >= options.epsilon;
      if (score.supporting) {
        rank.potential += score.overlap;  // Eq. 3.
        ++rank.supporting_clusters;
        rank.supporting_samples += cluster.size;
      }
    }

    // Eq. 4: r_i = p_i * K'/K.
    rank.ranking = rank.potential *
                   static_cast<double>(rank.supporting_clusters) /
                   static_cast<double>(rank.total_clusters);

    // Flaky-node penalty: scale by the observed success rate. With the
    // default weight of 0 the factor is exactly 1 (pow(x, 0) == 1) and the
    // paper's ranking is untouched.
    rank.reliability = profile.reliability.SuccessRate();
    if (options.reliability_weight > 0.0) {
      rank.ranking *= std::pow(rank.reliability, options.reliability_weight);
    }

    // Stale-digest discount: a node whose data drifted s rounds ago without
    // a refresh is ranked on geometry that no longer matches its samples;
    // decay its score by (1/(1+s))^w. Weight 0 (default) leaves Eq. 4
    // untouched.
    rank.stale_rounds = profile.stale_rounds;
    if (options.staleness_weight > 0.0) {
      rank.ranking *=
          std::pow(1.0 / (1.0 + static_cast<double>(rank.stale_rounds)),
                   options.staleness_weight);
    }
  }

  // DESC by ranking, ties by node id, then by profile order: a total order,
  // so the in-place sort gives the stable sort's permutation.
  std::iota(scan->order.begin(), scan->order.end(), size_t{0});
  const std::vector<NodeRank>& nodes = scan->nodes;
  std::sort(scan->order.begin(), scan->order.end(),
            [&nodes](size_t a, size_t b) {
              const NodeRank& x = nodes[a];
              const NodeRank& y = nodes[b];
              if (x.ranking != y.ranking) return x.ranking > y.ranking;
              if (x.node_id != y.node_id) return x.node_id < y.node_id;
              return a < b;
            });
  return Status::OK();
}

std::span<const ClusterScore> ClusterScoresOf(const RankScan& scan, size_t p) {
  return std::span<const ClusterScore>(scan.clusters)
      .subspan(scan.offsets[p], scan.offsets[p + 1] - scan.offsets[p]);
}

namespace {

NodeRank FullRank(const RankScan& scan, size_t p) {
  NodeRank rank = scan.nodes[p];
  const std::span<const ClusterScore> scores = ClusterScoresOf(scan, p);
  rank.cluster_scores.assign(scores.begin(), scores.end());
  return rank;
}

}  // namespace

std::vector<NodeRank> FullRanks(const RankScan& scan) {
  std::vector<NodeRank> ranks;
  ranks.reserve(scan.order.size());
  for (size_t p : scan.order) ranks.push_back(FullRank(scan, p));
  return ranks;
}

Result<NodeRank> RankNode(const NodeProfile& profile,
                          const query::RangeQuery& query,
                          const RankingOptions& options) {
  RankScan scan;
  QENS_RETURN_NOT_OK(ScanRanks(std::span<const NodeProfile>(&profile, 1),
                               query, options, &scan));
  return FullRank(scan, 0);
}

Result<std::vector<NodeRank>> RankNodes(
    const std::vector<NodeProfile>& profiles, const query::RangeQuery& query,
    const RankingOptions& options) {
  RankScan scan;
  QENS_RETURN_NOT_OK(ScanRanks(profiles, query, options, &scan));
  return FullRanks(scan);
}

}  // namespace qens::selection
