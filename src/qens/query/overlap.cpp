#include "qens/query/overlap.h"

#include <algorithm>
#include <cassert>

#include "qens/common/string_util.h"

namespace qens::query {
namespace {

double Clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

/// Safe ratio: num/den clamped to [0,1]; `at_degenerate` when den <= 0.
double Ratio(double num, double den, double at_degenerate) {
  if (den <= 0.0) return at_degenerate;
  return Clamp01(num / den);
}

}  // namespace

const char* OverlapCaseName(OverlapCase c) {
  switch (c) {
    case OverlapCase::kQueryInsideCluster:
      return "query-inside-cluster";
    case OverlapCase::kQueryMinInside:
      return "query-min-inside";
    case OverlapCase::kQueryMaxInside:
      return "query-max-inside";
    case OverlapCase::kDisjointQueryRight:
      return "disjoint-query-right";
    case OverlapCase::kDisjointQueryLeft:
      return "disjoint-query-left";
    case OverlapCase::kClusterInsideQuery:
      return "cluster-inside-query";
  }
  return "unknown";
}

const char* OverlapModeName(OverlapMode m) {
  switch (m) {
    case OverlapMode::kFaithful:
      return "faithful";
    case OverlapMode::kNormalizedIntersection:
      return "normalized-intersection";
  }
  return "unknown";
}

DimensionOverlap ComputeDimensionOverlap(const Interval& q, const Interval& k,
                                         OverlapMode mode) {
  assert(q.valid() && k.valid());
  DimensionOverlap out;

  // Cases 4 / 5: disjoint (Fig. 4). Strict inequalities per the paper; a
  // shared endpoint counts as touching, handled by the partial cases below.
  if (q.lo > k.hi) {
    out.kase = OverlapCase::kDisjointQueryRight;
    out.value = 0.0;
    return out;
  }
  if (q.hi < k.lo) {
    out.kase = OverlapCase::kDisjointQueryLeft;
    out.value = 0.0;
    return out;
  }

  const bool cluster_contains_query = k.lo <= q.lo && q.hi <= k.hi;
  const bool query_contains_cluster = q.lo <= k.lo && k.hi <= q.hi;

  if (cluster_contains_query) {
    // Case 1 (Fig. 3a). If both are the same degenerate point, full overlap.
    out.kase = OverlapCase::kQueryInsideCluster;
    if (mode == OverlapMode::kFaithful) {
      out.value = Ratio(q.length(), k.length(), /*at_degenerate=*/1.0);
    } else {
      out.value = Ratio(q.Intersection(k).length(), k.length(), 1.0);
    }
    return out;
  }
  if (query_contains_cluster) {
    // Un-enumerated containment: the query needs everything the cluster
    // has in this dimension.
    out.kase = OverlapCase::kClusterInsideQuery;
    out.value = 1.0;
    return out;
  }
  if (q.lo >= k.lo) {
    // Case 2 (Fig. 3b): only q_min inside the cluster; q sticks out right.
    out.kase = OverlapCase::kQueryMinInside;
    if (mode == OverlapMode::kFaithful) {
      out.value = Ratio(k.hi - q.lo, q.hi - k.lo, /*at_degenerate=*/1.0);
    } else {
      out.value = Ratio(k.hi - q.lo, k.length(), 1.0);
    }
    return out;
  }
  // Case 3 (Fig. 3c): only q_max inside the cluster; q sticks out left.
  out.kase = OverlapCase::kQueryMaxInside;
  if (mode == OverlapMode::kFaithful) {
    out.value = Ratio(q.hi - k.lo, k.hi - q.lo, /*at_degenerate=*/1.0);
  } else {
    out.value = Ratio(q.hi - k.lo, k.length(), 1.0);
  }
  return out;
}

Result<double> ComputeOverlapRate(const HyperRectangle& query,
                                  const HyperRectangle& cluster,
                                  OverlapMode mode) {
  if (query.dims() == 0 || cluster.dims() == 0) {
    return Status::InvalidArgument("overlap: zero-dimensional box");
  }
  if (query.dims() != cluster.dims()) {
    return Status::InvalidArgument(
        StrFormat("overlap: query has %zu dims, cluster has %zu", query.dims(),
                  cluster.dims()));
  }
  if (!query.valid() || !cluster.valid()) {
    return Status::InvalidArgument("overlap: invalid box (min > max)");
  }
  double acc = 0.0;
  for (size_t d = 0; d < query.dims(); ++d) {
    acc += ComputeDimensionOverlap(query.dim(d), cluster.dim(d), mode).value;
  }
  return acc / static_cast<double>(query.dims());  // Eq. 2.
}

}  // namespace qens::query
