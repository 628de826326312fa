#ifndef QENS_QUERY_OVERLAP_H_
#define QENS_QUERY_OVERLAP_H_

/// \file overlap.h
/// The paper's data-overlapping rate h_ik between a query hyper-rectangle
/// and a cluster hyper-rectangle (Section III-C, Eq. 2, Figs. 3–4).
///
/// Per dimension, five cases are enumerated by the paper:
///  1. query interval inside cluster interval
///       h = (q_max - q_min) / (k_max - k_min)                     (Fig. 3a)
///  2. only the query minimum falls inside the cluster
///       h = (k_max - q_min) / (q_max - k_min)                     (Fig. 3b)
///  3. only the query maximum falls inside the cluster
///       h = (q_max - k_min) / (k_max - q_min)                     (Fig. 3c)
///  4. disjoint, query right of cluster (q_min > k_max): h = 0     (Fig. 4a)
///  5. disjoint, query left of cluster (q_max < k_min):  h = 0     (Fig. 4b)
///
/// The configuration "cluster interval strictly inside the query interval"
/// is not enumerated by the paper; we treat it as full coverage of the
/// cluster (h = 1), the limit of case 1 as the cluster shrinks into the
/// query. All ratios are clamped into [0, 1]: the literal case-2/3 formulas
/// can exceed 1 (e.g. a sliver of query sticking out of a wide cluster) or
/// degenerate when the denominator approaches zero.
///
/// A second mode, kNormalizedIntersection, computes
///   h = |q ∩ k| / |k|
/// per dimension (the fraction of the cluster's extent the query covers) —
/// used as an ablation (bench X2) to show the selection behaviour is robust
/// to the exact ratio definition.

#include <string>

#include "qens/common/status.h"
#include "qens/query/hyper_rectangle.h"

namespace qens::query {

/// Which geometric configuration a (query, cluster) interval pair is in.
enum class OverlapCase {
  kQueryInsideCluster,   ///< Case 1 (Fig. 3a).
  kQueryMinInside,       ///< Case 2 (Fig. 3b).
  kQueryMaxInside,       ///< Case 3 (Fig. 3c).
  kDisjointQueryRight,   ///< Case 4 (Fig. 4a): q_min > k_max.
  kDisjointQueryLeft,    ///< Case 5 (Fig. 4b): q_max < k_min.
  kClusterInsideQuery,   ///< Un-enumerated containment; h = 1.
};

/// Printable name of a case ("query-inside-cluster", ...).
const char* OverlapCaseName(OverlapCase c);

/// How the per-dimension ratio is computed.
enum class OverlapMode {
  kFaithful,                ///< The paper's formulas, clamped to [0, 1].
  kNormalizedIntersection,  ///< |q ∩ k| / |k| per dimension.
};

const char* OverlapModeName(OverlapMode m);

/// One dimension's classification and ratio.
struct DimensionOverlap {
  OverlapCase kase = OverlapCase::kDisjointQueryLeft;
  double value = 0.0;  ///< In [0, 1].
};

/// Classify and score one dimension. Both intervals must be valid
/// (lo <= hi); degenerate (zero-length) intervals are handled explicitly.
DimensionOverlap ComputeDimensionOverlap(const Interval& query,
                                         const Interval& cluster,
                                         OverlapMode mode);

/// The paper's Eq. 2: h_ik = (1/d) * sum_d h_ik^d, the sum from 0.0 in
/// ascending d. Fails when dimensionalities differ, are zero, or a box is
/// invalid.
Result<double> ComputeOverlapRate(const HyperRectangle& query,
                                  const HyperRectangle& cluster,
                                  OverlapMode mode = OverlapMode::kFaithful);

}  // namespace qens::query

#endif  // QENS_QUERY_OVERLAP_H_
