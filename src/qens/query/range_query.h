#ifndef QENS_QUERY_RANGE_QUERY_H_
#define QENS_QUERY_RANGE_QUERY_H_

/// \file range_query.h
/// An analytics query: a hyper-rectangular data-range request plus the
/// learning task to execute over the data inside the region (Section III-C:
/// "each query represents an analytic task that needs a specific amount of
/// d-dimensional data to be executed").

#include <cstdint>
#include <string>
#include <vector>

#include "qens/common/status.h"
#include "qens/query/hyper_rectangle.h"
#include "qens/tensor/matrix.h"

namespace qens::query {

/// An analytics (range) query over the feature space.
struct RangeQuery {
  uint64_t id = 0;
  HyperRectangle region;  ///< Requested data boundaries over the d features.

  size_t dims() const { return region.dims(); }

  /// True iff the row of dims() values at `row` lies inside the region
  /// (closed intervals). Tests every dimension without branching, so a
  /// scan over rows pays no misprediction on the outcome.
  bool ContainsRow(const double* row) const {
    bool inside = true;
    for (size_t d = 0; d < region.dims(); ++d) {
      const Interval& iv = region.dim(d);
      inside &= (iv.lo <= row[d]) & (row[d] <= iv.hi);
    }
    return inside;
  }

  /// Indices of rows of `features` lying inside the query region.
  /// Fails when the feature width does not match the query dimensionality.
  Result<std::vector<size_t>> MatchingRows(const Matrix& features) const;

  /// Fraction of `features` rows inside the region (0 when empty).
  Result<double> Selectivity(const Matrix& features) const;

  std::string ToString() const;
};

}  // namespace qens::query

#endif  // QENS_QUERY_RANGE_QUERY_H_
