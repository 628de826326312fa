#include "qens/query/range_query.h"

#include <sstream>

#include "qens/common/string_util.h"

namespace qens::query {

Result<std::vector<size_t>> RangeQuery::MatchingRows(
    const Matrix& features) const {
  if (features.cols() != region.dims()) {
    return Status::InvalidArgument(
        StrFormat("MatchingRows: query has %zu dims, data has %zu features",
                  region.dims(), features.cols()));
  }
  std::vector<size_t> rows;
  for (size_t r = 0; r < features.rows(); ++r) {
    if (ContainsRow(features.RowPtr(r))) rows.push_back(r);
  }
  return rows;
}

Result<double> RangeQuery::Selectivity(const Matrix& features) const {
  if (features.rows() == 0) return 0.0;
  QENS_ASSIGN_OR_RETURN(std::vector<size_t> rows, MatchingRows(features));
  return static_cast<double>(rows.size()) /
         static_cast<double>(features.rows());
}

std::string RangeQuery::ToString() const {
  std::ostringstream out;
  out << "q" << id << region.ToString();
  return out.str();
}

}  // namespace qens::query
