#ifndef QENS_DATA_DATASET_H_
#define QENS_DATA_DATASET_H_

/// \file dataset.h
/// A supervised dataset: feature matrix X (m x d), target matrix y (m x 1),
/// and column names. This is what each edge node holds locally (the paper's
/// D_k = {xi_1, ..., xi_m} with xi = (x, y)).

#include <span>
#include <string>
#include <vector>

#include "qens/common/status.h"
#include "qens/query/hyper_rectangle.h"
#include "qens/tensor/matrix.h"

namespace qens::data {

/// Feature/target container with schema metadata.
class Dataset {
 public:
  Dataset() = default;

  /// Construct with validation. Fails when row counts differ, the target is
  /// not a single column, or names do not match the feature width.
  static Result<Dataset> Create(Matrix features, Matrix targets,
                                std::vector<std::string> feature_names,
                                std::string target_name);

  /// Construct with auto-generated names ("f0", "f1", ..., "target").
  static Result<Dataset> Create(Matrix features, Matrix targets);

  size_t NumSamples() const { return features_.rows(); }
  size_t NumFeatures() const { return features_.cols(); }
  bool empty() const { return features_.rows() == 0; }

  const Matrix& features() const { return features_; }
  const Matrix& targets() const { return targets_; }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  const std::string& target_name() const { return target_name_; }

  /// Targets as a flat vector (single column).
  std::vector<double> TargetVector() const { return targets_.Col(0); }

  /// Subset by row indices (features and targets in lock-step).
  Result<Dataset> SelectRows(std::span<const size_t> rows) const;

  /// Tight bounding box of the features — the node's "data space".
  Result<query::HyperRectangle> FeatureSpace() const;

  /// Index of a feature by name; NotFound if absent.
  Result<size_t> FeatureIndex(const std::string& name) const;

 private:
  Matrix features_;
  Matrix targets_;
  std::vector<std::string> feature_names_;
  std::string target_name_;
};

/// Rows of one dataset by id, in the given order: a view, not a copy.
/// Selective data is named by views over one sample store and pooled by one
/// GatherRows, never by appending copied subsets.
struct RowView {
  const Dataset* source = nullptr;  ///< Non-null; outlives the view's use.
  std::span<const size_t> rows;
};

/// Pool every view's rows, view by view, into one dataset sized once, with
/// one exact copy per row; names come from the first view. InvalidArgument
/// on no views or a feature width differing from the first view's,
/// OutOfRange on an id outside its source (both before copying).
Result<Dataset> GatherRows(std::span<const RowView> views);

/// Every row of every shard, shard by shard: GatherRows over whole shards.
Result<Dataset> StackShards(std::span<const Dataset> shards);

}  // namespace qens::data

#endif  // QENS_DATA_DATASET_H_
