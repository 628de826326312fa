#include "qens/data/dataset.h"

#include <algorithm>

#include "qens/common/string_util.h"

namespace qens::data {

Result<Dataset> Dataset::Create(Matrix features, Matrix targets,
                                std::vector<std::string> feature_names,
                                std::string target_name) {
  if (features.rows() != targets.rows()) {
    return Status::InvalidArgument(
        StrFormat("Dataset: %zu feature rows vs %zu target rows",
                  features.rows(), targets.rows()));
  }
  if (targets.cols() != 1) {
    return Status::InvalidArgument(
        StrFormat("Dataset: target must be one column, got %zu",
                  targets.cols()));
  }
  if (feature_names.size() != features.cols()) {
    return Status::InvalidArgument(
        StrFormat("Dataset: %zu names for %zu features", feature_names.size(),
                  features.cols()));
  }
  Dataset d;
  d.features_ = std::move(features);
  d.targets_ = std::move(targets);
  d.feature_names_ = std::move(feature_names);
  d.target_name_ = std::move(target_name);
  return d;
}

Result<Dataset> Dataset::Create(Matrix features, Matrix targets) {
  std::vector<std::string> names(features.cols());
  for (size_t i = 0; i < names.size(); ++i) names[i] = StrFormat("f%zu", i);
  return Create(std::move(features), std::move(targets), std::move(names),
                "target");
}

Result<Dataset> Dataset::SelectRows(std::span<const size_t> rows) const {
  const RowView view{this, rows};
  return GatherRows({&view, 1});
}

Result<query::HyperRectangle> Dataset::FeatureSpace() const {
  return query::HyperRectangle::BoundingBox(features_);
}

Result<size_t> Dataset::FeatureIndex(const std::string& name) const {
  for (size_t i = 0; i < feature_names_.size(); ++i) {
    if (feature_names_[i] == name) return i;
  }
  return Status::NotFound("feature not found: '" + name + "'");
}

Result<Dataset> GatherRows(std::span<const RowView> views) {
  if (views.empty()) return Status::InvalidArgument("GatherRows: no views");
  const Dataset& first = *views[0].source;
  const size_t cols = first.NumFeatures();
  size_t total = 0;
  for (const RowView& v : views) {
    if (v.source->NumFeatures() != cols) {
      return Status::InvalidArgument("GatherRows: feature width mismatch");
    }
    for (size_t r : v.rows) {
      if (r >= v.source->NumSamples()) {
        return Status::OutOfRange(StrFormat("GatherRows: row %zu >= %zu", r,
                                            v.source->NumSamples()));
      }
    }
    total += v.rows.size();
  }
  Matrix f(total, cols);
  Matrix t(total, 1);
  size_t out = 0;
  for (const RowView& v : views) {
    for (size_t r : v.rows) {
      std::copy_n(v.source->features().RowPtr(r), cols, f.RowPtr(out));
      t.data()[out++] = v.source->targets().data()[r];
    }
  }
  return Dataset::Create(std::move(f), std::move(t), first.feature_names(),
                         first.target_name());
}

Result<Dataset> StackShards(std::span<const Dataset> shards) {
  std::vector<size_t> all;  // 0, 1, 2, ...: each shard's ids are a prefix.
  for (const Dataset& s : shards) {
    while (all.size() < s.NumSamples()) all.push_back(all.size());
  }
  std::vector<RowView> views;
  for (const Dataset& s : shards) {
    views.push_back({&s, std::span<const size_t>(all).first(s.NumSamples())});
  }
  return GatherRows(views);
}

}  // namespace qens::data
