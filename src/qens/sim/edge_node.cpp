#include "qens/sim/edge_node.h"

#include "qens/common/string_util.h"

namespace qens::sim {

EdgeNode::EdgeNode(size_t id, std::string name, data::Dataset local_data,
                   double capacity)
    : id_(id),
      name_(std::move(name)),
      data_(std::move(local_data)),
      capacity_(capacity) {}

Status EdgeNode::Quantize(const clustering::KMeansOptions& options) {
  QENS_ASSIGN_OR_RETURN(quantized_state_,
                        selection::QuantizeNode(id_, name_, data_, options));
  quantized_ = true;
  return Status::OK();
}

Status EdgeNode::ReplaceLocalData(data::Dataset data) {
  if (data.NumSamples() != data_.NumSamples() ||
      data.NumFeatures() != data_.NumFeatures()) {
    return Status::InvalidArgument(StrFormat(
        "node %zu: ReplaceLocalData shape mismatch (%zux%zu -> %zux%zu)",
        id_, data_.NumSamples(), data_.NumFeatures(), data.NumSamples(),
        data.NumFeatures()));
  }
  data_ = std::move(data);
  return Status::OK();
}

Result<const selection::NodeProfile*> EdgeNode::profile() const {
  if (!quantized_) {
    return Status::FailedPrecondition(
        StrFormat("node %zu: profile() before Quantize()", id_));
  }
  return &quantized_state_.profile;
}

Result<std::span<const size_t>> EdgeNode::ClusterRows(
    size_t cluster_id) const {
  if (!quantized_) {
    return Status::FailedPrecondition(
        StrFormat("node %zu: ClusterRows() before Quantize()", id_));
  }
  if (cluster_id >= quantized_state_.profile.clusters.size()) {
    return Status::OutOfRange(
        StrFormat("node %zu: cluster %zu out of range", id_, cluster_id));
  }
  const auto rows = quantized_state_.RowsOfCluster(cluster_id);
  if (rows.empty()) {
    return Status::NotFound(
        StrFormat("node %zu: cluster %zu is empty", id_, cluster_id));
  }
  return rows;
}

}  // namespace qens::sim
