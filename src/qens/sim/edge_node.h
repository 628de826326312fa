#ifndef QENS_SIM_EDGE_NODE_H_
#define QENS_SIM_EDGE_NODE_H_

/// \file edge_node.h
/// A simulated edge computing node: private local dataset, relative compute
/// capacity c_i (Section III-B's C = {c_1, ..., c_N}), and the node-local
/// quantization state (clusters + private membership). The node exposes only
/// its NodeProfile; raw data never crosses the node boundary.

#include <cstdint>
#include <span>
#include <string>

#include "qens/clustering/kmeans.h"
#include "qens/common/status.h"
#include "qens/data/dataset.h"
#include "qens/selection/node_profile.h"

namespace qens::sim {

/// A participant edge node.
class EdgeNode {
 public:
  /// `capacity` is the node's relative compute (1.0 = baseline).
  EdgeNode(size_t id, std::string name, data::Dataset local_data,
           double capacity);

  size_t id() const { return id_; }
  const std::string& name() const { return name_; }
  double capacity() const { return capacity_; }
  size_t NumSamples() const { return data_.NumSamples(); }

  /// The node's private data. Node-side training reads it through the row
  /// ids of ClusterRows(); nothing of it crosses the node boundary.
  const data::Dataset& local_data() const { return data_; }

  /// Run (or re-run) the local quantization (Eq. 1). Must be called before
  /// profile()/ClusterRows(). K and seeding come from `options`.
  Status Quantize(const clustering::KMeansOptions& options);

  /// Swap the node's private data in place (models local data drift). The
  /// replacement must keep the same shape (rows × features). The existing
  /// quantized state is deliberately KEPT: the published digest goes stale
  /// until Quantize() is re-run, which is exactly the drift scenario the
  /// dynamic-fleet layer exercises.
  Status ReplaceLocalData(data::Dataset data);

  bool quantized() const { return quantized_; }

  /// The published digest. Fails when Quantize has not run.
  Result<const selection::NodeProfile*> profile() const;

  /// One cluster's row ids into local_data(), ascending (data selectivity:
  /// the model trains per supporting cluster). A view into the cluster ->
  /// rows table, valid until the next Quantize(). Fails when not quantized
  /// or the cluster id is out of range / empty.
  Result<std::span<const size_t>> ClusterRows(size_t cluster_id) const;

 private:
  size_t id_;
  std::string name_;
  data::Dataset data_;
  double capacity_;
  bool quantized_ = false;
  selection::QuantizedNode quantized_state_;
};

}  // namespace qens::sim

#endif  // QENS_SIM_EDGE_NODE_H_
