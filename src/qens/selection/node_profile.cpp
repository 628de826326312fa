#include "qens/selection/node_profile.h"

#include <numeric>

namespace qens::selection {

double ReliabilityStats::SuccessRate() const {
  if (rounds_engaged == 0) return 1.0;
  return static_cast<double>(rounds_completed) /
         static_cast<double>(rounds_engaged);
}

size_t NodeProfile::WireBytes() const {
  size_t bytes = sizeof(uint64_t) * 2;  // node id + cluster count.
  for (const auto& c : clusters) bytes += c.WireBytes();
  return bytes;
}

Result<NodeProfile> BuildNodeProfile(
    size_t node_id, const std::string& name, const data::Dataset& local_data,
    const clustering::KMeansOptions& kmeans_options) {
  QENS_ASSIGN_OR_RETURN(QuantizedNode q,
                        QuantizeNode(node_id, name, local_data,
                                     kmeans_options));
  return std::move(q.profile);
}

Result<QuantizedNode> QuantizeNode(
    size_t node_id, const std::string& name, const data::Dataset& local_data,
    const clustering::KMeansOptions& kmeans_options) {
  if (local_data.empty()) {
    return Status::InvalidArgument("QuantizeNode: node has no local data");
  }
  clustering::KMeans kmeans(kmeans_options);
  QENS_ASSIGN_OR_RETURN(clustering::KMeansResult fit,
                        kmeans.Fit(local_data.features()));
  QENS_ASSIGN_OR_RETURN(
      std::vector<clustering::ClusterSummary> summaries,
      clustering::SummarizeClusters(local_data.features(), fit.assignment,
                                    kmeans_options.k));
  QuantizedNode out;
  out.profile.node_id = node_id;
  out.profile.name = name;
  out.profile.clusters = std::move(summaries);
  out.profile.total_samples = local_data.NumSamples();
  // Counting sort of the rows by cluster id.
  out.cluster_offsets.assign(kmeans_options.k + 1, 0);
  for (size_t c : fit.assignment) ++out.cluster_offsets[c + 1];
  std::partial_sum(out.cluster_offsets.begin(), out.cluster_offsets.end(),
                   out.cluster_offsets.begin());
  std::vector<size_t> next = out.cluster_offsets;
  out.cluster_rows.resize(fit.assignment.size());
  for (size_t r = 0; r < fit.assignment.size(); ++r) {
    out.cluster_rows[next[fit.assignment[r]]++] = r;
  }
  return out;
}

}  // namespace qens::selection
