#ifndef QENS_CLUSTERING_KMEANS_H_
#define QENS_CLUSTERING_KMEANS_H_

/// \file kmeans.h
/// Lloyd's k-means with k-means++ seeding — the node-local quantization step
/// of Eq. (1): min over centroids of sum_k sum_j ||xi_j - u_k||^2. The paper
/// uses K = 5 clusters per node (Section V-A). Fit runs on the calling
/// thread: each node quantizes only its own rows (hundreds at paper scale).

#include <cstdint>
#include <vector>

#include "qens/common/rng.h"
#include "qens/common/status.h"
#include "qens/clustering/cluster_summary.h"
#include "qens/tensor/matrix.h"

namespace qens::clustering {

/// How initial centroids are chosen.
enum class KMeansInit {
  kKMeansPlusPlus,  ///< D^2-weighted seeding (default; fewer bad optima).
  kRandomPoints,    ///< k distinct data points uniformly at random.
};

/// Configuration for one KMeans::Fit call.
struct KMeansOptions {
  size_t k = 5;            ///< Paper default (Section V-A).
  size_t max_iterations = 100;
  double tolerance = 1e-6;  ///< Stop when max centroid shift <= tolerance.
  KMeansInit init = KMeansInit::kKMeansPlusPlus;
  uint64_t seed = 7;
};

/// Result of a k-means fit.
struct KMeansResult {
  Matrix centroids;                 ///< (k x d).
  std::vector<size_t> assignment;   ///< Row -> cluster id in [0, k).
  double inertia = 0.0;             ///< Eq. (1) objective at convergence.
  size_t iterations = 0;            ///< Lloyd iterations executed.
  bool converged = false;           ///< True when tolerance reached.
  size_t empty_cluster_repairs = 0; ///< Farthest-point re-seeds performed.

  /// Population of each cluster.
  std::vector<size_t> ClusterSizes(size_t k) const;
};

/// k-means driver. Stateless between Fit calls apart from options.
class KMeans {
 public:
  explicit KMeans(KMeansOptions options) : options_(options) {}

  const KMeansOptions& options() const { return options_; }

  /// Cluster the rows of `data` ((m x d), m >= 1, d >= 1).
  /// When k > m, k is effectively reduced to m (each point its own cluster,
  /// remaining clusters empty); the result still reports k centroid rows.
  Result<KMeansResult> Fit(const Matrix& data) const;

  /// Convenience: fit and summarize in one step (what an edge node runs to
  /// produce the digests it ships to the leader).
  Result<std::vector<ClusterSummary>> FitSummaries(const Matrix& data) const;

 private:
  Status Validate(const Matrix& data) const;

  /// Choose initial centroids into `centroids` (k x d).
  void Initialize(const Matrix& data, Rng* rng, Matrix* centroids) const;

  KMeansOptions options_;
};

/// Eq. (1) objective for a given clustering (sum of squared distances of
/// each row to its assigned centroid). Fails on shape/range errors.
Result<double> ComputeInertia(const Matrix& data, const Matrix& centroids,
                              const std::vector<size_t>& assignment);

}  // namespace qens::clustering

#endif  // QENS_CLUSTERING_KMEANS_H_
