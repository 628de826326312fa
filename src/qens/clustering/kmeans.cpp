#include "qens/clustering/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "qens/common/string_util.h"
#include "qens/obs/metrics.h"
#include "qens/obs/trace.h"
#include "qens/tensor/vector_ops.h"

namespace qens::clustering {
namespace {

/// Squared distance between data row r and centroid row c.
double RowCentroidDist2(const Matrix& data, size_t r, const Matrix& centroids,
                        size_t c) {
  const double* a = data.RowPtr(r);
  const double* b = centroids.RowPtr(c);
  double acc = 0.0;
  for (size_t i = 0; i < data.cols(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

/// Index of the nearest centroid to data row r (ties break low).
size_t NearestCentroid(const Matrix& data, size_t r, const Matrix& centroids,
                       double* out_dist2) {
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centroids.rows(); ++c) {
    const double d = RowCentroidDist2(data, r, centroids, c);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  if (out_dist2 != nullptr) *out_dist2 = best_d;
  return best;
}

}  // namespace

std::vector<size_t> KMeansResult::ClusterSizes(size_t k) const {
  std::vector<size_t> sizes(k, 0);
  for (size_t a : assignment) {
    if (a < k) ++sizes[a];
  }
  return sizes;
}

Status KMeans::Validate(const Matrix& data) const {
  if (data.rows() == 0 || data.cols() == 0) {
    return Status::InvalidArgument("kmeans: empty data");
  }
  if (options_.k == 0) return Status::InvalidArgument("kmeans: k must be > 0");
  if (options_.max_iterations == 0) {
    return Status::InvalidArgument("kmeans: max_iterations must be > 0");
  }
  if (options_.tolerance < 0.0) {
    return Status::InvalidArgument("kmeans: tolerance must be >= 0");
  }
  return Status::OK();
}

void KMeans::Initialize(const Matrix& data, Rng* rng,
                        Matrix* centroids) const {
  const size_t m = data.rows();
  const size_t k = centroids->rows();

  if (options_.init == KMeansInit::kRandomPoints || k >= m) {
    // k distinct points (repeat cyclically if k > m; the duplicates will
    // collapse to empty clusters and be repaired by Lloyd's loop).
    std::vector<size_t> pick =
        rng->SampleWithoutReplacement(m, std::min(k, m));
    for (size_t c = 0; c < k; ++c) {
      const size_t row = pick[c % pick.size()];
      std::copy(data.RowPtr(row), data.RowPtr(row) + data.cols(),
                centroids->RowPtr(c));
    }
    return;
  }

  // k-means++: first centroid uniform, then D^2 weighting.
  std::vector<double> dist2(m, std::numeric_limits<double>::infinity());
  size_t first = static_cast<size_t>(rng->UniformInt(m));
  std::copy(data.RowPtr(first), data.RowPtr(first) + data.cols(),
            centroids->RowPtr(0));
  for (size_t c = 1; c < k; ++c) {
    for (size_t r = 0; r < m; ++r) {
      dist2[r] = std::min(dist2[r], RowCentroidDist2(data, r, *centroids, c - 1));
    }
    const size_t pick = rng->WeightedIndex(dist2);
    std::copy(data.RowPtr(pick), data.RowPtr(pick) + data.cols(),
              centroids->RowPtr(c));
  }
}

Result<KMeansResult> KMeans::Fit(const Matrix& data) const {
  obs::TraceSpan span("kmeans.fit");
  QENS_RETURN_NOT_OK(Validate(data));
  const size_t m = data.rows();
  const size_t d = data.cols();
  const size_t k = options_.k;

  Rng rng(options_.seed);
  KMeansResult result;
  result.centroids = Matrix(k, d);
  Initialize(data, &rng, &result.centroids);
  result.assignment.assign(m, 0);

  Matrix new_centroids(k, d);
  std::vector<size_t> counts(k, 0);

  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    ++result.iterations;

    // Assignment step.
    for (size_t r = 0; r < m; ++r) {
      result.assignment[r] =
          NearestCentroid(data, r, result.centroids, nullptr);
    }

    // Update step.
    new_centroids.Fill(0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t r = 0; r < m; ++r) {
      const size_t c = result.assignment[r];
      ++counts[c];
      const double* src = data.RowPtr(r);
      double* dst = new_centroids.RowPtr(c);
      for (size_t i = 0; i < d; ++i) dst[i] += src[i];
    }
    // Repair distances must be snapshotted before any re-seed mutates
    // `assignment`: scanning against the mutated array re-measures a row
    // just donated to one empty cluster against that cluster's stale old
    // centroid, so a second empty cluster in the same iteration can pick
    // the same row again and the two centroids collapse into duplicates.
    std::vector<double> repair_dist2;
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Empty-cluster repair: re-seed at the point farthest from its
        // assigned centroid (the classic farthest-point heuristic).
        if (repair_dist2.empty()) {
          repair_dist2.resize(m);
          for (size_t r = 0; r < m; ++r) {
            repair_dist2[r] = RowCentroidDist2(data, r, result.centroids,
                                               result.assignment[r]);
          }
        }
        size_t worst_row = 0;
        double worst = -1.0;
        for (size_t r = 0; r < m; ++r) {
          if (repair_dist2[r] > worst) {
            worst = repair_dist2[r];
            worst_row = r;
          }
        }
        std::copy(data.RowPtr(worst_row), data.RowPtr(worst_row) + d,
                  new_centroids.RowPtr(c));
        result.assignment[worst_row] = c;
        // A donated row is consumed for this iteration; it must never seed
        // a second empty cluster.
        repair_dist2[worst_row] = -std::numeric_limits<double>::infinity();
        ++result.empty_cluster_repairs;
      } else {
        double* dst = new_centroids.RowPtr(c);
        const double inv = 1.0 / static_cast<double>(counts[c]);
        for (size_t i = 0; i < d; ++i) dst[i] *= inv;
      }
    }

    // Convergence: maximum centroid displacement.
    double max_shift = 0.0;
    for (size_t c = 0; c < k; ++c) {
      max_shift = std::max(
          max_shift, std::sqrt(RowCentroidDist2(new_centroids, c,
                                                result.centroids, c)));
    }
    result.centroids = new_centroids;
    if (max_shift <= options_.tolerance) {
      result.converged = true;
      break;
    }
  }

  // Final assignment against the last centroids, then the Eq. (1) objective.
  for (size_t r = 0; r < m; ++r) {
    result.assignment[r] = NearestCentroid(data, r, result.centroids, nullptr);
  }
  QENS_ASSIGN_OR_RETURN(
      result.inertia,
      ComputeInertia(data, result.centroids, result.assignment));
  obs::Count("kmeans.fits");
  obs::Count("kmeans.iterations", result.iterations);
  obs::Count("kmeans.empty_cluster_repairs", result.empty_cluster_repairs);
  return result;
}

Result<std::vector<ClusterSummary>> KMeans::FitSummaries(
    const Matrix& data) const {
  QENS_ASSIGN_OR_RETURN(KMeansResult result, Fit(data));
  return SummarizeClusters(data, result.assignment, options_.k);
}

Result<double> ComputeInertia(const Matrix& data, const Matrix& centroids,
                              const std::vector<size_t>& assignment) {
  if (assignment.size() != data.rows()) {
    return Status::InvalidArgument("ComputeInertia: assignment size mismatch");
  }
  if (centroids.cols() != data.cols()) {
    return Status::InvalidArgument("ComputeInertia: dimension mismatch");
  }
  double acc = 0.0;
  for (size_t r = 0; r < data.rows(); ++r) {
    if (assignment[r] >= centroids.rows()) {
      return Status::OutOfRange("ComputeInertia: assignment out of range");
    }
    acc += RowCentroidDist2(data, r, centroids, assignment[r]);
  }
  return acc;
}

}  // namespace qens::clustering
