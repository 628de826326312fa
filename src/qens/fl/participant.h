#ifndef QENS_FL_PARTICIPANT_H_
#define QENS_FL_PARTICIPANT_H_

/// \file participant.h
/// The participant-side of one federated round (Section IV): receive the
/// initial global model w from the leader, train it locally — either
/// incrementally over the supporting clusters only (the paper's data
/// selectivity, Section IV-A: "each cluster represents a mini-batch") or on
/// the node's whole dataset (the baseline) — and return the local model
/// w_i^E together with the training cost accounting.

#include <cstdint>
#include <vector>

#include "qens/common/status.h"
#include "qens/ml/model_factory.h"
#include "qens/sim/cost_model.h"
#include "qens/sim/edge_node.h"

namespace qens::fl {

/// Local-training configuration for one participant round.
struct LocalTrainOptions {
  ml::HyperParams hyper;     ///< Model/optimizer config (Table III).
  /// Local epochs E spent on each supporting cluster (the paper's "E rounds
  /// of local iterations on each supporting cluster"). When training on the
  /// whole dataset (no selectivity), `hyper.epochs` is used instead.
  size_t epochs_per_cluster = 20;
  /// Root of the query's local-training streams. A session passes
  /// `session_seed + query.id`; node i's trainer seed is
  /// `SplitRng(seed).Split(i)`, and the trainer keys its shuffles by
  /// (trainer seed, epoch).
  uint64_t seed = 7;
  /// Byzantine label-flip poisoning (sim::CorruptionKind::kLabelFlipPoisoning):
  /// train honestly but on targets mirrored within their observed range
  /// (y' = lo + hi - y). The returned parameters are finite and
  /// plausible-looking, which is what makes this attack hard to screen.
  bool poison_labels = false;
};

/// What the participant sends back (plus local accounting).
struct LocalTrainResult {
  ml::SequentialModel model;       ///< w_i^E.
  size_t samples_used = 0;         ///< Distinct rows trained on.
  size_t samples_total = 0;        ///< Node's full dataset size.
  size_t samples_seen = 0;         ///< rows x epochs consumed.
  double sim_train_seconds = 0.0;  ///< Cost-model training time.
  double wall_seconds = 0.0;       ///< Measured wall time of the C++ fit.
  std::vector<double> cluster_final_loss;  ///< Last train loss per cluster.
};

/// Train `global_model` (copied, not mutated) on the node's supporting
/// clusters, sequentially (cluster-incremental). `supporting_clusters` must
/// be non-empty with valid, non-empty cluster ids.
Result<LocalTrainResult> TrainOnSupportingClusters(
    const sim::EdgeNode& node, const ml::SequentialModel& global_model,
    const std::vector<size_t>& supporting_clusters,
    const LocalTrainOptions& options, const sim::CostModel& cost_model);

/// Baseline: train on the node's entire local dataset (no query awareness).
Result<LocalTrainResult> TrainOnFullData(const sim::EdgeNode& node,
                                         const ml::SequentialModel& global_model,
                                         const LocalTrainOptions& options,
                                         const sim::CostModel& cost_model);

}  // namespace qens::fl

#endif  // QENS_FL_PARTICIPANT_H_
