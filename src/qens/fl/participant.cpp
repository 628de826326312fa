#include "qens/fl/participant.h"

#include <algorithm>

#include "qens/common/split_rng.h"
#include "qens/common/stopwatch.h"
#include "qens/common/string_util.h"

namespace qens::fl {
namespace {

/// Build a trainer for local fitting. Local fits disable the validation
/// split: the paper's per-cluster incremental passes are short and the
/// cluster may be small; validation is done leader-side on query-region
/// test data.
Result<std::unique_ptr<ml::Trainer>> LocalTrainer(
    const ml::HyperParams& hyper, size_t epochs,
    const LocalTrainOptions& options, const sim::EdgeNode& node) {
  ml::HyperParams hp = hyper;
  hp.epochs = epochs;
  hp.validation_split = 0.0;
  return ml::BuildTrainer(hp, SplitRng(options.seed).Split(node.id()).key());
}

/// Mirror targets within their observed range: y' = lo + hi - y. Keeps the
/// poisoned labels in-distribution while inverting every trend the honest
/// fit would learn.
Matrix MirrorTargets(const Matrix& y) {
  double lo = y.data().empty() ? 0.0 : y.data()[0];
  double hi = lo;
  for (double v : y.data()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  Matrix flipped = y;
  for (double& v : flipped.data()) v = lo + hi - v;
  return flipped;
}

/// The targets a node trains on: the honest ones by reference (no copy per
/// Fit), or for a label-poisoning node their mirror, built in `*poisoned`.
const Matrix& TrainTargets(const Matrix& honest, bool poison,
                           Matrix* poisoned) {
  if (!poison) return honest;
  *poisoned = MirrorTargets(honest);
  return *poisoned;
}

}  // namespace

Result<LocalTrainResult> TrainOnSupportingClusters(
    const sim::EdgeNode& node, const ml::SequentialModel& global_model,
    const std::vector<size_t>& supporting_clusters,
    const LocalTrainOptions& options, const sim::CostModel& cost_model) {
  if (supporting_clusters.empty()) {
    return Status::InvalidArgument(
        StrFormat("node %zu: no supporting clusters to train on", node.id()));
  }
  if (options.epochs_per_cluster == 0) {
    return Status::InvalidArgument("epochs_per_cluster must be > 0");
  }

  Stopwatch watch;
  LocalTrainResult result;
  result.model = global_model.Clone();
  result.samples_total = node.NumSamples();

  QENS_ASSIGN_OR_RETURN(
      std::unique_ptr<ml::Trainer> trainer,
      LocalTrainer(options.hyper, options.epochs_per_cluster, options, node));

  // Incremental pass: one Fit per supporting cluster, in ranking order as
  // provided — the model carries its weights from cluster to cluster.
  Matrix poisoned;
  for (size_t cluster_id : supporting_clusters) {
    QENS_ASSIGN_OR_RETURN(data::Dataset cluster_data,
                          node.ClusterData(cluster_id));
    const Matrix& targets = TrainTargets(cluster_data.targets(),
                                         options.poison_labels, &poisoned);
    QENS_ASSIGN_OR_RETURN(
        ml::TrainReport report,
        trainer->Fit(&result.model, cluster_data.features(), targets));
    result.samples_used += cluster_data.NumSamples();
    result.samples_seen += report.samples_seen;
    result.cluster_final_loss.push_back(report.final_train_loss());
  }

  result.sim_train_seconds = cost_model.TrainingSeconds(
      result.samples_used, options.epochs_per_cluster, node.capacity());
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

Result<LocalTrainResult> TrainOnFullData(const sim::EdgeNode& node,
                                         const ml::SequentialModel& global_model,
                                         const LocalTrainOptions& options,
                                         const sim::CostModel& cost_model) {
  Stopwatch watch;
  LocalTrainResult result;
  result.model = global_model.Clone();
  result.samples_total = node.NumSamples();

  QENS_ASSIGN_OR_RETURN(
      std::unique_ptr<ml::Trainer> trainer,
      LocalTrainer(options.hyper, options.hyper.epochs, options, node));
  const data::Dataset& local = node.local_data();
  Matrix poisoned;
  const Matrix& targets =
      TrainTargets(local.targets(), options.poison_labels, &poisoned);
  QENS_ASSIGN_OR_RETURN(
      ml::TrainReport report,
      trainer->Fit(&result.model, local.features(), targets));
  result.samples_used = local.NumSamples();
  result.samples_seen = report.samples_seen;
  result.cluster_final_loss.push_back(report.final_train_loss());

  result.sim_train_seconds = cost_model.TrainingSeconds(
      result.samples_used, options.hyper.epochs, node.capacity());
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace qens::fl
