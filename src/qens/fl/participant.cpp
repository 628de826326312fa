#include "qens/fl/participant.h"

#include <algorithm>
#include <numeric>
#include <span>

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

/// One Fit on rows `rows` of the node's data, added to `result`. A
/// label-poisoning node trains on targets mirrored within the view's own
/// range, y' = lo + hi - y with lo and hi over `rows` alone (per cluster, not
/// per node): the labels stay in-distribution while every trend the honest
/// fit would learn inverts.
Status FitRows(ml::Trainer* trainer, const data::Dataset& local,
               std::span<const size_t> rows, bool poison,
               LocalTrainResult* result) {
  const Matrix& honest = local.targets();  // One column (Dataset invariant).
  Matrix poisoned;
  if (poison && !rows.empty()) {
    double lo = honest(rows[0], 0);
    double hi = lo;
    for (size_t r : rows) {
      lo = std::min(lo, honest(r, 0));
      hi = std::max(hi, honest(r, 0));
    }
    poisoned = honest;
    for (size_t r : rows) poisoned(r, 0) = lo + hi - honest(r, 0);
  }
  QENS_ASSIGN_OR_RETURN(ml::TrainReport report,
                        trainer->Fit(&result->model, local.features(),
                                     poison ? poisoned : honest, rows));
  result->samples_used += rows.size();
  result->samples_seen += report.samples_seen;
  result->cluster_final_loss.push_back(report.final_train_loss());
  return Status::OK();
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
  for (size_t cluster_id : supporting_clusters) {
    QENS_ASSIGN_OR_RETURN(std::span<const size_t> rows,
                          node.ClusterRows(cluster_id));
    QENS_RETURN_NOT_OK(FitRows(trainer.get(), node.local_data(), rows,
                               options.poison_labels, &result));
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
  std::vector<size_t> all(node.NumSamples());
  std::iota(all.begin(), all.end(), 0);
  QENS_RETURN_NOT_OK(FitRows(trainer.get(), node.local_data(), all,
                             options.poison_labels, &result));

  result.sim_train_seconds = cost_model.TrainingSeconds(
      result.samples_used, options.hyper.epochs, node.capacity());
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace qens::fl
