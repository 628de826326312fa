#ifndef QENS_ML_TRAINER_H_
#define QENS_ML_TRAINER_H_

/// \file trainer.h
/// Keras-style training loop: epochs, mini-batches, shuffling and a
/// validation split (Table III uses validation split = 0.2, 100 epochs).
///
/// `Trainer::Fit` can be invoked repeatedly on the same model with different
/// data — this is exactly the paper's incremental per-cluster training
/// (Section IV-A "each cluster represents a mini-batch"): the federation
/// layer calls Fit once per supporting cluster, in sequence.
///
/// A fit can read its rows through a row-id view over one sample store
/// (`Fit(model, x, y, rows)`): each cluster trains straight from the node's
/// data, and no subset is copied. The view is exact: it is the same fit, bit
/// for bit, as Fit on `x.SelectRows(rows)` and `y.SelectRows(rows)`.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "qens/common/status.h"
#include "qens/ml/loss.h"
#include "qens/ml/optimizer.h"
#include "qens/ml/sequential_model.h"
#include "qens/tensor/matrix.h"

namespace qens::ml {

/// Knobs for one Fit invocation.
struct TrainOptions {
  size_t epochs = 100;            ///< Paper default (Table III).
  size_t batch_size = 32;         ///< Keras default.
  double validation_split = 0.2;  ///< Fraction held out from the END of the
                                  ///< (shuffled) data, Keras-style.
  bool shuffle = true;            ///< Shuffle once before splitting and then
                                  ///< every epoch (training part only).
  /// Shuffling seed. The initial sample order comes from stream
  /// `SplitRng(seed).Split(kTrainOrderInit)` and epoch e's minibatch order
  /// from `SplitRng(seed).Split(kMinibatchShuffle).Split(e)`: each a pure
  /// function of (seed, epoch), so a fit can be replayed from any epoch
  /// without tracking generator state.
  uint64_t seed = 42;
  LossKind loss = LossKind::kMse;
  /// Stop early when validation loss fails to improve by more than
  /// `min_delta` for `patience` consecutive epochs (0 disables).
  size_t early_stopping_patience = 0;
  double min_delta = 0.0;
};

/// Per-fit training history and counters.
struct TrainReport {
  std::vector<double> train_loss;  ///< One entry per completed epoch.
  std::vector<double> val_loss;    ///< Empty when validation_split == 0.
  size_t samples_seen = 0;         ///< Rows * epochs actually consumed.
  size_t epochs_run = 0;
  bool early_stopped = false;

  double final_train_loss() const {
    return train_loss.empty() ? 0.0 : train_loss.back();
  }
  double final_val_loss() const {
    return val_loss.empty() ? 0.0 : val_loss.back();
  }
};

/// Owns an optimizer and runs Fit passes over a caller-owned model.
class Trainer {
 public:
  /// Takes ownership of `optimizer` (must be non-null).
  Trainer(std::unique_ptr<Optimizer> optimizer, TrainOptions options);

  const TrainOptions& options() const { return options_; }
  TrainOptions& mutable_options() { return options_; }

  /// Train `model` on (x, y). x is (m x d); y is (m x out) or (m x 1).
  /// Fails on shape mismatch, empty data, or a model/feature width clash.
  /// The same as the row-view Fit over every row, in order.
  Result<TrainReport> Fit(SequentialModel* model, const Matrix& x,
                          const Matrix& y);

  /// Train `model` on rows `rows` of (x, y), in that order: the sample set
  /// is the view, and the result equals Fit on the gathered subset bit for
  /// bit. The shuffles draw exactly as for a subset of rows.size() rows;
  /// each batch is gathered from the view into the trainer's workspace.
  /// Every row id is checked once, on entry: an id >= x.rows() fails with
  /// OutOfRange before any step, and an empty view with InvalidArgument.
  /// Ids may repeat.
  Result<TrainReport> Fit(SequentialModel* model, const Matrix& x,
                          const Matrix& y, std::span<const size_t> rows);

  /// One gradient step on a single batch (no split/shuffle). Returns the
  /// batch loss before the update. Computes in the trainer's workspace, so
  /// after the first batch of a shape it makes no heap allocation.
  Result<double> TrainBatch(SequentialModel* model, const Matrix& x,
                            const Matrix& y);

 private:
  std::unique_ptr<Optimizer> optimizer_;
  TrainOptions options_;
  /// Buffers of every training pass. A Trainer serves one model at a time;
  /// concurrent training runs one Trainer (and workspace) per unit.
  TrainWorkspace workspace_;
};

}  // namespace qens::ml

#endif  // QENS_ML_TRAINER_H_
