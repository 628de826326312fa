#include "qens/ml/trainer.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "qens/common/rng.h"
#include "qens/common/split_rng.h"
#include "qens/common/string_util.h"
#include "qens/obs/metrics.h"
#include "qens/obs/trace.h"

namespace qens::ml {

Trainer::Trainer(std::unique_ptr<Optimizer> optimizer, TrainOptions options)
    : optimizer_(std::move(optimizer)), options_(options) {
  assert(optimizer_ != nullptr);
}

Result<double> Trainer::TrainBatch(SequentialModel* model, const Matrix& x,
                                   const Matrix& y) {
  QENS_ASSIGN_OR_RETURN(
      double loss, model->LossAndGradients(x, y, &workspace_));
  QENS_RETURN_NOT_OK(optimizer_->Step(model, workspace_.grads));
  return loss;
}

namespace {

/// Rows `ids` of x and y into (*xb, *yb), in order: an exact copy of each
/// row. Unchecked — every id was checked against x.rows() when the fit began.
void GatherBatch(const Matrix& x, const Matrix& y, std::span<const size_t> ids,
                 Matrix* xb, Matrix* yb) {
  const size_t xc = x.cols();
  const size_t yc = y.cols();
  xb->ResizeUninitialized(ids.size(), xc);
  yb->ResizeUninitialized(ids.size(), yc);
  const double* xs = x.data().data();
  const double* ys = y.data().data();
  double* xd = xb->data().data();
  double* yd = yb->data().data();
  // One feature and one target (the paper NN; the paper's LR reads its
  // rows in place): two plain loads a row. The generic loop below cost
  // about 17 % of paper_lr's training layer while LR still gathered its
  // batches (perfbench, x86-64, GCC 12).
  if (xc == 1 && yc == 1) {
    for (size_t i = 0; i < ids.size(); ++i) {
      xd[i] = xs[ids[i]];
      yd[i] = ys[ids[i]];
    }
    return;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    const size_t r = ids[i];
    for (size_t c = 0; c < xc; ++c) xd[i * xc + c] = xs[r * xc + c];
    for (size_t c = 0; c < yc; ++c) yd[i * yc + c] = ys[r * yc + c];
  }
}

}  // namespace

Result<TrainReport> Trainer::Fit(SequentialModel* model, const Matrix& x,
                                 const Matrix& y) {
  std::vector<size_t> all(x.rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return Fit(model, x, y, all);
}

Result<TrainReport> Trainer::Fit(SequentialModel* model, const Matrix& x,
                                 const Matrix& y,
                                 std::span<const size_t> rows) {
  obs::TraceSpan span("trainer.fit");
  if (rows.empty()) return Status::InvalidArgument("Fit: empty dataset");
  if (x.rows() != y.rows()) {
    return Status::InvalidArgument(StrFormat(
        "Fit: %zu feature rows vs %zu target rows", x.rows(), y.rows()));
  }
  if (model->input_features() != x.cols()) {
    return Status::InvalidArgument(
        StrFormat("Fit: model expects %zu features, data has %zu",
                  model->input_features(), x.cols()));
  }
  if (model->output_features() != y.cols()) {
    return Status::InvalidArgument(
        StrFormat("Fit: model outputs %zu values, targets have %zu",
                  model->output_features(), y.cols()));
  }
  if (options_.validation_split < 0.0 || options_.validation_split >= 1.0) {
    return Status::InvalidArgument("Fit: validation_split outside [0,1)");
  }
  if (options_.batch_size == 0) {
    return Status::InvalidArgument("Fit: batch_size must be > 0");
  }
  if (options_.epochs == 0) {
    return Status::InvalidArgument("Fit: epochs must be > 0");
  }
  for (size_t r : rows) {
    if (r >= x.rows()) {
      return Status::OutOfRange(
          StrFormat("Fit: row id %zu >= %zu rows", r, x.rows()));
    }
  }

  const SplitRng stream(options_.seed);
  const size_t m = rows.size();

  // Initial shuffle of positions into the view, then hold out the tail as
  // the validation set (Keras semantics: validation_split takes the last
  // fraction). The draws depend on m alone, so they are those of a fit on
  // the gathered subset; mapping each position to its row id keeps the
  // order that fit would see.
  std::vector<size_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  if (options_.shuffle) {
    Rng init_rng = stream.Split(RngPurpose::kTrainOrderInit).ToRng();
    init_rng.ShuffleMulShift(&order);
  }
  for (size_t& i : order) i = rows[i];

  size_t n_val = static_cast<size_t>(options_.validation_split *
                                     static_cast<double>(m));
  // Keep at least one training row.
  n_val = std::min(n_val, m - 1);
  const size_t n_train = m - n_val;

  std::vector<size_t> train_rows(
      order.begin(), order.begin() + static_cast<ptrdiff_t>(n_train));
  // The paper's LR under its own optimizer (Table III: one linear scalar
  // head, SGD) trains through the optimizer's fused step, straight from the
  // view. Every other model or optimizer gathers each batch and takes
  // TrainBatch.
  SgdOptimizer* fused_lr = nullptr;
  if (model->num_layers() == 1 && model->layer(0).IsLinearScalarHead()) {
    fused_lr = dynamic_cast<SgdOptimizer*>(optimizer_.get());
  }
  Matrix x_val, y_val;
  GatherBatch(x, y, std::span<const size_t>(order).subspan(n_train), &x_val,
              &y_val);

  TrainReport report;
  // Reserved up front so a Fit's allocation count does not grow with its
  // epoch count.
  report.train_loss.reserve(options_.epochs);
  if (n_val > 0) report.val_loss.reserve(options_.epochs);

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    if (options_.shuffle) {
      // Pure function of (seed, epoch): replaying epoch e never depends on
      // how many draws earlier epochs consumed.
      Rng epoch_rng =
          stream.Split(RngPurpose::kMinibatchShuffle).Split(epoch).ToRng();
      epoch_rng.ShuffleMulShift(&train_rows);
    }

    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < n_train; start += options_.batch_size) {
      const size_t end = std::min(start + options_.batch_size, n_train);
      const std::span<const size_t> ids =
          std::span<const size_t>(train_rows).subspan(start, end - start);
      double loss;
      if (fused_lr != nullptr) {
        loss = fused_lr->LinearHeadMseStep(&model->layer(0), x, y, ids);
      } else {
        // The workspace's batch buffers keep their allocation across every
        // batch of every fit (batch shapes repeat).
        GatherBatch(x, y, ids, &workspace_.batch_x, &workspace_.batch_y);
        QENS_ASSIGN_OR_RETURN(
            loss, TrainBatch(model, workspace_.batch_x, workspace_.batch_y));
      }
      epoch_loss += loss;
      ++batches;
      report.samples_seen += end - start;
    }
    report.train_loss.push_back(batches > 0 ? epoch_loss / batches : 0.0);
    ++report.epochs_run;

    if (n_val > 0) {
      // The validation forward reuses the workspace: Predict's math (the
      // sweep's forward half on a sweep model), without a fresh buffer per
      // epoch.
      QENS_RETURN_NOT_OK(model->PredictInto(x_val, &workspace_));
      QENS_ASSIGN_OR_RETURN(
          double vl,
          ComputeLoss(LossKind::kMse, workspace_.layers.back().out, y_val));
      report.val_loss.push_back(vl);
    }
  }
  obs::Count("trainer.fits");
  if (fused_lr != nullptr) obs::Count("trainer.fused_lr_fits");
  obs::Count("trainer.epochs", report.epochs_run);
  obs::Count("trainer.samples_seen", report.samples_seen);
  return report;
}

}  // namespace qens::ml
