#include "qens/ml/sequential_model.h"

#include <algorithm>
#include <limits>

#include "qens/common/string_util.h"

namespace qens::ml {

bool AddLayerParameterCount(size_t in_features, size_t out_features,
                            size_t* total) {
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  if (in_features != 0 && out_features > kMax / in_features) return false;
  const size_t weights = in_features * out_features;
  if (weights > kMax - out_features) return false;
  const size_t layer = weights + out_features;
  if (*total > kMax - layer) return false;
  *total += layer;
  return true;
}

Status SequentialModel::AddLayer(size_t in_features, size_t out_features,
                                 Activation act) {
  if (in_features == 0 || out_features == 0) {
    return Status::InvalidArgument("AddLayer: zero-width layer");
  }
  if (!layers_.empty() && layers_.back().out_features() != in_features) {
    return Status::InvalidArgument(StrFormat(
        "AddLayer: in_features %zu does not chain with previous out %zu",
        in_features, layers_.back().out_features()));
  }
  layers_.emplace_back(in_features, out_features, act);
  return Status::OK();
}

size_t SequentialModel::input_features() const {
  return layers_.empty() ? 0 : layers_.front().in_features();
}

size_t SequentialModel::output_features() const {
  return layers_.empty() ? 0 : layers_.back().out_features();
}

void SequentialModel::InitWeights(Rng* rng) {
  for (auto& layer : layers_) layer.InitGlorot(rng);
}

Result<Matrix> SequentialModel::Predict(const Matrix& x) const {
  if (layers_.empty()) {
    return Status::FailedPrecondition("Predict: model has no layers");
  }
  if (IsHiddenSweepModel()) {
    Matrix tile;
    Matrix pred(x.rows(), 1);
    QENS_RETURN_NOT_OK(
        HiddenSweepPredictInto(layers_[0], layers_[1], x, &tile, pred.data()));
    return pred;
  }
  // Apply is const and cache-free, so inference neither copies layers nor
  // touches training state.
  QENS_ASSIGN_OR_RETURN(Matrix cur, layers_[0].Apply(x));
  for (size_t i = 1; i < layers_.size(); ++i) {
    QENS_ASSIGN_OR_RETURN(cur, layers_[i].Apply(cur));
  }
  return cur;
}

namespace {

/// The input of layer i in a training pass: x, or the previous layer's
/// output buffer.
const Matrix& LayerInput(size_t i, const Matrix& x, const TrainWorkspace& ws) {
  return i == 0 ? x : ws.layers[i - 1].out;
}

}  // namespace

Status SequentialModel::PrepareWorkspace(TrainWorkspace* ws) const {
  if (layers_.empty()) {
    return Status::FailedPrecondition("training pass: model has no layers");
  }
  if (ws->layers.size() != layers_.size()) {
    ws->layers.resize(layers_.size());
    ws->grads.resize(layers_.size());
  }
  return Status::OK();
}

Status SequentialModel::ForwardLayers(size_t count, const Matrix& x,
                                      TrainWorkspace* ws) const {
  for (size_t i = 0; i < count; ++i) {
    QENS_RETURN_NOT_OK(
        layers_[i].ForwardInto(LayerInput(i, x, *ws), &ws->layers[i]));
  }
  return Status::OK();
}

Status SequentialModel::BackwardLayers(size_t count, const Matrix& x,
                                       const Matrix& grad_out,
                                       TrainWorkspace* ws) const {
  const Matrix* grad = &grad_out;
  for (size_t i = count; i-- > 0;) {
    // Layer 0's dX has no reader, so it is never computed.
    QENS_RETURN_NOT_OK(layers_[i].BackwardInto(LayerInput(i, x, *ws), *grad,
                                               /*want_dx=*/i > 0,
                                               &ws->layers[i], &ws->grads[i]));
    grad = &ws->layers[i].dx;
  }
  return Status::OK();
}

Status SequentialModel::ForwardInto(const Matrix& x, TrainWorkspace* ws) const {
  QENS_RETURN_NOT_OK(PrepareWorkspace(ws));
  return ForwardLayers(layers_.size(), x, ws);
}

Status SequentialModel::PredictInto(const Matrix& x,
                                    TrainWorkspace* ws) const {
  QENS_RETURN_NOT_OK(PrepareWorkspace(ws));
  Matrix& out = ws->layers.back().out;
  if (IsHiddenSweepModel()) {
    out.ResizeUninitialized(x.rows(), 1);
    return HiddenSweepPredictInto(layers_[0], layers_[1], x, &ws->sweep_tile,
                                  out.data());
  }
  if (IsLoneScalarHead()) {
    out.ResizeUninitialized(x.rows(), 1);
    return layers_[0].ScalarHeadPredictInto(x, out.data());
  }
  return ForwardLayers(layers_.size(), x, ws);
}

Status SequentialModel::PredictColumnInto(const Matrix& x, TrainWorkspace* ws,
                                          std::span<double> out) const {
  QENS_RETURN_NOT_OK(PrepareWorkspace(ws));
  if (IsHiddenSweepModel()) {
    return HiddenSweepPredictInto(layers_[0], layers_[1], x, &ws->sweep_tile,
                                  out);
  }
  if (IsLoneScalarHead()) return layers_[0].ScalarHeadPredictInto(x, out);
  QENS_RETURN_NOT_OK(ForwardLayers(layers_.size(), x, ws));
  const Matrix& pred = ws->layers.back().out;
  if (pred.cols() != 1 || pred.rows() != out.size()) {
    return Status::InvalidArgument(
        StrFormat("PredictColumnInto: %zux%zu prediction for %zu outputs",
                  pred.rows(), pred.cols(), out.size()));
  }
  std::copy(pred.data().begin(), pred.data().end(), out.begin());
  return Status::OK();
}

Status SequentialModel::BackwardInto(const Matrix& x, const Matrix& grad_out,
                                     TrainWorkspace* ws) const {
  QENS_RETURN_NOT_OK(PrepareWorkspace(ws));
  return BackwardLayers(layers_.size(), x, grad_out, ws);
}

Result<double> SequentialModel::LossAndGradients(const Matrix& x,
                                                 const Matrix& y,
                                                 TrainWorkspace* ws) const {
  QENS_RETURN_NOT_OK(PrepareWorkspace(ws));
  if (IsHiddenSweepModel()) {
    double value = 0.0;
    QENS_RETURN_NOT_OK(HiddenSweepMseInto(layers_[0], layers_[1], x, y,
                                          &ws->sweep_tile, &value,
                                          &ws->grads[0], &ws->grads[1]));
    return value;
  }
  const size_t head = layers_.size() - 1;
  if (layers_[head].IsLinearScalarHead()) {
    QENS_RETURN_NOT_OK(ForwardLayers(head, x, ws));
    double value = 0.0;
    Matrix* head_dx = head > 0 ? &ws->layers[head].dx : nullptr;
    QENS_RETURN_NOT_OK(layers_[head].MseHeadInto(
        LayerInput(head, x, *ws), y, &value, &ws->grads[head], head_dx));
    QENS_RETURN_NOT_OK(BackwardLayers(head, x, ws->layers[head].dx, ws));
    return value;
  }
  QENS_RETURN_NOT_OK(ForwardLayers(layers_.size(), x, ws));
  const Matrix& pred = ws->layers.back().out;
  QENS_ASSIGN_OR_RETURN(double value, ComputeLoss(LossKind::kMse, pred, y));
  QENS_RETURN_NOT_OK(ComputeLossGradInto(pred, y, &ws->loss_grad));
  QENS_RETURN_NOT_OK(BackwardLayers(layers_.size(), x, ws->loss_grad, ws));
  return value;
}

size_t SequentialModel::ParameterCount() const {
  size_t n = 0;
  for (const auto& layer : layers_) n += layer.ParameterCount();
  return n;
}

std::vector<double> SequentialModel::GetParameters() const {
  std::vector<double> flat;
  flat.reserve(ParameterCount());
  for (const auto& layer : layers_) layer.FlattenParams(&flat);
  return flat;
}

Status SequentialModel::SetParameters(const std::vector<double>& flat) {
  if (flat.size() != ParameterCount()) {
    return Status::InvalidArgument(
        StrFormat("SetParameters: got %zu values, model has %zu parameters",
                  flat.size(), ParameterCount()));
  }
  size_t offset = 0;
  for (auto& layer : layers_) {
    QENS_RETURN_NOT_OK(layer.UnflattenParams(flat, &offset));
  }
  return Status::OK();
}

bool SequentialModel::SameArchitecture(const SequentialModel& other) const {
  if (layers_.size() != other.layers_.size()) return false;
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].in_features() != other.layers_[i].in_features() ||
        layers_[i].out_features() != other.layers_[i].out_features() ||
        layers_[i].activation() != other.layers_[i].activation()) {
      return false;
    }
  }
  return true;
}

}  // namespace qens::ml
