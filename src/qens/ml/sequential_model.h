#ifndef QENS_ML_SEQUENTIAL_MODEL_H_
#define QENS_ML_SEQUENTIAL_MODEL_H_

/// \file sequential_model.h
/// A stack of dense layers — the model family the paper evaluates ("LR" is a
/// single 1-unit dense layer; "NN" adds a 64-unit ReLU hidden layer,
/// Table III). Exposes flat parameter access for serialization (the leader /
/// participant exchange) and parameter-space aggregation (FedAvg extension).

#include <span>
#include <vector>

#include "qens/common/rng.h"
#include "qens/common/status.h"
#include "qens/ml/dense_layer.h"
#include "qens/ml/loss.h"
#include "qens/tensor/matrix.h"

namespace qens::ml {

/// Training buffers for one model: each layer's LayerBuffers and
/// DenseGradients plus the loss gradient. Owned by a Trainer, sized on first
/// use and reused by every batch of every Fit, so steady-state training
/// never touches the allocator. Not shareable between concurrent steps.
struct TrainWorkspace {
  std::vector<LayerBuffers> layers;
  std::vector<DenseGradients> grads;
  Matrix loss_grad;  ///< dL/dprediction on the generic (unfused) path.
  Matrix sweep_tile;  ///< The hidden-layer sweep's row-block tile
                      ///< (kHiddenSweepRows x H).
  Matrix batch_x;     ///< Trainer::Fit's gathered mini-batch features
                      ///< (the fused LR fit gathers none).
  Matrix batch_y;     ///< Trainer::Fit's gathered mini-batch targets.
};

/// Add one layer's parameter count, in * out + out, to *total. Returns
/// false and leaves *total unchanged when the sum does not fit a size_t.
/// Decoders sum a header's layers with it before building any layer.
bool AddLayerParameterCount(size_t in_features, size_t out_features,
                            size_t* total);

/// Feed-forward network: layers applied in order. Holds only parameters;
/// every training pass is const and writes into a TrainWorkspace.
class SequentialModel {
 public:
  SequentialModel() = default;

  /// Append a layer. The first layer fixes the input width; subsequent
  /// layers must chain (in == previous out).
  Status AddLayer(size_t in_features, size_t out_features, Activation act);

  size_t num_layers() const { return layers_.size(); }
  const DenseLayer& layer(size_t i) const { return layers_[i]; }
  DenseLayer& layer(size_t i) { return layers_[i]; }

  /// Input/output widths; 0 when the model has no layers.
  size_t input_features() const;
  size_t output_features() const;

  /// Randomize all layer parameters (Glorot uniform, zero bias).
  void InitWeights(Rng* rng);

  /// Inference forward pass: no workspace, one fresh buffer per layer. A
  /// [1 → H, act] → [H → 1, identity] model (IsHiddenSweepPair) runs the
  /// forward half of the hidden-layer sweep instead, bit-identical to the
  /// layer-by-layer pass, with a kHiddenSweepRows x H tile in place of the
  /// batch x H one.
  Result<Matrix> Predict(const Matrix& x) const;

  /// Training forward pass through every layer into `ws` (sized on first
  /// use); the prediction lands in ws->layers.back().out.
  Status ForwardInto(const Matrix& x, TrainWorkspace* ws) const;

  /// Predict into `ws`: the prediction lands in ws->layers.back().out, bit
  /// for bit Predict's, with no allocation once the buffers have grown. A
  /// hidden-sweep model writes only that buffer and ws->sweep_tile, and a
  /// lone linear scalar head (the paper LR) only that buffer, in one pass
  /// (DenseLayer::ScalarHeadPredictInto), so this is not a training
  /// forward: BackwardInto needs ForwardInto.
  Status PredictInto(const Matrix& x, TrainWorkspace* ws) const;

  /// PredictInto for a one-output model, into `out` (x.rows() values)
  /// instead of ws->layers.back().out, bit for bit. The hidden sweep and a
  /// lone linear scalar head write `out` directly; any other model runs
  /// ForwardInto's pass in `ws` and copies its one column, failing with
  /// InvalidArgument when it has more outputs.
  Status PredictColumnInto(const Matrix& x, TrainWorkspace* ws,
                           std::span<double> out) const;

  /// Backprop dL/dprediction (`grad_out`) through the ForwardInto that
  /// filled `ws` for the same `x`; fills ws->grads, one entry per layer.
  /// `grad_out` must not alias a dz or dx buffer of `ws`.
  Status BackwardInto(const Matrix& x, const Matrix& grad_out,
                      TrainWorkspace* ws) const;

  /// One training batch: returns the loss of (x, y) under the current
  /// parameters and writes the per-layer gradients to ws->grads. With MSE
  /// and a linear scalar head (every paper model) the head's forward, loss
  /// and backward run as one fused pass, bit-identical to the generic
  /// ForwardInto + ComputeLoss + ComputeLossGradInto + BackwardInto path
  /// that serves every other model and loss. When the model is exactly
  /// [1 → H, act] → [H → 1, identity] (the paper NN on its one input
  /// feature; a wider input keeps the fused head) the hidden layer joins
  /// that pass too: HiddenSweepMseInto trains both layers in one sweep over
  /// the batch through ws->sweep_tile. The fused paths leave the pre/out
  /// buffers of every layer they cover unwritten — the head's, and on the
  /// sweep the hidden layer's as well — and never materialize the
  /// prediction.
  Result<double> LossAndGradients(LossKind loss, const Matrix& x,
                                  const Matrix& y, TrainWorkspace* ws) const;

  /// Total scalar parameter count across layers.
  size_t ParameterCount() const;

  /// All parameters as one flat vector (layer order, weights then bias).
  std::vector<double> GetParameters() const;

  /// Load parameters from a flat vector; fails unless the size matches
  /// ParameterCount() exactly.
  Status SetParameters(const std::vector<double>& flat);

  /// Deep copy.
  SequentialModel Clone() const { return *this; }

  /// True when the two models have identical layer shapes/activations.
  bool SameArchitecture(const SequentialModel& other) const;

 private:
  /// True for a [1 → H, act] → [H → 1, identity] model.
  bool IsHiddenSweepModel() const {
    return layers_.size() == 2 && IsHiddenSweepPair(layers_[0], layers_[1]);
  }
  /// True for a lone linear scalar head (the paper LR).
  bool IsLoneScalarHead() const {
    return layers_.size() == 1 && layers_[0].IsLinearScalarHead();
  }
  /// Size `ws` for this model; fails on an empty model.
  Status PrepareWorkspace(TrainWorkspace* ws) const;
  /// Forward through layers [0, count).
  Status ForwardLayers(size_t count, const Matrix& x, TrainWorkspace* ws) const;
  /// Backward through layers [0, count) from dL/d(output of layer count-1).
  Status BackwardLayers(size_t count, const Matrix& x, const Matrix& grad_out,
                        TrainWorkspace* ws) const;

  std::vector<DenseLayer> layers_;
};

}  // namespace qens::ml

#endif  // QENS_ML_SEQUENTIAL_MODEL_H_
