#ifndef QENS_ML_DENSE_LAYER_H_
#define QENS_ML_DENSE_LAYER_H_

/// \file dense_layer.h
/// Fully-connected layer: Y = f(X * W + b).
///
/// Shapes: X is (batch x in), W is (in x out), b is (out), Y is (batch x out).
/// The layer holds only its parameters. Training passes are const and write
/// into caller-owned buffers (a LayerBuffers, normally one slot of the
/// Trainer's TrainWorkspace), so a layer can be copied, shared read-only or
/// trained by several workspaces without carrying any per-batch state.

#include <cstddef>
#include <span>
#include <vector>

#include "qens/common/rng.h"
#include "qens/common/status.h"
#include "qens/ml/activation.h"
#include "qens/tensor/matrix.h"

namespace qens::ml {

/// Gradients produced by one backward pass through a layer.
struct DenseGradients {
  Matrix d_weights;             ///< Same shape as the layer's weight matrix.
  std::vector<double> d_bias;   ///< Same length as the layer's bias.
};

/// One layer's training buffers. Every pass resizes them in place, so after
/// the first batch of a given shape no pass allocates.
struct LayerBuffers {
  Matrix pre;  ///< Z = X * W + b (batch x out).
  Matrix out;  ///< Y = f(Z) (batch x out).
  Matrix dz;   ///< dL/dZ (batch x out).
  Matrix dx;   ///< dL/dX (batch x in); not written for the first layer.
};

/// A dense (fully connected) layer with an elementwise activation.
class DenseLayer {
 public:
  /// Construct with zeroed parameters. Use InitGlorot to randomize.
  DenseLayer(size_t in_features, size_t out_features, Activation activation);

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }
  Activation activation() const { return activation_; }

  /// Glorot/Xavier-uniform weight init, zero bias (the Keras Dense default,
  /// matching the paper's setup).
  void InitGlorot(Rng* rng);

  /// Inference forward pass: Y = f(X * W + b) in one fresh buffer.
  /// Fails if x.cols() != in_features().
  Result<Matrix> Apply(const Matrix& x) const;

  /// Training forward pass: buf->pre = X * W + b, buf->out = f(pre).
  /// Fails if x.cols() != in_features().
  Status ForwardInto(const Matrix& x, LayerBuffers* buf) const;

  /// Training backward pass for the batch `x` whose ForwardInto filled
  /// `buf`, given dL/dY (`grad_out`, batch x out). Writes dL/dZ to buf->dz,
  /// the parameter gradients to `grads` (d_bias summed in place) and, when
  /// `want_dx`, dL/dX to buf->dx — the first layer of a model skips it
  /// because nothing reads it. Xᵀ·dZ and dZ·Wᵀ use the fused
  /// transposed-operand kernels; no transpose is materialized.
  Status BackwardInto(const Matrix& x, const Matrix& grad_out, bool want_dx,
                      LayerBuffers* buf, DenseGradients* grads) const;

  /// True for a 1-unit identity layer: the linear regression head every
  /// paper model ends in, which MseHeadInto can train in one pass.
  bool IsLinearScalarHead() const {
    return out_features_ == 1 && activation_ == Activation::kIdentity;
  }

  /// Fused MSE training pass for a linear scalar head: one sweep over the
  /// batch computes the prediction, the MSE loss, dW, db and (when `dx` is
  /// non-null) dL/dX. Bit-identical to ForwardInto + ComputeLoss +
  /// ComputeLossGradInto + BackwardInto: z accumulates from 0.0 in
  /// ascending k before the bias is added; the loss sums d*d over ascending
  /// rows and divides by n; the gradient is 2.0*(p-t)*(1/n); dW and db sum
  /// over ascending rows from 0.0; dX is 0.0 + g*w. Requires
  /// IsLinearScalarHead() and target (batch x 1).
  Status MseHeadInto(const Matrix& x, const Matrix& target, double* loss,
                     DenseGradients* grads, Matrix* dx) const;

  /// Inference for a linear scalar head in one pass: out[r] gets
  /// z = (0.0 + Σ_k x(r, k)·w_k) + b for each row r of x, with k ascending.
  /// Bit for bit ForwardInto's output (MatMulAddBiasInto, then the
  /// identity), failing where it fails. Requires IsLinearScalarHead() and
  /// out.size() == x.rows().
  Status ScalarHeadPredictInto(const Matrix& x, std::span<double> out) const;

  /// Apply a parameter delta: W += alpha * dW, b += alpha * db.
  Status ApplyDelta(double alpha, const DenseGradients& delta);

  const Matrix& weights() const { return weights_; }
  Matrix& weights() { return weights_; }
  const std::vector<double>& bias() const { return bias_; }
  std::vector<double>& bias() { return bias_; }

  /// Number of scalar parameters (weights + bias).
  size_t ParameterCount() const;

  /// Append all parameters (row-major weights, then bias) to `out`.
  void FlattenParams(std::vector<double>* out) const;

  /// Read ParameterCount() values from flat[offset...]; advances *offset.
  Status UnflattenParams(const std::vector<double>& flat, size_t* offset);

 private:
  size_t in_features_;
  size_t out_features_;
  Activation activation_;
  Matrix weights_;            // (in x out)
  std::vector<double> bias_;  // (out)
};

/// True when a one-input `hidden` layer feeds a linear scalar head,
/// [1 → H, act] → [H → 1, identity] (the paper NN on its single feature):
/// the pair the hidden-layer sweep below trains and evaluates in one pass
/// over the batch. Wider inputs keep the layer-by-layer chain.
bool IsHiddenSweepPair(const DenseLayer& hidden, const DenseLayer& head);

/// Rows per block of the hidden-layer sweep, and so the rows of its tile.
inline constexpr size_t kHiddenSweepRows = 8;

/// Fused MSE training pass for a hidden-sweep pair: the hidden forward, the
/// head, the loss and both layers' gradients in one sweep over blocks of
/// kHiddenSweepRows rows. Per block one loop over units runs the forward
/// and the head with each vector lane one row: z = (0.0 + x·W) + b and
/// h = f(z) into `tile` (kHiddenSweepRows x H, resized in place), and
/// s += h·v, which gives p = s + c. The loss terms and g = dL/dp follow in
/// row order, then one loop over units adds the rows' terms to dv, dW and
/// db with dZ = f'(z)·(0.0 + g·v). A ragged last block runs the forward on
/// zero-padded inputs and the backward for its real rows only. Every sum
/// starts at 0.0 and runs over ascending j or rows, so the loss and
/// gradients are bit-identical to hidden.ForwardInto, head.ForwardInto,
/// ComputeLoss, ComputeLossGradInto and both layers' BackwardInto. Input
/// checks come first and return the generic chain's codes; no gradient is
/// written on failure.
Status HiddenSweepMseInto(const DenseLayer& hidden, const DenseLayer& head,
                          const Matrix& x, const Matrix& target, Matrix* tile,
                          double* loss, DenseGradients* hidden_grads,
                          DenseGradients* head_grads);

/// Inference through a hidden-sweep pair with the forward half and head of
/// the same sweep, rows as vector lanes: one prediction per row of x into
/// `pred` (x.rows() values), bit-identical to hidden.Apply followed by
/// head.Apply, through a kHiddenSweepRows x H `tile` instead of a batch x H
/// intermediate. The tile is resized in place, so a caller that keeps it
/// predicts without allocating once it has grown.
Status HiddenSweepPredictInto(const DenseLayer& hidden, const DenseLayer& head,
                              const Matrix& x, Matrix* tile,
                              std::span<double> pred);

}  // namespace qens::ml

#endif  // QENS_ML_DENSE_LAYER_H_
