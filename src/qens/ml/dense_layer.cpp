#include "qens/ml/dense_layer.h"

#include <algorithm>
#include <cmath>

#include "qens/common/string_util.h"

namespace qens::ml {

DenseLayer::DenseLayer(size_t in_features, size_t out_features,
                       Activation activation)
    : in_features_(in_features),
      out_features_(out_features),
      activation_(activation),
      weights_(in_features, out_features),
      bias_(out_features, 0.0) {}

void DenseLayer::InitGlorot(Rng* rng) {
  const double limit =
      std::sqrt(6.0 / static_cast<double>(in_features_ + out_features_));
  for (double& w : weights_.data()) w = rng->Uniform(-limit, limit);
  std::fill(bias_.begin(), bias_.end(), 0.0);
}

Result<Matrix> DenseLayer::Apply(const Matrix& x) const {
  if (x.cols() != in_features_) {
    return Status::InvalidArgument(
        StrFormat("DenseLayer::Apply: input has %zu features, expected %zu",
                  x.cols(), in_features_));
  }
  Matrix z;
  QENS_RETURN_NOT_OK(x.MatMulAddBiasInto(weights_, bias_, &z));
  ApplyActivation(activation_, z, &z);  // In place: one buffer end to end.
  return z;
}

Status DenseLayer::ForwardInto(const Matrix& x, LayerBuffers* buf) const {
  if (x.cols() != in_features_) {
    return Status::InvalidArgument(StrFormat(
        "DenseLayer::ForwardInto: input has %zu features, expected %zu",
        x.cols(), in_features_));
  }
  QENS_RETURN_NOT_OK(x.MatMulAddBiasInto(weights_, bias_, &buf->pre));
  ApplyActivation(activation_, buf->pre, &buf->out);
  return Status::OK();
}

Status DenseLayer::BackwardInto(const Matrix& x, const Matrix& grad_out,
                                bool want_dx, LayerBuffers* buf,
                                DenseGradients* grads) const {
  if (x.cols() != in_features_ || buf->pre.rows() != x.rows() ||
      buf->pre.cols() != out_features_) {
    return Status::FailedPrecondition(
        "DenseLayer::BackwardInto needs the ForwardInto of the same batch");
  }
  if (grad_out.rows() != x.rows() || grad_out.cols() != out_features_) {
    return Status::InvalidArgument(
        "DenseLayer::BackwardInto: grad shape mismatch");
  }
  // dZ = f'(Z) (.) dY.
  ApplyActivationGrad(activation_, buf->pre, &buf->dz);
  QENS_RETURN_NOT_OK(buf->dz.HadamardInPlace(grad_out));
  // dW = Xᵀ dZ ; db = column sums of dZ ; dX = dZ Wᵀ — both GEMMs via the
  // fused kernels, so no transposed copy of X or W is ever built.
  QENS_RETURN_NOT_OK(x.MatMulTransposedAInto(buf->dz, &grads->d_weights));
  buf->dz.ColSumsInto(&grads->d_bias);
  if (!want_dx) return Status::OK();
  return buf->dz.MatMulTransposedBInto(weights_, &buf->dx);
}

Status DenseLayer::MseHeadInto(const Matrix& x, const Matrix& target,
                               double* loss, DenseGradients* grads,
                               Matrix* dx) const {
  if (!IsLinearScalarHead()) {
    return Status::FailedPrecondition(
        "DenseLayer::MseHeadInto: not a 1-unit identity layer");
  }
  if (x.cols() != in_features_) {
    return Status::InvalidArgument(StrFormat(
        "DenseLayer::MseHeadInto: input has %zu features, expected %zu",
        x.cols(), in_features_));
  }
  if (target.rows() != x.rows() || target.cols() != 1) {
    return Status::InvalidArgument(
        StrFormat("loss: pred %zux1 vs target %zux%zu", x.rows(),
                  target.rows(), target.cols()));
  }
  if (x.rows() == 0) return Status::InvalidArgument("loss: empty inputs");

  const size_t n = x.rows();
  const size_t k_in = in_features_;
  const double* w = weights_.data().data();  // (in x 1): one weight per row.
  const double b = bias_[0];
  const double* t = target.data().data();
  const double inv_n = 1.0 / static_cast<double>(n);
  grads->d_weights.ResizeUninitialized(k_in, 1);
  double* dw = grads->d_weights.data().data();
  std::fill(dw, dw + k_in, 0.0);
  if (dx != nullptr) dx->ResizeUninitialized(n, k_in);

  // Every accumulation below runs in the generic path's order (see the
  // header), so the result is bit-identical to it.
  double sq_sum = 0.0;
  double db = 0.0;
  for (size_t r = 0; r < n; ++r) {
    const double* xr = x.RowPtr(r);
    double z = 0.0;
    for (size_t k = 0; k < k_in; ++k) z += xr[k] * w[k];
    z += b;
    const double d = z - t[r];
    sq_sum += d * d;
    const double g = 2.0 * d * inv_n;
    for (size_t k = 0; k < k_in; ++k) dw[k] += xr[k] * g;
    db += g;
    if (dx != nullptr) {
      double* o = dx->RowPtr(r);
      for (size_t k = 0; k < k_in; ++k) o[k] = 0.0 + g * w[k];
    }
  }
  grads->d_bias.assign(1, db);
  *loss = sq_sum / static_cast<double>(n);
  return Status::OK();
}

Status DenseLayer::ApplyDelta(double alpha, const DenseGradients& delta) {
  QENS_RETURN_NOT_OK(weights_.Axpy(alpha, delta.d_weights));
  if (delta.d_bias.size() != bias_.size()) {
    return Status::InvalidArgument("ApplyDelta: bias size mismatch");
  }
  for (size_t i = 0; i < bias_.size(); ++i) bias_[i] += alpha * delta.d_bias[i];
  return Status::OK();
}

size_t DenseLayer::ParameterCount() const {
  return weights_.size() + bias_.size();
}

void DenseLayer::FlattenParams(std::vector<double>* out) const {
  out->insert(out->end(), weights_.data().begin(), weights_.data().end());
  out->insert(out->end(), bias_.begin(), bias_.end());
}

Status DenseLayer::UnflattenParams(const std::vector<double>& flat,
                                   size_t* offset) {
  const size_t need = ParameterCount();
  if (*offset + need > flat.size()) {
    return Status::InvalidArgument(
        StrFormat("UnflattenParams: need %zu values at offset %zu but flat "
                  "buffer has %zu",
                  need, *offset, flat.size()));
  }
  std::copy(flat.begin() + static_cast<ptrdiff_t>(*offset),
            flat.begin() + static_cast<ptrdiff_t>(*offset + weights_.size()),
            weights_.data().begin());
  *offset += weights_.size();
  std::copy(flat.begin() + static_cast<ptrdiff_t>(*offset),
            flat.begin() + static_cast<ptrdiff_t>(*offset + bias_.size()),
            bias_.begin());
  *offset += bias_.size();
  return Status::OK();
}

}  // namespace qens::ml
