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
  // dZ = f'(Z) (.) dY, in one pass.
  ApplyActivationGradProduct(activation_, buf->pre, grad_out, &buf->dz);
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
  // header), so the result is bit-identical to it. The rows' dot products
  // are independent add chains, so four rows' chains run at once; the rest
  // of each row — loss, gradient, db, dW, dX — then follows in ascending
  // row order, as in the one-row loop at the end.
  double sq_sum = 0.0;
  double db = 0.0;
  // The scalar tail of row r given its dot product z: the loss term and
  // the gradient g = dL/dz, which db takes at once.
  auto row_grad = [&](double z, size_t r) {
    z += b;
    const double d = z - t[r];
    sq_sum += d * d;
    const double g = 2.0 * d * inv_n;
    db += g;
    return g;
  };
  auto row_dx = [&](double g, size_t r) {
    double* o = dx->RowPtr(r);
    for (size_t k = 0; k < k_in; ++k) o[k] = 0.0 + g * w[k];
  };
  size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const double* x0 = x.RowPtr(r);
    const double* x1 = x.RowPtr(r + 1);
    const double* x2 = x.RowPtr(r + 2);
    const double* x3 = x.RowPtr(r + 3);
    double z0 = 0.0;
    double z1 = 0.0;
    double z2 = 0.0;
    double z3 = 0.0;
    for (size_t k = 0; k < k_in; ++k) {
      const double wk = w[k];
      z0 += x0[k] * wk;
      z1 += x1[k] * wk;
      z2 += x2[k] * wk;
      z3 += x3[k] * wk;
    }
    const double g0 = row_grad(z0, r);
    const double g1 = row_grad(z1, r + 1);
    const double g2 = row_grad(z2, r + 2);
    const double g3 = row_grad(z3, r + 3);
    // Each dW element adds the four rows' terms in ascending row order.
    for (size_t k = 0; k < k_in; ++k) {
      double acc = dw[k];
      acc += x0[k] * g0;
      acc += x1[k] * g1;
      acc += x2[k] * g2;
      acc += x3[k] * g3;
      dw[k] = acc;
    }
    if (dx != nullptr) {
      row_dx(g0, r);
      row_dx(g1, r + 1);
      row_dx(g2, r + 2);
      row_dx(g3, r + 3);
    }
  }
  for (; r < n; ++r) {
    const double* xr = x.RowPtr(r);
    double z = 0.0;
    for (size_t k = 0; k < k_in; ++k) z += xr[k] * w[k];
    const double g = row_grad(z, r);
    for (size_t k = 0; k < k_in; ++k) dw[k] += xr[k] * g;
    if (dx != nullptr) row_dx(g, r);
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
