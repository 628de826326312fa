#include "qens/ml/dense_layer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "qens/common/string_util.h"
#include "qens/ml/kernel_isa.h"

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

Status DenseLayer::ScalarHeadPredictInto(const Matrix& x,
                                         std::span<double> out) const {
  if (!IsLinearScalarHead()) {
    return Status::FailedPrecondition(
        "DenseLayer::ScalarHeadPredictInto: not a 1-unit identity layer");
  }
  if (x.cols() != in_features_) {
    return Status::InvalidArgument(StrFormat(
        "DenseLayer::ForwardInto: input has %zu features, expected %zu",
        x.cols(), in_features_));
  }
  if (out.size() != x.rows()) {
    return Status::InvalidArgument(
        StrFormat("DenseLayer::ScalarHeadPredictInto: %zu outputs for %zu rows",
                  out.size(), x.rows()));
  }
  const double* w = weights_.data().data();  // (in x 1): one weight per row.
  const double b = bias_[0];
  double* z = out.data();
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.RowPtr(r);
    double acc = 0.0;
    for (size_t k = 0; k < in_features_; ++k) acc += row[k] * w[k];
    z[r] = acc + b;
  }
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

bool IsHiddenSweepPair(const DenseLayer& hidden, const DenseLayer& head) {
  return hidden.in_features() == 1 &&
         hidden.activation() == Activation::kRelu &&
         head.IsLinearScalarHead() &&
         head.in_features() == hidden.out_features();
}

namespace {

/// A hidden-sweep pair's parameters as the sweep reads them.
struct SweepParams {
  size_t units;      ///< H, the hidden width.
  const double* w;   ///< Hidden weights, one per unit (a 1 x H matrix).
  const double* b;   ///< Hidden bias, H.
  const double* v;   ///< Head weights, H (an H x 1 matrix).
  double c;          ///< Head bias.
};

SweepParams ParamsOf(const DenseLayer& hidden, const DenseLayer& head) {
  return {hidden.out_features(), hidden.weights().data().data(),
          hidden.bias().data(), head.weights().data().data(),
          head.bias()[0]};
}

// The sweep works on blocks of kHiddenSweepRows consecutive rows. x has one
// column, so a block's inputs are consecutive values. Each row's sums are
// chains of their own that add in the generic kernels' order, so the
// blocking changes no bit. Each pass is a single branch-free loop over
// units.

/// W doubles, one row per lane (a GCC vector type); each kernel copy uses
/// the width of one of its registers (kernel_isa.h). The types live in a
/// class template because GCC drops `vector_size` from a dependent alias
/// template.
template <size_t W>
struct LaneTypes {
  typedef double Value __attribute__((vector_size(W * sizeof(double))));
  typedef int64_t Mask __attribute__((vector_size(W * sizeof(double))));
};
template <size_t W>
using Lanes = typename LaneTypes<W>::Value;
template <size_t W>
using LaneMask = typename LaneTypes<W>::Mask;

/// z = Relu(z) in every lane, as the compare-mask AND: bit for bit
/// z > 0.0 ? z : 0.0 (a NaN or -0.0 fails the compare and gives +0.0). z is
/// passed by reference: a 32-byte vector argument would make GCC warn of an
/// ABI that differs between the two copies.
template <size_t W>
inline void ReluLanes(Lanes<W>& z) {
  const auto positive = reinterpret_cast<LaneMask<W>>(z > Lanes<W>{});
  z = reinterpret_cast<Lanes<W>>(positive & reinterpret_cast<LaneMask<W>>(z));
}

/// Forward half and head for the kHiddenSweepRows inputs at `x`, each
/// vector lane one row. Per unit j in ascending order:
/// z = (0.0 + x·w(j)) + b(j) — MatMulAddBiasInto's order, the one-term sum
/// from 0.0, then the bias — h = ReLU(z) into the row-major tile `h`
/// (kHiddenSweepRows x H), and s += h·v(j), each lane's sum starting at
/// 0.0 (GemvAccumulate's order). Then pred = s + c.
template <size_t W>
inline void SweepForwardHead(const SweepParams& p, const double* __restrict x,
                             double* __restrict h, double* __restrict pred) {
  static_assert(kHiddenSweepRows % W == 0);
  constexpr size_t kVectors = kHiddenSweepRows / W;
  using V = Lanes<W>;
  const size_t units = p.units;
  V xv[kVectors];
  V s[kVectors];
  for (size_t k = 0; k < kVectors; ++k) {
    std::memcpy(&xv[k], x + k * W, sizeof(V));
    s[k] = V{};
  }
  for (size_t j = 0; j < units; ++j) {
    for (size_t k = 0; k < kVectors; ++k) {
      V hv = (0.0 + xv[k] * p.w[j]) + p.b[j];
      ReluLanes<W>(hv);
      s[k] += hv * p.v[j];
      for (size_t q = 0; q < W; ++q) h[(k * W + q) * units + j] = hv[q];
    }
  }
  for (size_t k = 0; k < kVectors; ++k) {
    const V out = s[k] + p.c;
    std::memcpy(pred + k * W, &out, sizeof(V));
  }
}

/// SweepForwardHead for the `rows` (<= kHiddenSweepRows) inputs at `x`:
/// the tile gets kHiddenSweepRows rows, pred the first `rows` predictions.
/// A ragged tail runs as a full block whose missing inputs are 0.0; lanes
/// never mix, so those rows change nothing and are dropped.
template <size_t W>
inline void SweepBlock(const SweepParams& p, const double* x, size_t rows,
                       double* h, double* pred) {
  if (rows == kHiddenSweepRows) {
    SweepForwardHead<W>(p, x, h, pred);
    return;
  }
  double padded_x[kHiddenSweepRows] = {};
  double padded_pred[kHiddenSweepRows];
  std::copy_n(x, rows, padded_x);
  SweepForwardHead<W>(p, padded_x, h, padded_pred);
  std::copy_n(padded_pred, rows, pred);
}

/// Backward half for the R inputs at `x` given their h tile and head
/// gradients g = dL/dpred: one loop over units adds the rows' terms, in
/// ascending row order, to dv (h·g), db (dZ) and dW (x·dZ), where
/// dZ = ReluSlope(h)·(0.0 + g·v) — the head's dX, then
/// ApplyActivationGradProduct with f'(z) taken from h = ReLU(z).
template <size_t R>
inline void SweepBackward(const SweepParams& p, const double* __restrict x,
                          const double* __restrict h,
                          const double* __restrict g, double* __restrict dw,
                          double* __restrict db, double* __restrict dv) {
  const size_t units = p.units;
  for (size_t j = 0; j < units; ++j) {
    double dz[R];
    double acc_v = dv[j];
    for (size_t q = 0; q < R; ++q) {
      const double hq = h[q * units + j];
      acc_v += hq * g[q];
      dz[q] = ReluSlope(hq) * (0.0 + g[q] * p.v[j]);
    }
    dv[j] = acc_v;
    double acc_b = db[j];
    for (size_t q = 0; q < R; ++q) acc_b += dz[q];
    db[j] = acc_b;
    double acc_w = dw[j];
    for (size_t q = 0; q < R; ++q) acc_w += x[q] * dz[q];
    dw[j] = acc_w;
  }
}

/// A training sweep's operands; dw, db and dv must hold zeros.
struct SweepMseJob {
  SweepParams p;
  const Matrix* x;
  const double* t;
  double* tile;
  double* dw;
  double* db;
  double* dv;
};

/// A prediction sweep's operands.
struct SweepPredictJob {
  SweepParams p;
  const Matrix* x;
  double* tile;
  double* pred;
};

// The one body of each sweep, compiled once per instruction set
// (kernel_isa.h): inline here for the baseline copy, with two lanes, and
// flattened into the target("avx2") copies below, with four.

/// The training sweep over every row of (x, t). Returns the loss and leaves
/// the head's bias gradient in *dc.
template <size_t W>
inline double SweepMse(const SweepMseJob& j, double* dc) {
  const SweepParams& p = j.p;
  const size_t n = j.x->rows();
  const double* xs = j.x->data().data();
  const double inv_n = 1.0 / static_cast<double>(n);
  double sq_sum = 0.0;
  double dc_sum = 0.0;
  for (size_t r = 0; r < n; r += kHiddenSweepRows) {
    const size_t rows = std::min(kHiddenSweepRows, n - r);
    double pred[kHiddenSweepRows];
    SweepBlock<W>(p, xs + r, rows, j.tile, pred);
    // ComputeLoss and ComputeLossGradInto's per-row terms, in row order.
    double g[kHiddenSweepRows];
    for (size_t q = 0; q < rows; ++q) {
      const double diff = pred[q] - j.t[r + q];
      sq_sum += diff * diff;
      g[q] = 2.0 * diff * inv_n;
      dc_sum += g[q];
    }
    if (rows == kHiddenSweepRows) {
      SweepBackward<kHiddenSweepRows>(p, xs + r, j.tile, g, j.dw, j.db, j.dv);
    } else {
      for (size_t q = 0; q < rows; ++q) {
        SweepBackward<1>(p, xs + r + q, j.tile + q * p.units, g + q, j.dw,
                         j.db, j.dv);
      }
    }
  }
  *dc = dc_sum;
  return sq_sum / static_cast<double>(n);
}

/// The forward half over every row of x into pred (x.rows() values).
template <size_t W>
inline void SweepPredict(const SweepPredictJob& j) {
  const size_t n = j.x->rows();
  const double* xs = j.x->data().data();
  for (size_t r = 0; r < n; r += kHiddenSweepRows) {
    SweepBlock<W>(j.p, xs + r, std::min(kHiddenSweepRows, n - r), j.tile,
                  j.pred + r);
  }
}

#if QENS_ML_AVX2_KERNELS
// `flatten` inlines the whole sweep into these functions, so it is compiled
// for AVX2 here. Without it a callee could stay out of line as baseline
// code and these copies hold no ymm instruction (CI disassembles them to
// check).
[[gnu::target("avx2"), gnu::flatten]] double SweepMseAvx2(
    const SweepMseJob& j, double* dc) {
  return SweepMse<4>(j, dc);
}

[[gnu::target("avx2"), gnu::flatten]] void SweepPredictAvx2(
    const SweepPredictJob& j) {
  SweepPredict<4>(j);
}
#endif

double SweepMseOnActiveIsa(const SweepMseJob& j, double* dc) {
#if QENS_ML_AVX2_KERNELS
  if (internal::ActiveKernelIsa() == internal::KernelIsa::kAvx2) {
    return SweepMseAvx2(j, dc);
  }
#endif
  return SweepMse<2>(j, dc);
}

void SweepPredictOnActiveIsa(const SweepPredictJob& j) {
#if QENS_ML_AVX2_KERNELS
  if (internal::ActiveKernelIsa() == internal::KernelIsa::kAvx2) {
    SweepPredictAvx2(j);
    return;
  }
#endif
  SweepPredict<2>(j);
}

Status CheckSweepInput(const char* who, const DenseLayer& hidden,
                       const DenseLayer& head, const Matrix& x) {
  if (!IsHiddenSweepPair(hidden, head)) {
    return Status::FailedPrecondition(StrFormat(
        "%s: not a one-input ReLU layer feeding a 1-unit identity head",
        who));
  }
  if (x.cols() != hidden.in_features()) {
    return Status::InvalidArgument(
        StrFormat("%s: input has %zu features, expected %zu", who, x.cols(),
                  hidden.in_features()));
  }
  return Status::OK();
}

}  // namespace

Status HiddenSweepMseInto(const DenseLayer& hidden, const DenseLayer& head,
                          const Matrix& x, const Matrix& target, Matrix* tile,
                          double* loss, DenseGradients* hidden_grads,
                          DenseGradients* head_grads) {
  QENS_RETURN_NOT_OK(CheckSweepInput("HiddenSweepMseInto", hidden, head, x));
  if (target.rows() != x.rows() || target.cols() != 1) {
    return Status::InvalidArgument(
        StrFormat("loss: pred %zux1 vs target %zux%zu", x.rows(),
                  target.rows(), target.cols()));
  }
  if (x.rows() == 0) return Status::InvalidArgument("loss: empty inputs");

  const SweepParams p = ParamsOf(hidden, head);
  tile->ResizeUninitialized(kHiddenSweepRows, p.units);
  Matrix& dw = hidden_grads->d_weights;
  dw.ResizeUninitialized(1, p.units);
  std::fill(dw.data().begin(), dw.data().end(), 0.0);
  hidden_grads->d_bias.assign(p.units, 0.0);
  Matrix& dv = head_grads->d_weights;
  dv.ResizeUninitialized(p.units, 1);
  std::fill(dv.data().begin(), dv.data().end(), 0.0);
  double dc = 0.0;
  *loss = SweepMseOnActiveIsa(
      {p, &x, target.data().data(), tile->data().data(), dw.data().data(),
       hidden_grads->d_bias.data(), dv.data().data()},
      &dc);
  head_grads->d_bias.assign(1, dc);
  return Status::OK();
}

Status HiddenSweepPredictInto(const DenseLayer& hidden, const DenseLayer& head,
                              const Matrix& x, Matrix* tile,
                              std::span<double> pred) {
  QENS_RETURN_NOT_OK(
      CheckSweepInput("HiddenSweepPredictInto", hidden, head, x));
  if (pred.size() != x.rows()) {
    return Status::InvalidArgument(
        StrFormat("HiddenSweepPredictInto: %zu outputs for %zu rows",
                  pred.size(), x.rows()));
  }
  const SweepParams p = ParamsOf(hidden, head);
  tile->ResizeUninitialized(kHiddenSweepRows, p.units);
  SweepPredictOnActiveIsa({p, &x, tile->data().data(), pred.data()});
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
