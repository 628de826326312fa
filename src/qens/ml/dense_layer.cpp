#include "qens/ml/dense_layer.h"

#include <algorithm>
#include <cmath>

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
  return hidden.in_features() == 1 && head.IsLinearScalarHead() &&
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

// The sweep works on R consecutive rows at a time: R = kSweepRows in the
// blocked loop, R = 1 for the ragged tail. x has one column, so the R rows'
// inputs are R consecutive values. Every accumulator is one of R
// independent chains that adds in the generic kernels' order, so the
// blocking changes no bit. Each half is a single loop over units, innermost
// and branch-free, so it vectorizes.

// Four, not eight: an 8-row tile keeps the bits too, but measured slower
// on paper_nn on both instruction sets (docs/PERFORMANCE.md).
constexpr size_t kSweepRows = 4;

/// Calls block.template operator()<R>(r) for each row block of an n-row
/// batch in ascending order: R = kSweepRows, then R = 1 for the tail.
template <typename Block>
void ForEachRowBlock(size_t n, Block&& block) {
  size_t r = 0;
  for (; r + kSweepRows <= n; r += kSweepRows) {
    block.template operator()<kSweepRows>(r);
  }
  for (; r < n; ++r) block.template operator()<1>(r);
}

/// Forward half: h(q, j) = f((0.0 + x(q)·w(j)) + b(j)) for the R inputs at
/// `x` into `h` (R x H): MatMulAddBiasInto's order — the one-term sum from
/// 0.0, then the bias — and ApplyActivation's formula.
template <Activation A, size_t R>
inline void SweepForward(const SweepParams& p, const double* __restrict x,
                         double* __restrict h) {
  const size_t units = p.units;
  for (size_t j = 0; j < units; ++j) {
    for (size_t q = 0; q < R; ++q) {
      h[q * units + j] = ActivationValue<A>((0.0 + x[q] * p.w[j]) + p.b[j]);
    }
  }
}

/// The head for the R rows of `h`: pred[q] = (0.0 + Σⱼ h(q, j)·v(j)) + c,
/// R add chains in ascending j (GemvAccumulate's order, then the bias).
template <size_t R>
inline void SweepHead(const SweepParams& p, const double* __restrict h,
                      double* __restrict pred) {
  double s[R];
  for (size_t q = 0; q < R; ++q) s[q] = 0.0;
  for (size_t j = 0; j < p.units; ++j) {
    const double vj = p.v[j];
    for (size_t q = 0; q < R; ++q) s[q] += h[q * p.units + j] * vj;
  }
  for (size_t q = 0; q < R; ++q) pred[q] = s[q] + p.c;
}

/// Backward half for the R inputs at `x` given their h tile and head
/// gradients g = dL/dpred: one loop over units adds the rows' terms, in
/// ascending row order, to dv (h·g), db (dZ) and dW (x·dZ), where
/// dZ = f'(z)·(0.0 + g·v) — the head's dX, then
/// ApplyActivationGradProduct with f'(z) taken from h = f(z).
template <Activation A, size_t R>
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
      dz[q] = ActivationSlope<A>(hq) * (0.0 + g[q] * p.v[j]);
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

/// The training sweep over every row of (x, t). dw, db and dv must hold
/// zeros; returns the loss and leaves the head's bias gradient in *dc.
template <Activation A>
double SweepMse(const SweepParams& p, const Matrix& x, const double* t,
                double* tile, double* dw, double* db, double* dv,
                double* dc) {
  const size_t n = x.rows();
  const double inv_n = 1.0 / static_cast<double>(n);
  double sq_sum = 0.0;
  double dc_sum = 0.0;
  ForEachRowBlock(n, [&]<size_t R>(size_t r) {
    const double* xr = x.RowPtr(r);
    SweepForward<A, R>(p, xr, tile);
    double pred[R];
    SweepHead<R>(p, tile, pred);
    // ComputeLoss and ComputeLossGradInto's per-row terms, in row order.
    double g[R];
    for (size_t q = 0; q < R; ++q) {
      const double diff = pred[q] - t[r + q];
      sq_sum += diff * diff;
      g[q] = 2.0 * diff * inv_n;
      dc_sum += g[q];
    }
    SweepBackward<A, R>(p, xr, tile, g, dw, db, dv);
  });
  *dc = dc_sum;
  return sq_sum / static_cast<double>(n);
}

/// The forward half over every row of x into pred (x.rows() values).
template <Activation A>
void SweepPredict(const SweepParams& p, const Matrix& x, double* tile,
                  double* pred) {
  ForEachRowBlock(x.rows(), [&]<size_t R>(size_t r) {
    SweepForward<A, R>(p, x.RowPtr(r), tile);
    SweepHead<R>(p, tile, pred + r);
  });
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
// (kernel_isa.h): inline here for the baseline copy, and flattened into
// the target("avx2") copies below.

inline double RunSweepMse(Activation a, const SweepMseJob& j, double* dc) {
  return DispatchActivation(a, [&]<Activation A>() {
    return SweepMse<A>(j.p, *j.x, j.t, j.tile, j.dw, j.db, j.dv, dc);
  });
}

inline void RunSweepPredict(Activation a, const SweepPredictJob& j) {
  DispatchActivation(a, [&]<Activation A>() {
    SweepPredict<A>(j.p, *j.x, j.tile, j.pred);
  });
}

#if QENS_ML_AVX2_KERNELS
// `flatten` inlines the whole sweep, DispatchActivation's lambda included,
// into these functions, so it is compiled for AVX2 here. Without it the
// lambda stays out of line as baseline code and these copies hold no ymm
// instruction (CI disassembles them to check).
[[gnu::target("avx2"), gnu::flatten]] double SweepMseAvx2(
    Activation a, const SweepMseJob& j, double* dc) {
  return RunSweepMse(a, j, dc);
}

[[gnu::target("avx2"), gnu::flatten]] void SweepPredictAvx2(
    Activation a, const SweepPredictJob& j) {
  RunSweepPredict(a, j);
}
#endif

double SweepMseOnActiveIsa(Activation a, const SweepMseJob& j, double* dc) {
#if QENS_ML_AVX2_KERNELS
  if (internal::ActiveKernelIsa() == internal::KernelIsa::kAvx2) {
    return SweepMseAvx2(a, j, dc);
  }
#endif
  return RunSweepMse(a, j, dc);
}

void SweepPredictOnActiveIsa(Activation a, const SweepPredictJob& j) {
#if QENS_ML_AVX2_KERNELS
  if (internal::ActiveKernelIsa() == internal::KernelIsa::kAvx2) {
    SweepPredictAvx2(a, j);
    return;
  }
#endif
  RunSweepPredict(a, j);
}

Status CheckSweepInput(const char* who, const DenseLayer& hidden,
                       const DenseLayer& head, const Matrix& x) {
  if (!IsHiddenSweepPair(hidden, head)) {
    return Status::FailedPrecondition(StrFormat(
        "%s: not a one-input hidden layer feeding a 1-unit identity head",
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
  tile->ResizeUninitialized(kSweepRows, p.units);
  Matrix& dw = hidden_grads->d_weights;
  dw.ResizeUninitialized(1, p.units);
  std::fill(dw.data().begin(), dw.data().end(), 0.0);
  hidden_grads->d_bias.assign(p.units, 0.0);
  Matrix& dv = head_grads->d_weights;
  dv.ResizeUninitialized(p.units, 1);
  std::fill(dv.data().begin(), dv.data().end(), 0.0);
  double dc = 0.0;
  *loss = SweepMseOnActiveIsa(
      hidden.activation(),
      {p, &x, target.data().data(), tile->data().data(), dw.data().data(),
       hidden_grads->d_bias.data(), dv.data().data()},
      &dc);
  head_grads->d_bias.assign(1, dc);
  return Status::OK();
}

Status HiddenSweepPredictInto(const DenseLayer& hidden, const DenseLayer& head,
                              const Matrix& x, Matrix* tile, Matrix* pred) {
  QENS_RETURN_NOT_OK(
      CheckSweepInput("HiddenSweepPredictInto", hidden, head, x));
  const SweepParams p = ParamsOf(hidden, head);
  tile->ResizeUninitialized(kSweepRows, p.units);
  pred->ResizeUninitialized(x.rows(), 1);
  SweepPredictOnActiveIsa(hidden.activation(),
                          {p, &x, tile->data().data(), pred->data().data()});
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
