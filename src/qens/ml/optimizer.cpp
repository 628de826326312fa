#include "qens/ml/optimizer.h"

#include <cmath>

#include "qens/common/string_util.h"
#include "qens/ml/kernel_isa.h"

namespace qens::ml {
namespace {

/// Visit one layer's parameters with their gradients, in the flat order the
/// optimizer state uses (row-major weights, then bias), as
/// update(param, grad, flat_index). Nothing is copied or allocated.
template <typename Update>
void ForEachParam(DenseLayer* layer, const DenseGradients& g, Update update) {
  std::vector<double>& w = layer->weights().data();
  const std::vector<double>& gw = g.d_weights.data();
  for (size_t i = 0; i < w.size(); ++i) update(w[i], gw[i], i);
  std::vector<double>& b = layer->bias();
  for (size_t i = 0; i < b.size(); ++i) {
    update(b[i], g.d_bias[i], w.size() + i);
  }
}

/// One Adam step's scalars: the moment decays, the step's bias
/// corrections 1 - beta^t, the learning rate and epsilon.
struct AdamCoefficients {
  double beta1;
  double beta2;
  double bc1;
  double bc2;
  double learning_rate;
  double epsilon;
};

/// The Adam update of n parameters `p` from their gradients `g` and
/// moments `m`, `v`. The one body of the update, compiled once per
/// instruction set (kernel_isa.h): this is the baseline copy, and
/// AdamUpdateAvx2 flattens it into an AVX2 one. A free function because a
/// virtual one cannot be given a target. This file builds with
/// -fno-math-errno (see src/CMakeLists.txt), so std::sqrt is one sqrtpd
/// lane per parameter.
inline void AdamUpdate(const AdamCoefficients& c, size_t n,
                       double* __restrict p, const double* __restrict g,
                       double* __restrict m, double* __restrict v) {
  for (size_t i = 0; i < n; ++i) {
    m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * g[i];
    v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * g[i] * g[i];
    const double mhat = m[i] / c.bc1;
    const double vhat = v[i] / c.bc2;
    p[i] += -c.learning_rate * mhat / (std::sqrt(vhat) + c.epsilon);
  }
}

#if QENS_ML_AVX2_KERNELS
[[gnu::target("avx2"), gnu::flatten]] void AdamUpdateAvx2(
    const AdamCoefficients& c, size_t n, double* p, const double* g,
    double* m, double* v) {
  AdamUpdate(c, n, p, g, m, v);
}
#endif

Status CheckGrads(const SequentialModel& model,
                  const std::vector<DenseGradients>& grads) {
  if (grads.size() != model.num_layers()) {
    return Status::InvalidArgument(
        StrFormat("optimizer: %zu gradient sets for %zu layers", grads.size(),
                  model.num_layers()));
  }
  for (size_t i = 0; i < grads.size(); ++i) {
    if (!grads[i].d_weights.SameShape(model.layer(i).weights()) ||
        grads[i].d_bias.size() != model.layer(i).bias().size()) {
      return Status::InvalidArgument(
          StrFormat("optimizer: gradient shape mismatch at layer %zu", i));
    }
  }
  return Status::OK();
}

}  // namespace

SgdOptimizer::SgdOptimizer(double learning_rate, double momentum)
    : Optimizer(learning_rate), momentum_(momentum) {}

Status SgdOptimizer::Step(SequentialModel* model,
                          const std::vector<DenseGradients>& grads) {
  QENS_RETURN_NOT_OK(CheckGrads(*model, grads));
  if (velocity_.size() != grads.size()) {
    velocity_.assign(grads.size(), {});
  }
  for (size_t li = 0; li < grads.size(); ++li) {
    DenseLayer* layer = &model->layer(li);
    auto& vel = velocity_[li];
    if (vel.size() != layer->ParameterCount()) {
      vel.assign(layer->ParameterCount(), 0.0);
    }
    ForEachParam(layer, grads[li], [&](double& p, double g, size_t i) {
      vel[i] = momentum_ * vel[i] - learning_rate_ * g;
      p += vel[i];
    });
  }
  return Status::OK();
}

double SgdOptimizer::LinearHeadMseStep(DenseLayer* head, const Matrix& x,
                                       const Matrix& y,
                                       std::span<const size_t> ids) {
  // The velocity Step sizes for a one-layer model: weights, then bias.
  const size_t d = head->in_features();
  if (velocity_.size() != 1) velocity_.assign(1, {});
  std::vector<double>& vel = velocity_[0];
  if (vel.size() != d + 1) vel.assign(d + 1, 0.0);

  const size_t n = ids.size();
  const double inv_n = 1.0 / static_cast<double>(n);
  const double* xs = x.data().data();
  const double* ys = y.data().data();
  double* w = head->weights().data().data();
  double& b = head->bias()[0];
  const double bias = b;
  double sq_sum = 0.0;
  double db = 0.0;
  // Each row: its loss term and g = dL/dz, which db takes at once.
  auto row_grad = [&](double z, size_t r) {
    const double diff = (z + bias) - ys[r];
    sq_sum += diff * diff;
    const double g = 2.0 * diff * inv_n;
    db += g;
    return g;
  };
  if (d == 1) {
    // The paper's LR: w and dW stay in registers.
    const double w0 = w[0];
    double dw = 0.0;
    for (const size_t r : ids) {
      const double xr = xs[r];
      const double g = row_grad(0.0 + xr * w0, r);
      dw += xr * g;
    }
    vel[0] = momentum_ * vel[0] - learning_rate_ * dw;
    w[0] += vel[0];
  } else {
    head_dw_.assign(d, 0.0);
    double* dw = head_dw_.data();
    for (const size_t r : ids) {
      const double* xr = xs + r * d;
      double z = 0.0;
      for (size_t k = 0; k < d; ++k) z += xr[k] * w[k];
      const double g = row_grad(z, r);
      for (size_t k = 0; k < d; ++k) dw[k] += xr[k] * g;
    }
    for (size_t k = 0; k < d; ++k) {
      vel[k] = momentum_ * vel[k] - learning_rate_ * dw[k];
      w[k] += vel[k];
    }
  }
  vel[d] = momentum_ * vel[d] - learning_rate_ * db;
  b += vel[d];
  return sq_sum / static_cast<double>(n);
}

void SgdOptimizer::Reset() { velocity_.clear(); }

AdamOptimizer::AdamOptimizer(double learning_rate, double beta1, double beta2,
                             double epsilon)
    : Optimizer(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {}

Status AdamOptimizer::Step(SequentialModel* model,
                           const std::vector<DenseGradients>& grads) {
  QENS_RETURN_NOT_OK(CheckGrads(*model, grads));
  if (m_.size() != grads.size()) {
    m_.assign(grads.size(), {});
    v_.assign(grads.size(), {});
    t_ = 0;
  }
  ++t_;
  const AdamCoefficients c{
      beta1_,
      beta2_,
      1.0 - std::pow(beta1_, static_cast<double>(t_)),
      1.0 - std::pow(beta2_, static_cast<double>(t_)),
      learning_rate_,
      epsilon_};
  auto* update = &AdamUpdate;
#if QENS_ML_AVX2_KERNELS
  if (internal::ActiveKernelIsa() == internal::KernelIsa::kAvx2) {
    update = &AdamUpdateAvx2;
  }
#endif
  for (size_t li = 0; li < grads.size(); ++li) {
    DenseLayer* layer = &model->layer(li);
    auto& m = m_[li];
    auto& v = v_[li];
    if (m.size() != layer->ParameterCount()) {
      m.assign(layer->ParameterCount(), 0.0);
      v.assign(layer->ParameterCount(), 0.0);
    }
    // The flat order ForEachParam visits: weights, then bias.
    std::vector<double>& w = layer->weights().data();
    std::vector<double>& b = layer->bias();
    update(c, w.size(), w.data(), grads[li].d_weights.data().data(),
           m.data(), v.data());
    update(c, b.size(), b.data(), grads[li].d_bias.data(),
           m.data() + w.size(), v.data() + w.size());
  }
  return Status::OK();
}

void AdamOptimizer::Reset() {
  m_.clear();
  v_.clear();
  t_ = 0;
}

Result<std::unique_ptr<Optimizer>> MakeOptimizer(const std::string& name,
                                                 double learning_rate) {
  const std::string n = ToLower(Trim(name));
  if (learning_rate <= 0.0) {
    return Status::InvalidArgument("MakeOptimizer: learning rate must be > 0");
  }
  if (n == "sgd") {
    return std::unique_ptr<Optimizer>(new SgdOptimizer(learning_rate));
  }
  if (n == "adam") {
    return std::unique_ptr<Optimizer>(new AdamOptimizer(learning_rate));
  }
  return Status::InvalidArgument("unknown optimizer: '" + name + "'");
}

}  // namespace qens::ml
