#include "qens/ml/optimizer.h"

#include <cmath>

#include "qens/common/string_util.h"

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
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (size_t li = 0; li < grads.size(); ++li) {
    DenseLayer* layer = &model->layer(li);
    auto& m = m_[li];
    auto& v = v_[li];
    if (m.size() != layer->ParameterCount()) {
      m.assign(layer->ParameterCount(), 0.0);
      v.assign(layer->ParameterCount(), 0.0);
    }
    // Vectorized: this file builds with -fno-math-errno (see
    // src/CMakeLists.txt), so std::sqrt is one sqrtpd lane per parameter.
    ForEachParam(layer, grads[li], [&](double& p, double g, size_t i) {
      m[i] = beta1_ * m[i] + (1.0 - beta1_) * g;
      v[i] = beta2_ * v[i] + (1.0 - beta2_) * g * g;
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      p += -learning_rate_ * mhat / (std::sqrt(vhat) + epsilon_);
    });
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
