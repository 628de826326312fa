#ifndef QENS_ML_OPTIMIZER_H_
#define QENS_ML_OPTIMIZER_H_

/// \file optimizer.h
/// First-order optimizers operating on a model's per-layer gradients.
/// Table III uses learning rate 0.03 for LR (plain SGD) and 0.001 for NN
/// (Adam, the Keras default optimizer).

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qens/common/status.h"
#include "qens/ml/sequential_model.h"

namespace qens::ml {

/// Abstract optimizer: consumes per-layer gradients, updates the model.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Apply one update step in place. `grads` must have one entry per model
  /// layer with matching shapes (a TrainWorkspace's `grads`).
  virtual Status Step(SequentialModel* model,
                      const std::vector<DenseGradients>& grads) = 0;

  /// Reset any internal state (momentum buffers, Adam moments, step count).
  virtual void Reset() = 0;

  /// Optimizer name for reports ("sgd", "adam").
  virtual std::string Name() const = 0;

  double learning_rate() const { return learning_rate_; }

 protected:
  explicit Optimizer(double learning_rate) : learning_rate_(learning_rate) {}
  double learning_rate_;
};

/// Stochastic gradient descent with optional classical momentum.
class SgdOptimizer final : public Optimizer {
 public:
  explicit SgdOptimizer(double learning_rate, double momentum = 0.0);

  Status Step(SequentialModel* model,
              const std::vector<DenseGradients>& grads) override;
  void Reset() override;
  std::string Name() const override { return "sgd"; }

  /// The fused LR fit step: one MSE training step of the one-layer model
  /// whose layer is `head` (IsLinearScalarHead()) on rows `ids` of (x, y),
  /// read in place. Bit for bit the gather of those rows, the model's
  /// LossAndGradients (MseHeadInto's order: z = (0.0 + Σₖ x·w) + b, the
  /// loss and dW, db over ascending rows from 0.0) and Step, on the same
  /// velocity Step keeps. Returns the batch loss before the update.
  /// Unchecked: ids is non-empty, every id < x.rows(), x has
  /// head->in_features() columns and y one. After the first step of a
  /// width it makes no allocation.
  double LinearHeadMseStep(DenseLayer* head, const Matrix& x, const Matrix& y,
                           std::span<const size_t> ids);

 private:
  double momentum_;
  // Velocity buffers, one flat vector per layer (weights then bias), lazily
  // sized on first Step.
  std::vector<std::vector<double>> velocity_;
  // LinearHeadMseStep's weight-gradient sums for more than one input.
  std::vector<double> head_dw_;
};

/// Adam (Kingma & Ba, 2015) in the ε̂ form of the note after their
/// Algorithm 1, which is Keras' Adam: per step α_t = α·√(1−β₂ᵗ)/(1−β₁ᵗ),
/// then θ −= α_t·m/(√v + ε̂) per parameter. The defaults are Keras'
/// (β₁ = 0.9, β₂ = 0.999, ε̂ = K.epsilon() = 1e-7).
class AdamOptimizer final : public Optimizer {
 public:
  explicit AdamOptimizer(double learning_rate, double beta1 = 0.9,
                         double beta2 = 0.999, double epsilon = 1e-7);

  Status Step(SequentialModel* model,
              const std::vector<DenseGradients>& grads) override;
  void Reset() override;
  std::string Name() const override { return "adam"; }

 private:
  double beta1_;
  double beta2_;
  double epsilon_;
  size_t t_ = 0;  // Step count for bias correction.
  std::vector<std::vector<double>> m_;  // First moment per layer (flat).
  std::vector<std::vector<double>> v_;  // Second moment per layer (flat).
};

/// Factory: "sgd" or "adam" with the given learning rate.
Result<std::unique_ptr<Optimizer>> MakeOptimizer(const std::string& name,
                                                 double learning_rate);

namespace internal {

/// One Adam step's scalars: the moment decays, α_t (`step_size`) and ε̂.
struct AdamCoefficients {
  double beta1;
  double beta2;
  double step_size;
  double epsilon;
};

/// The Adam update of n parameters `p` from their gradients `g` and moments
/// `m`, `v`, all updated in place, on the kernel copy ActiveKernelIsa()
/// picks (kernel_isa.h). AdamOptimizer::Step calls it for each layer's
/// weights and bias; ml_optimizer_test calls it with planted moments.
void AdamUpdateOnActiveIsa(const AdamCoefficients& c, size_t n, double* p,
                           const double* g, double* m, double* v);

}  // namespace internal

}  // namespace qens::ml

#endif  // QENS_ML_OPTIMIZER_H_
