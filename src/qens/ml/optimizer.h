#ifndef QENS_ML_OPTIMIZER_H_
#define QENS_ML_OPTIMIZER_H_

/// \file optimizer.h
/// First-order optimizers operating on a model's per-layer gradients.
/// Table III uses learning rate 0.03 for LR (plain SGD) and 0.001 for NN
/// (Adam, the Keras default optimizer).

#include <memory>
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
class SgdOptimizer : public Optimizer {
 public:
  explicit SgdOptimizer(double learning_rate, double momentum = 0.0);

  Status Step(SequentialModel* model,
              const std::vector<DenseGradients>& grads) override;
  void Reset() override;
  std::string Name() const override { return "sgd"; }

 private:
  double momentum_;
  // Velocity buffers, one flat vector per layer (weights then bias), lazily
  // sized on first Step.
  std::vector<std::vector<double>> velocity_;
};

/// Adam (Kingma & Ba, 2015) with the standard bias correction.
class AdamOptimizer : public Optimizer {
 public:
  explicit AdamOptimizer(double learning_rate, double beta1 = 0.9,
                         double beta2 = 0.999, double epsilon = 1e-8);

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

}  // namespace qens::ml

#endif  // QENS_ML_OPTIMIZER_H_
