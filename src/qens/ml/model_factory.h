#ifndef QENS_ML_MODEL_FACTORY_H_
#define QENS_ML_MODEL_FACTORY_H_

/// \file model_factory.h
/// The paper's two model configurations (Table III) plus a generic spec.
///
/// Table III, verbatim:
///   | Model            | LR   | NN    |
///   | Dense            | 1    | 64    |
///   | epochs           | 100  | 100   |
///   | validation split | 0.2  | 0.2   |
///   | Learning rate    | 0.03 | 0.001 |
///   | activation       | relu | relu  |
///   | Loss             | MSE  | MSE   |
///
/// "LR" is a Keras-style linear regression: one dense unit. Its output is
/// linear (a ReLU output head cannot regress negative targets; the paper's
/// "relu" row refers to the hidden/dense activation, which for a 1-unit
/// regression head degenerates to the identity on the output). "NN" is a
/// 64-unit ReLU hidden layer followed by a 1-unit linear output.

#include <memory>
#include <string>

#include "qens/common/rng.h"
#include "qens/common/status.h"
#include "qens/ml/optimizer.h"
#include "qens/ml/sequential_model.h"
#include "qens/ml/trainer.h"

namespace qens::ml {

/// The two model families evaluated in the paper.
enum class ModelKind {
  kLinearRegression,  ///< "LR": Dense(1), lr = 0.03, SGD.
  kNeuralNetwork,     ///< "NN": Dense(64, relu) + Dense(1), lr = 0.001, Adam.
};

/// "lr" / "nn" canonical names.
const char* ModelKindName(ModelKind kind);
Result<ModelKind> ParseModelKind(const std::string& name);

/// Full per-model hyper-parameter record (Table III).
struct HyperParams {
  ModelKind kind = ModelKind::kLinearRegression;
  size_t dense_units = 1;
  size_t epochs = 100;
  double validation_split = 0.2;
  double learning_rate = 0.03;
  Activation hidden_activation = Activation::kRelu;
  LossKind loss = LossKind::kMse;
  std::string optimizer = "sgd";
  size_t batch_size = 32;
};

/// The paper's hyper-parameters for `kind` (Table III values).
HyperParams PaperHyperParams(ModelKind kind);

/// Build an untrained (but weight-initialized) model of `kind` for
/// `input_features` inputs and one regression output.
Result<SequentialModel> BuildModel(ModelKind kind, size_t input_features,
                                   Rng* rng);

/// Build a model from an explicit hyper-parameter record.
Result<SequentialModel> BuildModel(const HyperParams& hp,
                                   size_t input_features, Rng* rng);

/// A Trainer configured per Table III for `kind` (optimizer + options).
Result<std::unique_ptr<Trainer>> BuildTrainer(ModelKind kind, uint64_t seed);

/// A Trainer from an explicit hyper-parameter record.
Result<std::unique_ptr<Trainer>> BuildTrainer(const HyperParams& hp,
                                              uint64_t seed);

}  // namespace qens::ml

#endif  // QENS_ML_MODEL_FACTORY_H_
