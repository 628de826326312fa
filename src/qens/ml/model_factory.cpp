#include "qens/ml/model_factory.h"

#include "qens/common/string_util.h"

namespace qens::ml {

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLinearRegression:
      return "lr";
    case ModelKind::kNeuralNetwork:
      return "nn";
  }
  return "unknown";
}

Result<ModelKind> ParseModelKind(const std::string& name) {
  const std::string n = ToLower(Trim(name));
  if (n == "lr" || n == "linear" || n == "linear_regression") {
    return ModelKind::kLinearRegression;
  }
  if (n == "nn" || n == "neural_network" || n == "mlp") {
    return ModelKind::kNeuralNetwork;
  }
  return Status::InvalidArgument("unknown model kind: '" + name + "'");
}

HyperParams PaperHyperParams(ModelKind kind) {
  HyperParams hp;
  hp.kind = kind;
  hp.epochs = 100;
  hp.validation_split = 0.2;
  hp.hidden_activation = Activation::kRelu;
  hp.loss = LossKind::kMse;
  hp.batch_size = 32;
  switch (kind) {
    case ModelKind::kLinearRegression:
      hp.dense_units = 1;
      hp.learning_rate = 0.03;
      hp.optimizer = "sgd";
      break;
    case ModelKind::kNeuralNetwork:
      hp.dense_units = 64;
      hp.learning_rate = 0.001;
      hp.optimizer = "adam";
      break;
  }
  return hp;
}

Result<SequentialModel> BuildModel(const HyperParams& hp,
                                   size_t input_features, Rng* rng) {
  if (input_features == 0) {
    return Status::InvalidArgument("BuildModel: zero input features");
  }
  SequentialModel model;
  if (hp.kind == ModelKind::kLinearRegression || hp.dense_units <= 1) {
    // Single dense unit, linear output: exactly "y = w.x + b".
    QENS_RETURN_NOT_OK(
        model.AddLayer(input_features, 1, Activation::kIdentity));
  } else {
    QENS_RETURN_NOT_OK(
        model.AddLayer(input_features, hp.dense_units, hp.hidden_activation));
    QENS_RETURN_NOT_OK(model.AddLayer(hp.dense_units, 1, Activation::kIdentity));
  }
  model.InitWeights(rng);
  return model;
}

Result<SequentialModel> BuildModel(ModelKind kind, size_t input_features,
                                   Rng* rng) {
  return BuildModel(PaperHyperParams(kind), input_features, rng);
}

Result<std::unique_ptr<Trainer>> BuildTrainer(const HyperParams& hp,
                                              uint64_t seed) {
  QENS_ASSIGN_OR_RETURN(std::unique_ptr<Optimizer> opt,
                        MakeOptimizer(hp.optimizer, hp.learning_rate));
  TrainOptions options;
  options.epochs = hp.epochs;
  options.batch_size = hp.batch_size;
  options.validation_split = hp.validation_split;
  options.loss = hp.loss;
  options.seed = seed;
  return std::make_unique<Trainer>(std::move(opt), options);
}

Result<std::unique_ptr<Trainer>> BuildTrainer(ModelKind kind, uint64_t seed) {
  return BuildTrainer(PaperHyperParams(kind), seed);
}

}  // namespace qens::ml
