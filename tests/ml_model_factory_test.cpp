// Tests for the Table III model factory: LR and NN configurations, trainer
// wiring, metrics helpers.

#include "qens/ml/model_factory.h"

#include <gtest/gtest.h>

#include "qens/ml/metrics.h"

namespace qens::ml {
namespace {

TEST(ModelFactoryTest, PaperHyperParamsLR) {
  const HyperParams hp = PaperHyperParams(ModelKind::kLinearRegression);
  EXPECT_EQ(hp.dense_units, 1u);
  EXPECT_EQ(hp.epochs, 100u);
  EXPECT_DOUBLE_EQ(hp.validation_split, 0.2);
  EXPECT_DOUBLE_EQ(hp.learning_rate, 0.03);
  EXPECT_EQ(hp.optimizer, "sgd");
}

TEST(ModelFactoryTest, PaperHyperParamsNN) {
  const HyperParams hp = PaperHyperParams(ModelKind::kNeuralNetwork);
  EXPECT_EQ(hp.dense_units, 64u);
  EXPECT_EQ(hp.epochs, 100u);
  EXPECT_DOUBLE_EQ(hp.validation_split, 0.2);
  EXPECT_DOUBLE_EQ(hp.learning_rate, 0.001);
  EXPECT_EQ(hp.optimizer, "adam");
}

TEST(ModelFactoryTest, LrModelIsSingleLinearUnit) {
  Rng rng(1);
  auto model = BuildModel(ModelKind::kLinearRegression, 4, &rng);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_layers(), 1u);
  EXPECT_EQ(model->input_features(), 4u);
  EXPECT_EQ(model->output_features(), 1u);
  EXPECT_EQ(model->layer(0).activation(), Activation::kIdentity);
}

TEST(ModelFactoryTest, NnModelIsHiddenReluPlusLinear) {
  Rng rng(2);
  auto model = BuildModel(ModelKind::kNeuralNetwork, 4, &rng);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_layers(), 2u);
  EXPECT_EQ(model->layer(0).out_features(), 64u);
  EXPECT_EQ(model->layer(0).activation(), Activation::kRelu);
  EXPECT_EQ(model->layer(1).activation(), Activation::kIdentity);
  EXPECT_EQ(model->output_features(), 1u);
}

TEST(ModelFactoryTest, ZeroFeaturesRejected) {
  Rng rng(3);
  EXPECT_FALSE(BuildModel(ModelKind::kLinearRegression, 0, &rng).ok());
}

TEST(ModelFactoryTest, KindNamesRoundTrip) {
  EXPECT_EQ(ParseModelKind(ModelKindName(ModelKind::kLinearRegression)).value(),
            ModelKind::kLinearRegression);
  EXPECT_EQ(ParseModelKind(ModelKindName(ModelKind::kNeuralNetwork)).value(),
            ModelKind::kNeuralNetwork);
  EXPECT_EQ(ParseModelKind("LR").value(), ModelKind::kLinearRegression);
  EXPECT_EQ(ParseModelKind("mlp").value(), ModelKind::kNeuralNetwork);
  EXPECT_FALSE(ParseModelKind("svm").ok());
}

TEST(ModelFactoryTest, TrainerCarriesTableIIIOptions) {
  auto trainer = BuildTrainer(ModelKind::kLinearRegression, 42);
  ASSERT_TRUE(trainer.ok());
  EXPECT_EQ((*trainer)->options().epochs, 100u);
  EXPECT_DOUBLE_EQ((*trainer)->options().validation_split, 0.2);
}

TEST(ModelFactoryTest, LrEndToEndFitsALine) {
  // The LR configuration must recover y = 4x - 2 on clean data.
  Rng rng(5);
  auto model = BuildModel(ModelKind::kLinearRegression, 1, &rng);
  ASSERT_TRUE(model.ok());
  auto trainer = BuildTrainer(ModelKind::kLinearRegression, 5);
  ASSERT_TRUE(trainer.ok());

  const size_t n = 256;
  Matrix x(n, 1), y(n, 1);
  Rng data_rng(6);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = data_rng.Uniform(-1, 1);
    y(i, 0) = 4.0 * x(i, 0) - 2.0;
  }
  ASSERT_TRUE((*trainer)->Fit(&model.value(), x, y).ok());
  auto pred = model->Predict(x);
  ASSERT_TRUE(pred.ok());
  auto metrics = EvaluateRegression(*pred, y);
  ASSERT_TRUE(metrics.ok());
  EXPECT_LT(metrics->mse, 0.01);
  EXPECT_GT(metrics->r_squared, 0.99);
}

TEST(MetricsTest, PerfectPrediction) {
  Matrix p{{1}, {2}, {3}};
  auto m = EvaluateRegression(p, p);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->mse, 0.0);
  EXPECT_DOUBLE_EQ(m->mae, 0.0);
  EXPECT_DOUBLE_EQ(m->r_squared, 1.0);
  EXPECT_EQ(m->count, 3u);
}

TEST(MetricsTest, KnownErrors) {
  Matrix pred{{2}, {4}};
  Matrix target{{1}, {5}};
  auto m = EvaluateRegression(pred, target);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->mse, 1.0);
  EXPECT_DOUBLE_EQ(m->rmse, 1.0);
  EXPECT_DOUBLE_EQ(m->mae, 1.0);
}

TEST(MetricsTest, ConstantTargetRSquaredZero) {
  Matrix pred{{1}, {2}};
  Matrix target{{3}, {3}};
  auto m = EvaluateRegression(pred, target);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->r_squared, 0.0);
}

TEST(MetricsTest, VectorOverload) {
  auto m = EvaluateRegression(std::vector<double>{1, 2},
                              std::vector<double>{1, 2});
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->mse, 0.0);
  EXPECT_FALSE(EvaluateRegression(std::vector<double>{1},
                                  std::vector<double>{1, 2})
                   .ok());
}

TEST(MetricsTest, ShapeErrors) {
  Matrix a(2, 1), b(3, 1), empty;
  EXPECT_FALSE(EvaluateRegression(a, b).ok());
  EXPECT_FALSE(EvaluateRegression(empty, empty).ok());
}

}  // namespace
}  // namespace qens::ml
