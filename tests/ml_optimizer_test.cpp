// Tests for SGD and Adam: single-step math, convergence on a convex
// problem, state reset, factory.

#include "qens/ml/optimizer.h"

#include <gtest/gtest.h>

#include "qens/ml/loss.h"

namespace qens::ml {
namespace {

SequentialModel ScalarModel(double w, double b) {
  SequentialModel m;
  EXPECT_TRUE(m.AddLayer(1, 1, Activation::kIdentity).ok());
  m.layer(0).weights()(0, 0) = w;
  m.layer(0).bias()[0] = b;
  return m;
}

std::vector<DenseGradients> GradsOf(SequentialModel* m, const Matrix& x,
                                    const Matrix& y) {
  TrainWorkspace ws;
  EXPECT_TRUE(m->LossAndGradients(LossKind::kMse, x, y, &ws).ok());
  return ws.grads;
}

TEST(SgdTest, SingleStepMatchesHandMath) {
  // Model y = w x, data point (x=1, y=0), w=1: dL/dw = 2 w = 2.
  SequentialModel m = ScalarModel(1.0, 0.0);
  Matrix x{{1.0}};
  Matrix y{{0.0}};
  SgdOptimizer sgd(0.1);
  ASSERT_TRUE(sgd.Step(&m, GradsOf(&m, x, y)).ok());
  EXPECT_NEAR(m.layer(0).weights()(0, 0), 1.0 - 0.1 * 2.0, 1e-12);
}

TEST(SgdTest, ConvergesOnLinearProblem) {
  // Fit y = 3x - 1 exactly.
  SequentialModel m = ScalarModel(0.0, 0.0);
  Matrix x{{-1}, {0}, {1}, {2}};
  Matrix y{{-4}, {-1}, {2}, {5}};
  SgdOptimizer sgd(0.05);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(sgd.Step(&m, GradsOf(&m, x, y)).ok());
  }
  EXPECT_NEAR(m.layer(0).weights()(0, 0), 3.0, 1e-6);
  EXPECT_NEAR(m.layer(0).bias()[0], -1.0, 1e-6);
}

TEST(SgdTest, MomentumAcceleratesDescent) {
  Matrix x{{1}};
  Matrix y{{10}};
  SequentialModel plain = ScalarModel(0.0, 0.0);
  SequentialModel with_mom = ScalarModel(0.0, 0.0);
  SgdOptimizer sgd(0.01);
  SgdOptimizer mom(0.01, 0.9);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(sgd.Step(&plain, GradsOf(&plain, x, y)).ok());
    ASSERT_TRUE(mom.Step(&with_mom, GradsOf(&with_mom, x, y)).ok());
  }
  const double plain_err =
      ComputeLoss(LossKind::kMse, plain.Predict(x).value(), y).value();
  const double mom_err =
      ComputeLoss(LossKind::kMse, with_mom.Predict(x).value(), y).value();
  EXPECT_LT(mom_err, plain_err);
}

TEST(AdamTest, FirstStepIsLearningRateSized) {
  // Adam's bias-corrected first step is ~lr * sign(grad).
  SequentialModel m = ScalarModel(1.0, 0.0);
  Matrix x{{1.0}};
  Matrix y{{0.0}};
  AdamOptimizer adam(0.1);
  ASSERT_TRUE(adam.Step(&m, GradsOf(&m, x, y)).ok());
  EXPECT_NEAR(m.layer(0).weights()(0, 0), 1.0 - 0.1, 1e-6);
}

TEST(AdamTest, ConvergesOnLinearProblem) {
  SequentialModel m = ScalarModel(0.0, 0.0);
  Matrix x{{-1}, {0}, {1}, {2}};
  Matrix y{{-4}, {-1}, {2}, {5}};
  AdamOptimizer adam(0.05);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(adam.Step(&m, GradsOf(&m, x, y)).ok());
  }
  EXPECT_NEAR(m.layer(0).weights()(0, 0), 3.0, 1e-3);
  EXPECT_NEAR(m.layer(0).bias()[0], -1.0, 1e-3);
}

TEST(OptimizerTest, GradientShapeValidation) {
  SequentialModel m = ScalarModel(1.0, 0.0);
  SgdOptimizer sgd(0.1);
  std::vector<DenseGradients> bad(2);  // Model has one layer.
  EXPECT_TRUE(sgd.Step(&m, bad).IsInvalidArgument());

  std::vector<DenseGradients> wrong_shape(1);
  wrong_shape[0].d_weights = Matrix(2, 2);
  wrong_shape[0].d_bias = {0.0};
  EXPECT_TRUE(sgd.Step(&m, wrong_shape).IsInvalidArgument());
}

TEST(OptimizerTest, ResetClearsState) {
  SequentialModel m = ScalarModel(0.0, 0.0);
  Matrix x{{1}};
  Matrix y{{5}};
  SgdOptimizer mom(0.01, 0.9);
  ASSERT_TRUE(mom.Step(&m, GradsOf(&m, x, y)).ok());
  const double w_after_one = m.layer(0).weights()(0, 0);

  // Fresh model + reset optimizer should reproduce step one exactly.
  SequentialModel m2 = ScalarModel(0.0, 0.0);
  mom.Reset();
  ASSERT_TRUE(mom.Step(&m2, GradsOf(&m2, x, y)).ok());
  EXPECT_DOUBLE_EQ(m2.layer(0).weights()(0, 0), w_after_one);
}

TEST(OptimizerFactoryTest, MakeByName) {
  EXPECT_EQ(MakeOptimizer("sgd", 0.1).value()->Name(), "sgd");
  EXPECT_EQ(MakeOptimizer("Adam", 0.1).value()->Name(), "adam");
  EXPECT_FALSE(MakeOptimizer("rmsprop", 0.1).ok());
  EXPECT_FALSE(MakeOptimizer("sgd", 0.0).ok());
  EXPECT_FALSE(MakeOptimizer("sgd", -1.0).ok());
}

TEST(OptimizerTest, LearningRateAccessors) {
  SgdOptimizer sgd(0.25);
  EXPECT_DOUBLE_EQ(sgd.learning_rate(), 0.25);
}

}  // namespace
}  // namespace qens::ml
