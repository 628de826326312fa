// Tests for SequentialModel: layer chaining, predict, workspace
// forward/backward and the fused training step, flat parameter round trips,
// architecture comparison.

#include "qens/ml/sequential_model.h"

#include <gtest/gtest.h>

#include <cstring>

#include "qens/ml/loss.h"

namespace qens::ml {
namespace {

SequentialModel TwoLayerNet(Rng* rng) {
  SequentialModel m;
  EXPECT_TRUE(m.AddLayer(2, 4, Activation::kRelu).ok());
  EXPECT_TRUE(m.AddLayer(4, 1, Activation::kIdentity).ok());
  m.InitWeights(rng);
  return m;
}

TEST(SequentialModelTest, LayerChainValidation) {
  SequentialModel m;
  EXPECT_TRUE(m.AddLayer(3, 5, Activation::kRelu).ok());
  EXPECT_TRUE(m.AddLayer(4, 1, Activation::kIdentity).IsInvalidArgument());
  EXPECT_TRUE(m.AddLayer(5, 1, Activation::kIdentity).ok());
  EXPECT_EQ(m.num_layers(), 2u);
  EXPECT_EQ(m.input_features(), 3u);
  EXPECT_EQ(m.output_features(), 1u);
}

TEST(SequentialModelTest, ZeroWidthLayerRejected) {
  SequentialModel m;
  EXPECT_TRUE(m.AddLayer(0, 1, Activation::kRelu).IsInvalidArgument());
  EXPECT_TRUE(m.AddLayer(1, 0, Activation::kRelu).IsInvalidArgument());
}

TEST(SequentialModelTest, EmptyModelFails) {
  SequentialModel m;
  Matrix x(1, 1);
  EXPECT_TRUE(m.Predict(x).status().IsFailedPrecondition());
  TrainWorkspace ws;
  EXPECT_TRUE(m.ForwardInto(x, &ws).IsFailedPrecondition());
  EXPECT_TRUE(m.LossAndGradients(LossKind::kMse, x, x, &ws)
                  .status()
                  .IsFailedPrecondition());
  EXPECT_EQ(m.input_features(), 0u);
}

TEST(SequentialModelTest, PredictSingleLinearLayer) {
  SequentialModel m;
  ASSERT_TRUE(m.AddLayer(2, 1, Activation::kIdentity).ok());
  m.layer(0).weights()(0, 0) = 3.0;
  m.layer(0).weights()(1, 0) = -2.0;
  m.layer(0).bias()[0] = 1.0;
  Matrix x{{1, 1}, {2, 0}};
  auto y = m.Predict(x);
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ((*y)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ((*y)(1, 0), 7.0);
}

TEST(SequentialModelTest, PredictIsConstSafe) {
  Rng rng(3);
  const SequentialModel m = TwoLayerNet(&rng);
  Matrix x{{0.5, -0.5}};
  auto y1 = m.Predict(x);
  auto y2 = m.Predict(x);
  ASSERT_TRUE(y1.ok());
  ASSERT_TRUE(y2.ok());
  EXPECT_EQ(*y1, *y2);
}

TEST(SequentialModelTest, ForwardThenBackwardShapes) {
  Rng rng(5);
  SequentialModel m = TwoLayerNet(&rng);
  Matrix x{{0.5, -0.5}, {1.0, 2.0}};
  Matrix target{{0.0}, {1.0}};
  TrainWorkspace ws;
  ASSERT_TRUE(m.ForwardInto(x, &ws).ok());
  const Matrix& y = ws.layers.back().out;
  EXPECT_EQ(y, m.Predict(x).value());
  Matrix dl;
  ASSERT_TRUE(ComputeLossGradInto(LossKind::kMse, y, target, &dl).ok());
  ASSERT_TRUE(m.BackwardInto(x, dl, &ws).ok());
  ASSERT_EQ(ws.grads.size(), 2u);
  EXPECT_TRUE(ws.grads[0].d_weights.SameShape(m.layer(0).weights()));
  EXPECT_EQ(ws.grads[1].d_bias.size(), 1u);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(SequentialModelTest, FusedStepIsBitIdenticalToGenericPath) {
  // LR (the head is the first layer) and NN (the head feeds dX back into
  // the hidden layer): LossAndGradients under MSE takes the fused head;
  // the explicit ForwardInto / loss / BackwardInto chain is the generic
  // path. Every gradient and the loss must agree bit for bit.
  for (size_t hidden : {size_t{0}, size_t{5}, size_t{64}}) {
    SequentialModel m;
    if (hidden == 0) {
      ASSERT_TRUE(m.AddLayer(3, 1, Activation::kIdentity).ok());
    } else {
      ASSERT_TRUE(m.AddLayer(3, hidden, Activation::kRelu).ok());
      ASSERT_TRUE(m.AddLayer(hidden, 1, Activation::kIdentity).ok());
    }
    Rng rng(40 + hidden);
    m.InitWeights(&rng);
    Matrix x(9, 3);
    Matrix y(9, 1);
    for (double& v : x.data()) v = rng.Uniform(-2, 2);
    for (double& v : y.data()) v = rng.Uniform(-2, 2);

    TrainWorkspace generic;
    ASSERT_TRUE(m.ForwardInto(x, &generic).ok());
    const Matrix& pred = generic.layers.back().out;
    const double generic_loss = ComputeLoss(LossKind::kMse, pred, y).value();
    Matrix dl;
    ASSERT_TRUE(ComputeLossGradInto(LossKind::kMse, pred, y, &dl).ok());
    ASSERT_TRUE(m.BackwardInto(x, dl, &generic).ok());

    TrainWorkspace fused;
    const double fused_loss =
        m.LossAndGradients(LossKind::kMse, x, y, &fused).value();
    EXPECT_TRUE(SameBits({generic_loss}, {fused_loss})) << hidden;
    ASSERT_EQ(fused.grads.size(), generic.grads.size());
    for (size_t i = 0; i < fused.grads.size(); ++i) {
      EXPECT_TRUE(SameBits(generic.grads[i].d_weights.data(),
                           fused.grads[i].d_weights.data()))
          << hidden << " layer " << i;
      EXPECT_TRUE(SameBits(generic.grads[i].d_bias, fused.grads[i].d_bias))
          << hidden << " layer " << i;
    }
  }
}

TEST(SequentialModelTest, WorkspaceIsReusedAcrossBatchShapes) {
  // One workspace serves batches of different sizes (a ragged last batch,
  // then a full one again) and gives the same gradients as a fresh one.
  Rng rng(15);
  SequentialModel m = TwoLayerNet(&rng);
  Matrix big(6, 2), small(2, 2), ybig(6, 1), ysmall(2, 1);
  for (double& v : big.data()) v = rng.Uniform(-1, 1);
  for (double& v : small.data()) v = rng.Uniform(-1, 1);
  for (double& v : ybig.data()) v = rng.Uniform(-1, 1);
  for (double& v : ysmall.data()) v = rng.Uniform(-1, 1);
  for (LossKind loss : {LossKind::kMse, LossKind::kHuber}) {
    TrainWorkspace reused;
    ASSERT_TRUE(m.LossAndGradients(loss, big, ybig, &reused).ok());
    ASSERT_TRUE(m.LossAndGradients(loss, small, ysmall, &reused).ok());
    const double reused_loss =
        m.LossAndGradients(loss, big, ybig, &reused).value();
    TrainWorkspace fresh;
    EXPECT_EQ(reused_loss, m.LossAndGradients(loss, big, ybig, &fresh).value());
    for (size_t i = 0; i < m.num_layers(); ++i) {
      EXPECT_EQ(reused.grads[i].d_weights, fresh.grads[i].d_weights);
      EXPECT_EQ(reused.grads[i].d_bias, fresh.grads[i].d_bias);
    }
  }
}

TEST(SequentialModelTest, ParameterCountAndRoundTrip) {
  Rng rng(7);
  SequentialModel m = TwoLayerNet(&rng);
  EXPECT_EQ(m.ParameterCount(), (2u * 4 + 4) + (4u * 1 + 1));
  std::vector<double> params = m.GetParameters();
  ASSERT_EQ(params.size(), m.ParameterCount());

  Rng rng2(999);
  SequentialModel other = TwoLayerNet(&rng2);
  ASSERT_TRUE(other.SetParameters(params).ok());
  Matrix x{{0.3, 0.7}};
  EXPECT_EQ(m.Predict(x).value(), other.Predict(x).value());
}

TEST(SequentialModelTest, SetParametersWrongSizeFails) {
  Rng rng(9);
  SequentialModel m = TwoLayerNet(&rng);
  std::vector<double> bad(m.ParameterCount() + 1, 0.0);
  EXPECT_TRUE(m.SetParameters(bad).IsInvalidArgument());
}

TEST(SequentialModelTest, CloneIsIndependent) {
  Rng rng(11);
  SequentialModel m = TwoLayerNet(&rng);
  SequentialModel clone = m.Clone();
  clone.layer(0).weights()(0, 0) += 100.0;
  Matrix x{{1.0, 1.0}};
  EXPECT_NE(m.Predict(x).value()(0, 0), clone.Predict(x).value()(0, 0));
}

TEST(SequentialModelTest, SameArchitecture) {
  Rng rng(13);
  SequentialModel a = TwoLayerNet(&rng);
  SequentialModel b = TwoLayerNet(&rng);
  EXPECT_TRUE(a.SameArchitecture(b));

  SequentialModel c;
  ASSERT_TRUE(c.AddLayer(2, 4, Activation::kTanh).ok());  // Different act.
  ASSERT_TRUE(c.AddLayer(4, 1, Activation::kIdentity).ok());
  EXPECT_FALSE(a.SameArchitecture(c));

  SequentialModel d;
  ASSERT_TRUE(d.AddLayer(2, 8, Activation::kRelu).ok());  // Different width.
  ASSERT_TRUE(d.AddLayer(8, 1, Activation::kIdentity).ok());
  EXPECT_FALSE(a.SameArchitecture(d));
}

TEST(SequentialModelTest, DeepStackForward) {
  SequentialModel m;
  ASSERT_TRUE(m.AddLayer(1, 3, Activation::kTanh).ok());
  ASSERT_TRUE(m.AddLayer(3, 3, Activation::kTanh).ok());
  ASSERT_TRUE(m.AddLayer(3, 2, Activation::kSigmoid).ok());
  ASSERT_TRUE(m.AddLayer(2, 1, Activation::kIdentity).ok());
  Rng rng(17);
  m.InitWeights(&rng);
  Matrix x{{0.2}, {0.4}, {0.8}};
  auto y = m.Predict(x);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->rows(), 3u);
  EXPECT_EQ(y->cols(), 1u);
}

}  // namespace
}  // namespace qens::ml
