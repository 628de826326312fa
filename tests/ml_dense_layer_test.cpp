// Tests for DenseLayer: forward math, backward vs numerical gradients, the
// fused MSE head vs the generic path, parameter flattening.

#include "qens/ml/dense_layer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "qens/ml/loss.h"

namespace qens::ml {
namespace {

TEST(DenseLayerTest, ForwardLinearMath) {
  DenseLayer layer(2, 1, Activation::kIdentity);
  layer.weights()(0, 0) = 2.0;
  layer.weights()(1, 0) = -1.0;
  layer.bias()[0] = 0.5;
  Matrix x{{3, 4}};
  auto y = layer.Apply(x);
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ((*y)(0, 0), 2.0 * 3 - 1.0 * 4 + 0.5);
}

TEST(DenseLayerTest, ForwardBatch) {
  DenseLayer layer(1, 2, Activation::kIdentity);
  layer.weights()(0, 0) = 1.0;
  layer.weights()(0, 1) = -1.0;
  Matrix x{{1}, {2}, {3}};
  auto y = layer.Apply(x);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->rows(), 3u);
  EXPECT_EQ(y->cols(), 2u);
  EXPECT_DOUBLE_EQ((*y)(2, 1), -3.0);
}

TEST(DenseLayerTest, ForwardShapeMismatch) {
  DenseLayer layer(3, 1, Activation::kIdentity);
  Matrix x(2, 2);
  EXPECT_TRUE(layer.Apply(x).status().IsInvalidArgument());
  LayerBuffers buf;
  EXPECT_TRUE(layer.ForwardInto(x, &buf).IsInvalidArgument());
}

TEST(DenseLayerTest, ReluClampsNegativePreactivations) {
  DenseLayer layer(1, 1, Activation::kRelu);
  layer.weights()(0, 0) = 1.0;
  Matrix x{{-5.0}};
  auto y = layer.Apply(x);
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ((*y)(0, 0), 0.0);
}

TEST(DenseLayerTest, BackwardRequiresForwardOfSameBatch) {
  DenseLayer layer(1, 1, Activation::kIdentity);
  DenseGradients grads;
  LayerBuffers buf;
  Matrix x{{2.0}};
  Matrix g{{1.0}};
  EXPECT_TRUE(
      layer.BackwardInto(x, g, true, &buf, &grads).IsFailedPrecondition());
  ASSERT_TRUE(layer.ForwardInto(x, &buf).ok());
  Matrix two_rows{{2.0}, {3.0}};
  EXPECT_TRUE(layer.BackwardInto(two_rows, Matrix{{1.0}, {1.0}}, true, &buf,
                                 &grads)
                  .IsFailedPrecondition());
  EXPECT_TRUE(layer.BackwardInto(x, Matrix{{1.0, 1.0}}, true, &buf, &grads)
                  .IsInvalidArgument());
  EXPECT_TRUE(layer.BackwardInto(x, g, true, &buf, &grads).ok());
}

TEST(DenseLayerTest, GlorotInitBounded) {
  DenseLayer layer(10, 10, Activation::kRelu);
  Rng rng(3);
  layer.InitGlorot(&rng);
  const double limit = std::sqrt(6.0 / 20.0);
  bool any_nonzero = false;
  for (double w : layer.weights().data()) {
    EXPECT_LE(std::fabs(w), limit);
    any_nonzero |= w != 0.0;
  }
  EXPECT_TRUE(any_nonzero);
  for (double b : layer.bias()) EXPECT_EQ(b, 0.0);
}

TEST(DenseLayerTest, ParamFlattenRoundTrip) {
  DenseLayer layer(2, 3, Activation::kTanh);
  Rng rng(5);
  layer.InitGlorot(&rng);
  std::vector<double> flat;
  layer.FlattenParams(&flat);
  ASSERT_EQ(flat.size(), layer.ParameterCount());
  ASSERT_EQ(flat.size(), 2u * 3u + 3u);

  DenseLayer other(2, 3, Activation::kTanh);
  size_t offset = 0;
  ASSERT_TRUE(other.UnflattenParams(flat, &offset).ok());
  EXPECT_EQ(offset, flat.size());
  EXPECT_EQ(other.weights(), layer.weights());
  EXPECT_EQ(other.bias(), layer.bias());
}

TEST(DenseLayerTest, UnflattenTruncatedFails) {
  DenseLayer layer(2, 2, Activation::kIdentity);
  std::vector<double> flat(3, 0.0);  // Needs 6.
  size_t offset = 0;
  EXPECT_TRUE(layer.UnflattenParams(flat, &offset).IsInvalidArgument());
}

TEST(DenseLayerTest, ApplyDeltaShiftsParams) {
  DenseLayer layer(1, 1, Activation::kIdentity);
  DenseGradients delta;
  delta.d_weights = Matrix{{2.0}};
  delta.d_bias = {3.0};
  ASSERT_TRUE(layer.ApplyDelta(0.5, delta).ok());
  EXPECT_DOUBLE_EQ(layer.weights()(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(layer.bias()[0], 1.5);
}

// Gradient correctness: analytic backward vs central finite differences of
// the MSE loss, over each activation.
class DenseLayerGradCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(DenseLayerGradCheck, BackwardMatchesNumericalGradient) {
  const Activation act = GetParam();
  const size_t in = 3, out = 2, batch = 4;
  DenseLayer layer(in, out, act);
  Rng rng(11);
  layer.InitGlorot(&rng);
  for (double& b : layer.bias()) b = rng.Uniform(-0.1, 0.1);

  Matrix x(batch, in);
  Matrix target(batch, out);
  for (double& v : x.data()) v = rng.Uniform(-1, 1);
  for (double& v : target.data()) v = rng.Uniform(-1, 1);

  auto loss_of = [&](DenseLayer& l) -> double {
    Matrix y = l.Apply(x).value();
    return ComputeLoss(LossKind::kMse, y, target).value();
  };

  // Analytic gradients.
  LayerBuffers buf;
  ASSERT_TRUE(layer.ForwardInto(x, &buf).ok());
  Matrix dl;
  ASSERT_TRUE(ComputeLossGradInto(LossKind::kMse, buf.out, target, &dl).ok());
  DenseGradients grads;
  ASSERT_TRUE(layer.BackwardInto(x, dl, false, &buf, &grads).ok());

  const double eps = 1e-6;
  // Check a spread of weight entries.
  for (size_t r = 0; r < in; ++r) {
    for (size_t c = 0; c < out; ++c) {
      DenseLayer lo = layer, hi = layer;
      lo.weights()(r, c) -= eps;
      hi.weights()(r, c) += eps;
      const double numeric = (loss_of(hi) - loss_of(lo)) / (2 * eps);
      EXPECT_NEAR(grads.d_weights(r, c), numeric, 1e-5)
          << "w(" << r << "," << c << ") act=" << ActivationName(act);
    }
  }
  // Bias entries.
  for (size_t c = 0; c < out; ++c) {
    DenseLayer lo = layer, hi = layer;
    lo.bias()[c] -= eps;
    hi.bias()[c] += eps;
    const double numeric = (loss_of(hi) - loss_of(lo)) / (2 * eps);
    EXPECT_NEAR(grads.d_bias[c], numeric, 1e-5) << "b(" << c << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, DenseLayerGradCheck,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kSigmoid,
                                           Activation::kTanh));

TEST(DenseLayerTest, BackwardInputGradientMatchesNumerical) {
  DenseLayer layer(2, 2, Activation::kSigmoid);
  Rng rng(13);
  layer.InitGlorot(&rng);
  Matrix x{{0.4, -0.3}};
  Matrix target{{0.1, 0.9}};

  LayerBuffers buf;
  ASSERT_TRUE(layer.ForwardInto(x, &buf).ok());
  Matrix dl;
  ASSERT_TRUE(ComputeLossGradInto(LossKind::kMse, buf.out, target, &dl).ok());
  DenseGradients grads;
  ASSERT_TRUE(layer.BackwardInto(x, dl, true, &buf, &grads).ok());
  const Matrix& dx = buf.dx;

  const double eps = 1e-6;
  for (size_t c = 0; c < 2; ++c) {
    Matrix xlo = x, xhi = x;
    xlo(0, c) -= eps;
    xhi(0, c) += eps;
    const double lo =
        ComputeLoss(LossKind::kMse, layer.Apply(xlo).value(), target).value();
    const double hi =
        ComputeLoss(LossKind::kMse, layer.Apply(xhi).value(), target).value();
    EXPECT_NEAR(dx(0, c), (hi - lo) / (2 * eps), 1e-5);
  }
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The generic path for a linear head under MSE: ForwardInto, loss, loss
/// gradient, BackwardInto with dX.
double GenericMseStep(const DenseLayer& layer, const Matrix& x,
                      const Matrix& target, DenseGradients* grads,
                      Matrix* dx) {
  LayerBuffers buf;
  EXPECT_TRUE(layer.ForwardInto(x, &buf).ok());
  const double loss = ComputeLoss(LossKind::kMse, buf.out, target).value();
  Matrix dl;
  EXPECT_TRUE(ComputeLossGradInto(LossKind::kMse, buf.out, target, &dl).ok());
  EXPECT_TRUE(layer.BackwardInto(x, dl, true, &buf, grads).ok());
  *dx = buf.dx;
  return loss;
}

TEST(DenseLayerTest, MseHeadIsBitIdenticalToGenericPath) {
  // Widths around the generic kernels' 4-way unrolls; row counts below, at
  // and past the fused head's four-row blocks, with ragged tails.
  for (size_t in : {size_t{1}, size_t{3}, size_t{4}, size_t{13}, size_t{64}}) {
    for (size_t rows : {size_t{1}, size_t{3}, size_t{5}, size_t{7},
                        size_t{33}}) {
      DenseLayer layer(in, 1, Activation::kIdentity);
      Rng rng(31 + in + 100 * rows);
      layer.InitGlorot(&rng);
      layer.bias()[0] = rng.Uniform(-0.5, 0.5);
      Matrix x(rows, in);
      Matrix target(rows, 1);
      for (double& v : x.data()) v = rng.Uniform(-3, 3);
      for (double& v : target.data()) v = rng.Uniform(-3, 3);

      DenseGradients generic;
      Matrix generic_dx;
      const double generic_loss =
          GenericMseStep(layer, x, target, &generic, &generic_dx);
      DenseGradients fused;
      Matrix fused_dx;
      double fused_loss = 0.0;
      ASSERT_TRUE(
          layer.MseHeadInto(x, target, &fused_loss, &fused, &fused_dx).ok());

      EXPECT_TRUE(SameBits({generic_loss}, {fused_loss}))
          << "in=" << in << " rows=" << rows;
      EXPECT_TRUE(SameBits(generic.d_weights.data(), fused.d_weights.data()))
          << "in=" << in << " rows=" << rows;
      EXPECT_TRUE(SameBits(generic.d_bias, fused.d_bias))
          << "in=" << in << " rows=" << rows;
      EXPECT_TRUE(SameBits(generic_dx.data(), fused_dx.data()))
          << "in=" << in << " rows=" << rows;
    }
  }
}

TEST(DenseLayerTest, MseHeadKeepsTheGenericSignOfZero) {
  // Targets equal to the predictions give g = +0.0, and g * w = -0.0 for a
  // negative weight. The generic dX = 0.0 + g*w turns that into +0.0; the
  // fused head must produce the same bits, not -0.0.
  DenseLayer layer(2, 1, Activation::kIdentity);
  layer.weights()(0, 0) = -0.75;
  layer.weights()(1, 0) = 0.5;
  const Matrix x{{1.0, 2.0}, {-1.0, 0.5}};
  const Matrix target = layer.Apply(x).value();

  DenseGradients generic;
  Matrix generic_dx;
  GenericMseStep(layer, x, target, &generic, &generic_dx);
  DenseGradients fused;
  Matrix fused_dx;
  double loss = 1.0;
  ASSERT_TRUE(layer.MseHeadInto(x, target, &loss, &fused, &fused_dx).ok());

  EXPECT_EQ(loss, 0.0);
  EXPECT_FALSE(std::signbit(generic_dx(0, 0)));
  EXPECT_TRUE(SameBits(generic_dx.data(), fused_dx.data()));
  EXPECT_TRUE(SameBits(generic.d_weights.data(), fused.d_weights.data()));
  EXPECT_TRUE(SameBits(generic.d_bias, fused.d_bias));
}

TEST(DenseLayerTest, MseHeadValidatesItsInputs) {
  DenseGradients grads;
  double loss = 0.0;
  DenseLayer relu_head(2, 1, Activation::kRelu);
  EXPECT_FALSE(relu_head.IsLinearScalarHead());
  EXPECT_TRUE(relu_head.MseHeadInto(Matrix(1, 2), Matrix(1, 1), &loss,
                                    &grads, nullptr)
                  .IsFailedPrecondition());
  DenseLayer wide(2, 2, Activation::kIdentity);
  EXPECT_FALSE(wide.IsLinearScalarHead());

  DenseLayer head(2, 1, Activation::kIdentity);
  EXPECT_TRUE(head.IsLinearScalarHead());
  EXPECT_TRUE(head.MseHeadInto(Matrix(1, 3), Matrix(1, 1), &loss, &grads,
                               nullptr)
                  .IsInvalidArgument());
  EXPECT_TRUE(head.MseHeadInto(Matrix(2, 2), Matrix(3, 1), &loss, &grads,
                               nullptr)
                  .IsInvalidArgument());
  EXPECT_TRUE(head.MseHeadInto(Matrix(0, 2), Matrix(0, 1), &loss, &grads,
                               nullptr)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace qens::ml
