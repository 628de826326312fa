// Tests for activation functions and their derivatives.

#include "qens/ml/activation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace qens::ml {
namespace {

Matrix Apply(Activation a, const Matrix& z) {
  Matrix out;
  ApplyActivation(a, z, &out);
  return out;
}

/// f'(z) elementwise, written out independently of the library's
/// ActivationSlope: the reference the fused backward is held to.
Matrix Grad(Activation a, const Matrix& z) {
  Matrix out = z;
  for (double& v : out.data()) {
    switch (a) {
      case Activation::kIdentity:
        v = 1.0;
        break;
      case Activation::kRelu:
        v = v > 0.0 ? 1.0 : 0.0;
        break;
      case Activation::kSigmoid: {
        const double s = 1.0 / (1.0 + std::exp(-v));
        v = s * (1.0 - s);
        break;
      }
      case Activation::kTanh: {
        const double t = std::tanh(v);
        v = 1.0 - t * t;
        break;
      }
    }
  }
  return out;
}

TEST(ActivationTest, Identity) {
  Matrix z{{-2, 0, 3}};
  EXPECT_EQ(Apply(Activation::kIdentity, z), z);
  Matrix g = Grad(Activation::kIdentity, z);
  EXPECT_EQ(g(0, 0), 1.0);
  EXPECT_EQ(g(0, 2), 1.0);
}

TEST(ActivationTest, Relu) {
  Matrix z{{-2, 0, 3}};
  Matrix y = Apply(Activation::kRelu, z);
  EXPECT_EQ(y(0, 0), 0.0);
  EXPECT_EQ(y(0, 1), 0.0);
  EXPECT_EQ(y(0, 2), 3.0);
  Matrix g = Grad(Activation::kRelu, z);
  EXPECT_EQ(g(0, 0), 0.0);
  EXPECT_EQ(g(0, 1), 0.0);  // Subgradient choice at 0.
  EXPECT_EQ(g(0, 2), 1.0);
}

TEST(ActivationTest, Sigmoid) {
  Matrix z{{0.0}};
  EXPECT_DOUBLE_EQ(Apply(Activation::kSigmoid, z)(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(Grad(Activation::kSigmoid, z)(0, 0), 0.25);
  Matrix big{{50.0}};
  EXPECT_NEAR(Apply(Activation::kSigmoid, big)(0, 0), 1.0, 1e-12);
}

TEST(ActivationTest, Tanh) {
  Matrix z{{0.0}};
  EXPECT_DOUBLE_EQ(Apply(Activation::kTanh, z)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(Grad(Activation::kTanh, z)(0, 0), 1.0);
  Matrix one{{1.0}};
  EXPECT_NEAR(Apply(Activation::kTanh, one)(0, 0), std::tanh(1.0), 1e-15);
}

TEST(ActivationTest, InPlaceAliasedOutput) {
  Matrix z{{-1, 1}};
  ApplyActivation(Activation::kRelu, z, &z);
  EXPECT_EQ(z(0, 0), 0.0);
  EXPECT_EQ(z(0, 1), 1.0);
}

// Numerical derivative check across all activations.
class ActivationGradParamTest : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradParamTest, MatchesFiniteDifference) {
  const Activation act = GetParam();
  const double eps = 1e-6;
  for (double x : {-1.7, -0.5, 0.3, 1.2, 2.8}) {
    Matrix lo{{x - eps}};
    Matrix hi{{x + eps}};
    const double numeric =
        (Apply(act, hi)(0, 0) - Apply(act, lo)(0, 0)) / (2 * eps);
    Matrix z{{x}};
    const double analytic = Grad(act, z)(0, 0);
    EXPECT_NEAR(analytic, numeric, 1e-5) << "activation "
                                         << ActivationName(act) << " at " << x;
  }
}

/// Same bits, or both NaN (the payload is not part of the contract).
bool SameValue(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// The fused backward sweep must equal the reference f'(z) times
// the upstream gradient, bit for bit: 0 * NaN stays NaN, 0 * Inf is NaN,
// and a zero keeps the sign the product gives it.
TEST_P(ActivationGradParamTest, FusedProductMatchesGradTimesUpstream) {
  const Activation act = GetParam();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> zs = {-3.5, -1.0, -0.0, 0.0,  0.25,
                                  2.0,  40.0, inf,  -inf, nan};
  const std::vector<double> gs = {-2.0, -0.0, 0.0, 0.5, 3.0,
                                  nan,  inf,  -inf};
  Matrix z(zs.size(), gs.size());
  Matrix upstream(zs.size(), gs.size());
  for (size_t r = 0; r < zs.size(); ++r) {
    for (size_t c = 0; c < gs.size(); ++c) {
      z(r, c) = zs[r];
      upstream(r, c) = gs[c];
    }
  }
  const Matrix expected = Grad(act, z).Hadamard(upstream).value();

  Matrix fused;
  ApplyActivationGradProduct(act, z, upstream, &fused);
  ASSERT_TRUE(fused.SameShape(z));
  Matrix aliased = upstream;  // out may alias the upstream gradient.
  ApplyActivationGradProduct(act, z, aliased, &aliased);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(SameValue(fused.data()[i], expected.data()[i]))
        << ActivationName(act) << " z=" << z.data()[i]
        << " g=" << upstream.data()[i];
    EXPECT_TRUE(SameValue(aliased.data()[i], expected.data()[i]))
        << ActivationName(act) << " z=" << z.data()[i]
        << " g=" << upstream.data()[i];
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGradParamTest,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kSigmoid,
                                           Activation::kTanh));

TEST(ActivationNameTest, CanonicalNames) {
  EXPECT_STREQ(ActivationName(Activation::kIdentity), "identity");
  EXPECT_STREQ(ActivationName(Activation::kRelu), "relu");
  EXPECT_STREQ(ActivationName(Activation::kSigmoid), "sigmoid");
  EXPECT_STREQ(ActivationName(Activation::kTanh), "tanh");
}

}  // namespace
}  // namespace qens::ml
