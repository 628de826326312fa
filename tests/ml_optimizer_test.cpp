// Tests for SGD and Adam: single-step math, convergence on a convex
// problem, state reset, factory. Adam's update is checked in its ε̂ form
// bit for bit against a scalar reference, told apart from the ε placement
// inside the bias correction, and run on both kernel copies
// (qens/ml/kernel_isa.h) with planted special values, which must agree
// byte for byte.

#include "qens/ml/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "qens/common/rng.h"
#include "qens/ml/kernel_isa.h"
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

using internal::KernelIsa;

/// The kernel copies this build and CPU can run.
std::vector<KernelIsa> RunnableIsas() {
  std::vector<KernelIsa> isas{KernelIsa::kBaseline};
  if (internal::Avx2KernelsAvailable()) isas.push_back(KernelIsa::kAvx2);
  return isas;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Scalar Adam in Kingma & Ba's ε̂ form, the test's own reference.
struct ReferenceAdam {
  double lr;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-7;
  double m = 0.0;
  double v = 0.0;

  void Step(double* p, double g, int t) {
    m = beta1 * m + (1.0 - beta1) * g;
    v = beta2 * v + (1.0 - beta2) * g * g;
    const double bc1 = 1.0 - std::pow(beta1, t);
    const double bc2 = 1.0 - std::pow(beta2, t);
    const double step_size = lr * std::sqrt(bc2) / bc1;
    *p -= step_size * m / (std::sqrt(v) + epsilon);
  }
};

TEST(AdamTest, TwoStepsMatchScalarReferenceBitForBit) {
  // y = w x + b on (x = 1.5, y = -0.25): dL/dw = 2 (w x + b - y) x and
  // dL/db = 2 (w x + b - y), one moment pair each.
  const Matrix x{{1.5}};
  const Matrix y{{-0.25}};
  for (const KernelIsa isa : RunnableIsas()) {
    const internal::ScopedKernelIsa forced(isa);
    SequentialModel m = ScalarModel(0.75, 0.5);
    AdamOptimizer adam(0.01);
    ReferenceAdam ref_w{0.01};
    ReferenceAdam ref_b{0.01};
    double w = 0.75;
    double b = 0.5;
    for (int t = 1; t <= 2; ++t) {
      const std::vector<DenseGradients> grads = GradsOf(&m, x, y);
      ref_w.Step(&w, grads[0].d_weights(0, 0), t);
      ref_b.Step(&b, grads[0].d_bias[0], t);
      ASSERT_TRUE(adam.Step(&m, grads).ok());
      EXPECT_TRUE(SameBits(m.layer(0).weights()(0, 0), w)) << "step " << t;
      EXPECT_TRUE(SameBits(m.layer(0).bias()[0], b)) << "step " << t;
    }
  }
}

TEST(AdamTest, EpsilonHatSitsOutsideTheBiasCorrection) {
  // A gradient of 1e-7 makes √v̂ = |g| = ε on the first step. The ε̂ form
  // adds ε to √v = √(1−β₂)·|g|, so its step is lr·g/(|g| + ε/√(1−β₂)),
  // about lr/32.6; ε inside the correction, lr·m̂/(√v̂ + ε), gives lr/2.
  const double g = 1e-7;
  const double lr = 0.001;
  const Matrix x{{1.0}};
  const Matrix y{{-g / 2.0}};  // dL/dw = dL/db = 2 (0 - y) = g.
  SequentialModel m = ScalarModel(0.0, 0.0);
  AdamOptimizer adam(lr);
  ASSERT_TRUE(adam.Step(&m, GradsOf(&m, x, y)).ok());
  const double moved = -m.layer(0).weights()(0, 0);
  EXPECT_NEAR(moved, lr * g / (g + 1e-7 / std::sqrt(1.0 - 0.999)),
              1e-12 * lr);
  EXPECT_LT(moved, 0.1 * (lr / 2.0));
}

TEST(AdamTest, DefaultEpsilonIsKerasEpsilon) {
  // Where √v ≈ ε̂ the step depends on ε̂, so the default must step exactly
  // like an explicit 1e-7 and unlike 1e-8.
  const Matrix x{{1.0}};
  const Matrix y{{-5e-9}};
  auto first_step = [&](AdamOptimizer adam) {
    SequentialModel m = ScalarModel(0.0, 0.0);
    EXPECT_TRUE(adam.Step(&m, GradsOf(&m, x, y)).ok());
    return m.layer(0).weights()(0, 0);
  };
  const double by_default = first_step(AdamOptimizer(0.001));
  EXPECT_TRUE(
      SameBits(by_default, first_step(AdamOptimizer(0.001, 0.9, 0.999, 1e-7))));
  EXPECT_NE(by_default, first_step(AdamOptimizer(0.001, 0.9, 0.999, 1e-8)));
}

TEST(AdamTest, KernelCopiesAgreeOnPlantedSpecials) {
  // The update of n parameters on each kernel copy, with one array holding
  // a special value at every third index and the rest random: the vector
  // bodies and their scalar tails must give the same bytes.
  const double kSpecials[] = {0.0,
                              -0.0,
                              std::numeric_limits<double>::denorm_min(),
                              1e300,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
  const internal::AdamCoefficients c{0.9, 0.999, 0.01 * std::sqrt(0.001) / 0.1,
                                     1e-7};
  const std::vector<KernelIsa> isas = RunnableIsas();
  if (isas.size() < 2) GTEST_SKIP() << "no AVX2 kernels here";
  for (const size_t n : {1, 2, 3, 4, 5, 7, 8, 193}) {
    for (int planted = 0; planted < 4; ++planted) {  // p, g, m, v
      for (const double special : kSpecials) {
        Rng rng(n * 31 + static_cast<uint64_t>(planted));
        std::vector<std::vector<double>> in(4, std::vector<double>(n));
        for (auto& a : in) {
          for (double& e : a) e = rng.Uniform(-2.0, 2.0);
        }
        for (double& e : in[3]) e = std::abs(e);  // v ≥ 0, as Adam keeps it.
        for (size_t i = 0; i < n; i += 3) in[planted][i] = special;

        std::vector<std::vector<double>> out[2];
        for (size_t k = 0; k < 2; ++k) {
          const internal::ScopedKernelIsa forced(isas[k]);
          out[k] = in;
          internal::AdamUpdateOnActiveIsa(c, n, out[k][0].data(),
                                          out[k][1].data(), out[k][2].data(),
                                          out[k][3].data());
        }
        const std::string where = "n " + std::to_string(n) + " array " +
                                  std::to_string(planted) + " special " +
                                  std::to_string(special);
        EXPECT_TRUE(SameBits(out[0][0], out[1][0])) << where << " p";
        EXPECT_TRUE(SameBits(out[0][2], out[1][2])) << where << " m";
        EXPECT_TRUE(SameBits(out[0][3], out[1][3])) << where << " v";
        EXPECT_TRUE(SameBits(out[0][1], in[1])) << where << " g written";
      }
    }
  }
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
