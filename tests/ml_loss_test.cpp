// Tests for the MSE training loss: values, gradients vs finite differences.

#include "qens/ml/loss.h"

#include <gtest/gtest.h>

namespace qens::ml {
namespace {

Matrix Grad(const Matrix& pred, const Matrix& target) {
  Matrix grad;
  EXPECT_TRUE(ComputeLossGradInto(pred, target, &grad).ok());
  return grad;
}

TEST(LossTest, MseValue) {
  Matrix pred{{1, 2}, {3, 4}};
  Matrix target{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(ComputeLoss(LossKind::kMse, pred, target).value(), 0.0);
  Matrix off{{2, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(ComputeLoss(LossKind::kMse, off, target).value(), 0.25);
}

TEST(LossTest, ShapeAndEmptyErrors) {
  Matrix a(1, 2), b(2, 1), empty;
  Matrix grad;
  EXPECT_FALSE(ComputeLoss(LossKind::kMse, a, b).ok());
  EXPECT_FALSE(ComputeLoss(LossKind::kMse, empty, empty).ok());
  EXPECT_FALSE(ComputeLossGradInto(a, b, &grad).ok());
  EXPECT_FALSE(ComputeLossGradInto(empty, empty, &grad).ok());
}

TEST(LossTest, GradMatchesFiniteDifference) {
  Matrix pred{{0.7, -1.4}, {2.3, 0.1}};
  Matrix target{{0.5, 0.5}, {0.5, 0.5}};
  Matrix grad = Grad(pred, target);
  const double eps = 1e-7;
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      Matrix lo = pred, hi = pred;
      lo(r, c) -= eps;
      hi(r, c) += eps;
      const double numeric = (ComputeLoss(LossKind::kMse, hi, target).value() -
                              ComputeLoss(LossKind::kMse, lo, target).value()) /
                             (2 * eps);
      EXPECT_NEAR(grad(r, c), numeric, 1e-5);
    }
  }
}

TEST(LossTest, GradIntoOverwritesAndResizesScratch) {
  Matrix pred{{1.0, 3.0}};
  Matrix target{{0.0, 0.0}};
  Matrix grad{{9.0}, {9.0}, {9.0}};
  ASSERT_TRUE(ComputeLossGradInto(pred, target, &grad).ok());
  ASSERT_EQ(grad.rows(), 1u);
  ASSERT_EQ(grad.cols(), 2u);
  EXPECT_EQ(grad(0, 0), 2.0 * 1.0 * 0.5);
  EXPECT_EQ(grad(0, 1), 2.0 * 3.0 * 0.5);
}

TEST(LossTest, MseGradZeroAtOptimum) {
  Matrix pred{{2, 3}};
  Matrix target{{2, 3}};
  Matrix grad = Grad(pred, target);
  EXPECT_DOUBLE_EQ(grad(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(grad(0, 1), 0.0);
}

}  // namespace
}  // namespace qens::ml
