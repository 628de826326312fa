#ifndef QENS_ML_LOSS_H_
#define QENS_ML_LOSS_H_

/// \file loss.h
/// Training losses. The paper trains both LR and NN with MSE (Table III);
/// MAE and Huber are provided for robustness studies.

#include <string>

#include "qens/common/status.h"
#include "qens/tensor/matrix.h"

namespace qens::ml {

enum class LossKind {
  kMse,    ///< Mean squared error (paper default).
  kMae,    ///< Mean absolute error.
  kHuber,  ///< Huber loss with delta = 1.
};

/// Canonical lowercase name ("mse", "mae", "huber").
const char* LossName(LossKind k);

/// Parse a name produced by LossName (case-insensitive).
Result<LossKind> ParseLoss(const std::string& name);

/// Loss value averaged over all elements of (pred, target).
/// Fails on shape mismatch or empty inputs.
Result<double> ComputeLoss(LossKind kind, const Matrix& pred,
                           const Matrix& target);

/// dL/dpred for the averaged loss, same shape as pred.
/// Fails on shape mismatch or empty inputs.
Result<Matrix> ComputeLossGrad(LossKind kind, const Matrix& pred,
                               const Matrix& target);

/// ComputeLossGrad into caller-owned scratch: `grad` is resized (reusing
/// its allocation) and overwritten. `grad` must not alias pred or target.
Status ComputeLossGradInto(LossKind kind, const Matrix& pred,
                           const Matrix& target, Matrix* grad);

}  // namespace qens::ml

#endif  // QENS_ML_LOSS_H_
