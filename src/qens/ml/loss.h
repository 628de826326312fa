#ifndef QENS_ML_LOSS_H_
#define QENS_ML_LOSS_H_

/// \file loss.h
/// The training loss. The paper trains both LR and NN with MSE (Table III),
/// and MSE is the only loss.

#include "qens/common/status.h"
#include "qens/tensor/matrix.h"

namespace qens::ml {

/// One enumerator: MSE is the only loss. ComputeLoss keeps the parameter
/// because callers outside the library, perfbench among them, name it.
enum class LossKind {
  kMse,  ///< Mean squared error (Table III).
};

/// Loss value averaged over all elements of (pred, target).
/// Fails on shape mismatch or empty inputs.
Result<double> ComputeLoss(LossKind kind, const Matrix& pred,
                           const Matrix& target);

/// dL/dpred of the averaged MSE, 2·(pred − target)/n per element, into
/// caller-owned scratch: `grad` is resized (reusing its allocation) and
/// overwritten. `grad` must not alias pred or target. Fails on shape
/// mismatch or empty inputs.
Status ComputeLossGradInto(const Matrix& pred, const Matrix& target,
                           Matrix* grad);

}  // namespace qens::ml

#endif  // QENS_ML_LOSS_H_
