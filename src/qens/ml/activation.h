#ifndef QENS_ML_ACTIVATION_H_
#define QENS_ML_ACTIVATION_H_

/// \file activation.h
/// Elementwise activation functions for dense layers. The paper's models use
/// ReLU hidden activations and linear outputs (Table III).

#include <string>

#include "qens/common/status.h"
#include "qens/tensor/matrix.h"

namespace qens::ml {

enum class Activation {
  kIdentity,  ///< f(x) = x (linear output layer)
  kRelu,      ///< f(x) = max(0, x)
  kSigmoid,   ///< f(x) = 1 / (1 + e^-x)
  kTanh,      ///< f(x) = tanh(x)
};

/// Canonical lowercase name ("identity", "relu", ...).
const char* ActivationName(Activation a);

/// Parse a name produced by ActivationName; case-insensitive; "linear" is
/// accepted as an alias of "identity".
Result<Activation> ParseActivation(const std::string& name);

/// f applied elementwise to `z`, written into `out` (same shape; may alias).
void ApplyActivation(Activation a, const Matrix& z, Matrix* out);

/// f'(z) applied elementwise, written into `out` (same shape; may alias).
///
/// The ReLU derivative at exactly 0 is taken as 0 (the common subgradient
/// choice, matching Keras/TensorFlow behaviour). Training uses the fused
/// ApplyActivationGradProduct; this form is its reference.
void ApplyActivationGrad(Activation a, const Matrix& z, Matrix* out);

/// The backward pass through an activation in one sweep: out = f'(z) * grad
/// elementwise, bit-identical to ApplyActivationGrad followed by an
/// elementwise product with `grad`. `grad` must have z's shape; `out` is
/// resized to it and may alias either input.
void ApplyActivationGradProduct(Activation a, const Matrix& z,
                                const Matrix& grad, Matrix* out);

}  // namespace qens::ml

#endif  // QENS_ML_ACTIVATION_H_
