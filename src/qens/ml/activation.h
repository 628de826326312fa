#ifndef QENS_ML_ACTIVATION_H_
#define QENS_ML_ACTIVATION_H_

/// \file activation.h
/// Elementwise activation functions for dense layers. The paper's models use
/// ReLU hidden activations and linear outputs (Table III), and those are the
/// only two.

#include "qens/tensor/matrix.h"

namespace qens::ml {

enum class Activation {
  kIdentity,  ///< f(x) = x (linear output layer)
  kRelu,      ///< f(x) = max(0, x)
};

/// Canonical lowercase name ("identity", "relu").
const char* ActivationName(Activation a);

/// ReLU of one value: z > 0.0 ? z : 0.0, so a NaN or -0.0 gives +0.0.
inline double Relu(double z) { return z > 0.0 ? z : 0.0; }

/// ReLU's f'(z) from y = f(z) alone: 1 when y > 0 (exactly when z > 0), so
/// the derivative at exactly 0 is taken as 0, the common subgradient choice
/// matching Keras/TensorFlow.
inline double ReluSlope(double y) { return y > 0.0 ? 1.0 : 0.0; }

/// f applied elementwise to `z`, written into `out` (same shape; may alias).
void ApplyActivation(Activation a, const Matrix& z, Matrix* out);

/// The backward pass through an activation in one sweep: out = f'(z) * grad
/// elementwise, the literal product of the slope (1 for identity, ReluSlope
/// for ReLU) and `grad`, so 0 * NaN stays NaN and a zero keeps the sign the
/// product gives it. `grad` must have z's shape; `out` is resized to it and
/// may alias either input.
void ApplyActivationGradProduct(Activation a, const Matrix& z,
                                const Matrix& grad, Matrix* out);

}  // namespace qens::ml

#endif  // QENS_ML_ACTIVATION_H_
