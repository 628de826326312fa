#ifndef QENS_ML_ACTIVATION_H_
#define QENS_ML_ACTIVATION_H_

/// \file activation.h
/// Elementwise activation functions for dense layers. The paper's models use
/// ReLU hidden activations and linear outputs (Table III).

#include <cmath>

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

/// f(z) for one value: the per-element formula of ApplyActivation.
template <Activation A>
inline double ActivationValue(double z) {
  if constexpr (A == Activation::kRelu) {
    return z > 0.0 ? z : 0.0;
  } else if constexpr (A == Activation::kSigmoid) {
    return 1.0 / (1.0 + std::exp(-z));
  } else if constexpr (A == Activation::kTanh) {
    return std::tanh(z);
  } else {
    return z;
  }
}

/// f'(z) for one value, from y = f(z) alone: 1 for identity; for ReLU 1 when
/// y > 0 (exactly when z > 0), so the derivative at exactly 0 is taken as 0,
/// the common subgradient choice matching Keras/TensorFlow; y * (1 - y) for
/// sigmoid; 1 - y * y for tanh.
template <Activation A>
inline double ActivationSlope(double y) {
  if constexpr (A == Activation::kRelu) {
    return y > 0.0 ? 1.0 : 0.0;
  } else if constexpr (A == Activation::kSigmoid) {
    return y * (1.0 - y);
  } else if constexpr (A == Activation::kTanh) {
    return 1.0 - y * y;
  } else {
    return 1.0;
  }
}

/// Calls `fn.template operator()<A>()` with `a` as the compile-time
/// constant A and returns its result, so a kernel templated on the
/// activation gets one straight-line loop per activation.
template <typename Fn>
decltype(auto) DispatchActivation(Activation a, Fn&& fn) {
  switch (a) {
    case Activation::kRelu:
      return fn.template operator()<Activation::kRelu>();
    case Activation::kSigmoid:
      return fn.template operator()<Activation::kSigmoid>();
    case Activation::kTanh:
      return fn.template operator()<Activation::kTanh>();
    case Activation::kIdentity:
      break;
  }
  return fn.template operator()<Activation::kIdentity>();
}

/// f applied elementwise to `z`, written into `out` (same shape; may alias).
void ApplyActivation(Activation a, const Matrix& z, Matrix* out);

/// The backward pass through an activation in one sweep: out = f'(z) * grad
/// elementwise, the literal product of ActivationSlope and `grad`, so
/// 0 * NaN stays NaN and a zero keeps the sign the product gives it. `grad`
/// must have z's shape; `out` is resized to it and may alias either input.
void ApplyActivationGradProduct(Activation a, const Matrix& z,
                                const Matrix& grad, Matrix* out);

}  // namespace qens::ml

#endif  // QENS_ML_ACTIVATION_H_
