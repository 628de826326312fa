#include "qens/ml/activation.h"

#include <algorithm>
#include <cassert>

namespace qens::ml {

const char* ActivationName(Activation a) {
  switch (a) {
    case Activation::kIdentity:
      return "identity";
    case Activation::kRelu:
      return "relu";
  }
  return "unknown";
}

void ApplyActivation(Activation a, const Matrix& z, Matrix* out) {
  out->ResizeUninitialized(z.rows(), z.cols());  // Keeps z's data if aliased.
  const double* src = z.data().data();
  double* dst = out->data().data();
  const size_t n = z.size();
  if (a == Activation::kIdentity) {
    if (dst != src) std::copy(src, src + n, dst);
    return;
  }
  for (size_t i = 0; i < n; ++i) dst[i] = Relu(src[i]);
}

void ApplyActivationGradProduct(Activation a, const Matrix& z,
                                const Matrix& grad, Matrix* out) {
  assert(grad.SameShape(z));
  out->ResizeUninitialized(z.rows(), z.cols());
  const double* zs = z.data().data();
  const double* gs = grad.data().data();
  double* dst = out->data().data();
  const size_t n = z.size();
  if (a == Activation::kIdentity) {
    if (dst != gs) std::copy(gs, gs + n, dst);  // f'(z) = 1.
    return;
  }
  for (size_t i = 0; i < n; ++i) dst[i] = ReluSlope(Relu(zs[i])) * gs[i];
}

}  // namespace qens::ml
