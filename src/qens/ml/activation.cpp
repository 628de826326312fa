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
    case Activation::kSigmoid:
      return "sigmoid";
    case Activation::kTanh:
      return "tanh";
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
  DispatchActivation(a, [&]<Activation A>() {
    for (size_t i = 0; i < n; ++i) dst[i] = ActivationValue<A>(src[i]);
  });
}

void ApplyActivationGradProduct(Activation a, const Matrix& z,
                                const Matrix& grad, Matrix* out) {
  assert(grad.SameShape(z));
  out->ResizeUninitialized(z.rows(), z.cols());
  const double* zs = z.data().data();
  const double* gs = grad.data().data();
  double* dst = out->data().data();
  const size_t n = z.size();
  DispatchActivation(a, [&]<Activation A>() {
    for (size_t i = 0; i < n; ++i) {
      dst[i] = ActivationSlope<A>(ActivationValue<A>(zs[i])) * gs[i];
    }
  });
}

}  // namespace qens::ml
