#include "qens/ml/activation.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "qens/common/string_util.h"

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

Result<Activation> ParseActivation(const std::string& name) {
  const std::string n = ToLower(Trim(name));
  if (n == "identity" || n == "linear") return Activation::kIdentity;
  if (n == "relu") return Activation::kRelu;
  if (n == "sigmoid") return Activation::kSigmoid;
  if (n == "tanh") return Activation::kTanh;
  return Status::InvalidArgument("unknown activation: '" + name + "'");
}

void ApplyActivation(Activation a, const Matrix& z, Matrix* out) {
  out->ResizeUninitialized(z.rows(), z.cols());  // Keeps z's data if aliased.
  const double* src = z.data().data();
  double* dst = out->data().data();
  const size_t n = z.size();
  switch (a) {
    case Activation::kIdentity:
      if (dst != src) std::copy(src, src + n, dst);
      break;
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) dst[i] = src[i] > 0.0 ? src[i] : 0.0;
      break;
    case Activation::kSigmoid:
      for (size_t i = 0; i < n; ++i) dst[i] = 1.0 / (1.0 + std::exp(-src[i]));
      break;
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) dst[i] = std::tanh(src[i]);
      break;
  }
}

void ApplyActivationGrad(Activation a, const Matrix& z, Matrix* out) {
  if (out != &z) *out = z;
  auto& d = out->data();
  switch (a) {
    case Activation::kIdentity:
      for (double& v : d) v = 1.0;
      break;
    case Activation::kRelu:
      for (double& v : d) v = v > 0.0 ? 1.0 : 0.0;
      break;
    case Activation::kSigmoid:
      for (double& v : d) {
        const double s = 1.0 / (1.0 + std::exp(-v));
        v = s * (1.0 - s);
      }
      break;
    case Activation::kTanh:
      for (double& v : d) {
        const double t = std::tanh(v);
        v = 1.0 - t * t;
      }
      break;
  }
}

void ApplyActivationGradProduct(Activation a, const Matrix& z,
                                const Matrix& grad, Matrix* out) {
  assert(grad.SameShape(z));
  out->ResizeUninitialized(z.rows(), z.cols());
  const double* zs = z.data().data();
  const double* gs = grad.data().data();
  double* dst = out->data().data();
  const size_t n = z.size();
  // Each case multiplies ApplyActivationGrad's f'(z) value by the upstream
  // gradient, the literal product, so 0.0 * NaN and the sign of a zero come
  // out exactly as from the two-pass form.
  switch (a) {
    case Activation::kIdentity:
      for (size_t i = 0; i < n; ++i) dst[i] = 1.0 * gs[i];
      break;
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) {
        dst[i] = (zs[i] > 0.0 ? 1.0 : 0.0) * gs[i];
      }
      break;
    case Activation::kSigmoid:
      for (size_t i = 0; i < n; ++i) {
        const double s = 1.0 / (1.0 + std::exp(-zs[i]));
        dst[i] = s * (1.0 - s) * gs[i];
      }
      break;
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) {
        const double t = std::tanh(zs[i]);
        dst[i] = (1.0 - t * t) * gs[i];
      }
      break;
  }
}

}  // namespace qens::ml
