#include "qens/ml/loss.h"

#include <cmath>

#include "qens/common/string_util.h"

namespace qens::ml {
namespace {

constexpr double kHuberDelta = 1.0;

Status CheckShapes(const Matrix& pred, const Matrix& target) {
  if (!pred.SameShape(target)) {
    return Status::InvalidArgument(
        StrFormat("loss: pred %zux%zu vs target %zux%zu", pred.rows(),
                  pred.cols(), target.rows(), target.cols()));
  }
  if (pred.empty()) return Status::InvalidArgument("loss: empty inputs");
  return Status::OK();
}

}  // namespace

const char* LossName(LossKind k) {
  switch (k) {
    case LossKind::kMse:
      return "mse";
    case LossKind::kMae:
      return "mae";
    case LossKind::kHuber:
      return "huber";
  }
  return "unknown";
}

Result<LossKind> ParseLoss(const std::string& name) {
  const std::string n = ToLower(Trim(name));
  if (n == "mse") return LossKind::kMse;
  if (n == "mae") return LossKind::kMae;
  if (n == "huber") return LossKind::kHuber;
  return Status::InvalidArgument("unknown loss: '" + name + "'");
}

Result<double> ComputeLoss(LossKind kind, const Matrix& pred,
                           const Matrix& target) {
  QENS_RETURN_NOT_OK(CheckShapes(pred, target));
  const auto& p = pred.data();
  const auto& t = target.data();
  double acc = 0.0;
  switch (kind) {
    case LossKind::kMse:
      for (size_t i = 0; i < p.size(); ++i) {
        const double d = p[i] - t[i];
        acc += d * d;
      }
      break;
    case LossKind::kMae:
      for (size_t i = 0; i < p.size(); ++i) acc += std::fabs(p[i] - t[i]);
      break;
    case LossKind::kHuber:
      for (size_t i = 0; i < p.size(); ++i) {
        const double d = std::fabs(p[i] - t[i]);
        acc += d <= kHuberDelta ? 0.5 * d * d
                                : kHuberDelta * (d - 0.5 * kHuberDelta);
      }
      break;
  }
  return acc / static_cast<double>(p.size());
}

Result<Matrix> ComputeLossGrad(LossKind kind, const Matrix& pred,
                               const Matrix& target) {
  Matrix grad;
  QENS_RETURN_NOT_OK(ComputeLossGradInto(kind, pred, target, &grad));
  return grad;
}

Status ComputeLossGradInto(LossKind kind, const Matrix& pred,
                           const Matrix& target, Matrix* grad) {
  QENS_RETURN_NOT_OK(CheckShapes(pred, target));
  grad->ResizeUninitialized(pred.rows(), pred.cols());
  const auto& p = pred.data();
  const auto& t = target.data();
  auto& g = grad->data();
  const double inv_n = 1.0 / static_cast<double>(p.size());
  switch (kind) {
    case LossKind::kMse:
      for (size_t i = 0; i < p.size(); ++i) g[i] = 2.0 * (p[i] - t[i]) * inv_n;
      break;
    case LossKind::kMae:
      for (size_t i = 0; i < p.size(); ++i) {
        const double d = p[i] - t[i];
        g[i] = (d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0)) * inv_n;
      }
      break;
    case LossKind::kHuber:
      for (size_t i = 0; i < p.size(); ++i) {
        const double d = p[i] - t[i];
        if (std::fabs(d) <= kHuberDelta) {
          g[i] = d * inv_n;
        } else {
          g[i] = (d > 0.0 ? kHuberDelta : -kHuberDelta) * inv_n;
        }
      }
      break;
  }
  return Status::OK();
}

}  // namespace qens::ml
