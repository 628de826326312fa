#include "qens/ml/loss.h"

#include "qens/common/string_util.h"

namespace qens::ml {
namespace {

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

Result<double> ComputeLoss(LossKind /*kind*/, const Matrix& pred,
                           const Matrix& target) {
  QENS_RETURN_NOT_OK(CheckShapes(pred, target));
  const auto& p = pred.data();
  const auto& t = target.data();
  double acc = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    const double d = p[i] - t[i];
    acc += d * d;
  }
  return acc / static_cast<double>(p.size());
}

Status ComputeLossGradInto(const Matrix& pred, const Matrix& target,
                           Matrix* grad) {
  QENS_RETURN_NOT_OK(CheckShapes(pred, target));
  grad->ResizeUninitialized(pred.rows(), pred.cols());
  const auto& p = pred.data();
  const auto& t = target.data();
  auto& g = grad->data();
  const double inv_n = 1.0 / static_cast<double>(p.size());
  for (size_t i = 0; i < p.size(); ++i) g[i] = 2.0 * (p[i] - t[i]) * inv_n;
  return Status::OK();
}

}  // namespace qens::ml
