#include "qens/fl/update_validator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "qens/common/string_util.h"
#include "qens/ml/loss.h"
#include "qens/obs/metrics.h"
#include "qens/tensor/stats.h"
#include "qens/tensor/vector_ops.h"

namespace qens::fl {
namespace {

bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Median over the entries of `values` selected by `use` (at least one).
double MaskedMedian(const std::vector<double>& values,
                    const std::vector<bool>& use) {
  std::vector<double> kept;
  kept.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (use[i]) kept.push_back(values[i]);
  }
  return stats::Quantile(std::move(kept), 0.5).value();
}

}  // namespace

std::string ValidationReport::Summary() const {
  std::string out = StrFormat("accepted %zu/%zu", accepted, verdicts.size());
  if (rejected() == 0) return out;
  out += " (";
  bool first = true;
  const auto append = [&](const char* name, size_t count) {
    if (count == 0) return;
    if (!first) out += ", ";
    out += StrFormat("%s %zu", name, count);
    first = false;
  };
  append("non_finite", rejected_non_finite);
  append("abs_norm", rejected_abs_norm);
  append("norm_outlier", rejected_norm_outlier);
  append("holdout_loss", rejected_holdout);
  out += ")";
  return out;
}

Result<UpdateValidator> UpdateValidator::Create(
    const UpdateValidatorOptions& options) {
  if (options.max_update_norm < 0.0 ||
      !std::isfinite(options.max_update_norm)) {
    return Status::InvalidArgument(StrFormat(
        "update validator: max_update_norm must be finite and >= 0, got %g",
        options.max_update_norm));
  }
  if (options.norm_mad_k < 0.0 || !std::isfinite(options.norm_mad_k)) {
    return Status::InvalidArgument(StrFormat(
        "update validator: norm_mad_k must be finite and >= 0, got %g",
        options.norm_mad_k));
  }
  if (options.holdout_loss_factor < 0.0 ||
      !std::isfinite(options.holdout_loss_factor)) {
    return Status::InvalidArgument(StrFormat(
        "update validator: holdout_loss_factor must be finite and >= 0, "
        "got %g",
        options.holdout_loss_factor));
  }
  if (options.holdout_loss_factor > 0.0 && options.holdout_loss_factor < 1.0) {
    return Status::InvalidArgument(
        "update validator: holdout_loss_factor below 1 would reject "
        "better-than-median updates");
  }
  if (options.min_updates_for_stats < 2) {
    return Status::InvalidArgument(
        "update validator: min_updates_for_stats must be >= 2 (median-based "
        "tests are meaningless on fewer updates)");
  }
  return UpdateValidator(options);
}

Result<ValidationReport> UpdateValidator::Validate(
    const std::vector<ml::SequentialModel>& updates,
    const ml::SequentialModel& reference, const Matrix* holdout_x,
    const Matrix* holdout_y) const {
  const std::vector<double> ref = reference.GetParameters();
  if (!AllFinite(ref)) {
    return Status::InvalidArgument(
        "update validator: reference has non-finite parameters");
  }
  ValidationReport report;
  report.verdicts.resize(updates.size());

  // Pass 1: per-update checks (finiteness, absolute norm bound).
  std::vector<bool> alive(updates.size(), true);
  for (size_t i = 0; i < updates.size(); ++i) {
    UpdateVerdict& v = report.verdicts[i];
    if (!updates[i].SameArchitecture(reference)) {
      return Status::InvalidArgument(StrFormat(
          "update validator: update %zu architecture differs from the "
          "reference",
          i));
    }
    const std::vector<double> params = updates[i].GetParameters();
    if (!AllFinite(params)) {
      v.update_norm = std::numeric_limits<double>::quiet_NaN();
      if (options_.check_finite) {
        v.accepted = false;
        v.reason = RejectReason::kNonFinite;
        alive[i] = false;
        ++report.rejected_non_finite;
      }
      continue;
    }
    v.update_norm = vec::Norm2(vec::Sub(params, ref));
    if (options_.max_update_norm > 0.0 &&
        v.update_norm > options_.max_update_norm) {
      v.accepted = false;
      v.reason = RejectReason::kAbsNormBound;
      alive[i] = false;
      ++report.rejected_abs_norm;
    }
  }

  // Pass 2: relative norm bound — median/MAD outlier test over the updates
  // still standing. Scale-free: it adapts to whatever norm the round's
  // honest updates actually have.
  size_t standing = static_cast<size_t>(
      std::count(alive.begin(), alive.end(), true));
  if (options_.norm_mad_k > 0.0 &&
      standing >= options_.min_updates_for_stats) {
    // A NaN norm can only still be alive when check_finite is off; keep it
    // out of the order statistics either way.
    std::vector<double> norms(updates.size(), 0.0);
    std::vector<bool> measurable(updates.size(), false);
    for (size_t i = 0; i < updates.size(); ++i) {
      norms[i] = report.verdicts[i].update_norm;
      measurable[i] = alive[i] && std::isfinite(norms[i]);
    }
    const size_t measurable_count = static_cast<size_t>(
        std::count(measurable.begin(), measurable.end(), true));
    if (measurable_count >= options_.min_updates_for_stats) {
      const double median = MaskedMedian(norms, measurable);
      std::vector<double> deviations;
      deviations.reserve(measurable_count);
      for (size_t i = 0; i < updates.size(); ++i) {
        if (measurable[i]) deviations.push_back(std::fabs(norms[i] - median));
      }
      const double mad = stats::Quantile(std::move(deviations), 0.5).value();
      // Guard against a degenerate MAD (half the round at identical norms):
      // allow at least a small fraction of the median as spread.
      const double spread = std::max(mad, 0.01 * std::max(median, 1e-12));
      const double bound = median + options_.norm_mad_k * spread;
      for (size_t i = 0; i < updates.size(); ++i) {
        if (!measurable[i]) continue;
        if (norms[i] > bound) {
          report.verdicts[i].accepted = false;
          report.verdicts[i].reason = RejectReason::kNormOutlier;
          alive[i] = false;
          ++report.rejected_norm_outlier;
        }
      }
      standing =
          static_cast<size_t>(std::count(alive.begin(), alive.end(), true));
    }
  }

  // Pass 3: holdout-loss sanity check on the remaining candidates. The
  // bound is anchored to min(median standing update loss, reference model
  // loss): the median anchor is tight when the round has an honest
  // majority, while the reference anchor needs no cross-update statistics
  // at all — it keeps the check alive in small rounds (below
  // min_updates_for_stats) and in attacker-majority rounds, where any
  // median-based screen is corruptible.
  if (options_.holdout_loss_factor > 0.0 && holdout_x != nullptr &&
      holdout_y != nullptr && holdout_x->rows() > 0) {
    Matrix hx = *holdout_x;
    Matrix hy = *holdout_y;
    if (options_.holdout_max_rows > 0 &&
        hx.rows() > options_.holdout_max_rows) {
      std::vector<size_t> head(options_.holdout_max_rows);
      std::iota(head.begin(), head.end(), 0);
      QENS_ASSIGN_OR_RETURN(hx, holdout_x->SelectRows(head));
      QENS_ASSIGN_OR_RETURN(hy, holdout_y->SelectRows(head));
    }
    std::vector<double> losses(updates.size(), 0.0);
    for (size_t i = 0; i < updates.size(); ++i) {
      if (!alive[i]) continue;
      QENS_ASSIGN_OR_RETURN(Matrix pred, updates[i].Predict(hx));
      QENS_ASSIGN_OR_RETURN(double loss,
                            ml::ComputeLoss(ml::LossKind::kMse, pred, hy));
      losses[i] = loss;
      report.verdicts[i].holdout_loss = loss;
      if (!std::isfinite(loss)) {  // e.g. finite params overflowing Predict
        report.verdicts[i].accepted = false;
        report.verdicts[i].reason = RejectReason::kHoldoutLoss;
        alive[i] = false;
        ++report.rejected_holdout;
      }
    }
    standing =
        static_cast<size_t>(std::count(alive.begin(), alive.end(), true));
    QENS_ASSIGN_OR_RETURN(Matrix ref_pred, reference.Predict(hx));
    QENS_ASSIGN_OR_RETURN(
        double ref_loss, ml::ComputeLoss(ml::LossKind::kMse, ref_pred, hy));
    double anchor =
        std::isfinite(ref_loss) ? ref_loss
                                : std::numeric_limits<double>::infinity();
    if (standing >= options_.min_updates_for_stats) {
      anchor = std::min(anchor, MaskedMedian(losses, alive));
    }
    if (standing > 0 && std::isfinite(anchor)) {
      const double bound =
          options_.holdout_loss_factor * std::max(anchor, 1e-12);
      for (size_t i = 0; i < updates.size(); ++i) {
        if (!alive[i]) continue;
        if (losses[i] > bound) {
          report.verdicts[i].accepted = false;
          report.verdicts[i].reason = RejectReason::kHoldoutLoss;
          alive[i] = false;
          ++report.rejected_holdout;
        }
      }
    }
  }

  for (const UpdateVerdict& v : report.verdicts) {
    if (v.accepted) ++report.accepted;
  }
  obs::Count("validator.updates_screened", report.verdicts.size());
  obs::Count("validator.updates_rejected", report.rejected());
  return report;
}

}  // namespace qens::fl
