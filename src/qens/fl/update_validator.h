#ifndef QENS_FL_UPDATE_VALIDATOR_H_
#define QENS_FL_UPDATE_VALIDATOR_H_

/// \file update_validator.h
/// Leader-side screening of participant updates before aggregation.
///
/// A participant's returned model is untrusted input: a Byzantine node can
/// send NaN/Inf parameters, a sign-flipped or gamma-scaled update, or a
/// model honestly trained on poisoned labels. The validator inspects each
/// returned model against the round's reference (the global model the
/// leader broadcast) and renders a per-update verdict:
///
///   1. finite check      — every parameter must be finite;
///   2. absolute bound    — ||w_i - w_ref||_2 <= max_update_norm;
///   3. relative bound    — update norm must not exceed the round median by
///                          more than norm_mad_k MADs (median absolute
///                          deviation), a scale-free outlier test;
///   4. holdout loss      — the update's loss on a leader-held holdout set
///                          must not exceed holdout_loss_factor x an anchor
///                          loss: min(median candidate loss, loss of the
///                          broadcast reference model). The reference anchor
///                          keeps this check effective in small and
///                          attacker-majority rounds where median statistics
///                          are unavailable or corrupted.
///
/// Each check is individually opt-in (0 disables the bounds); the round
/// engine drops rejected updates from its survivor set before any merge
/// and quarantines the offending nodes.

#include <cstddef>
#include <string>
#include <vector>

#include "qens/common/status.h"
#include "qens/ml/sequential_model.h"
#include "qens/tensor/matrix.h"

namespace qens::fl {

/// Why an update was rejected (kNone == accepted). Checks run in the order
/// below; the first failing check names the reason.
enum class RejectReason {
  kNone = 0,
  kNonFinite,     ///< NaN/Inf parameter.
  kAbsNormBound,  ///< Update norm above the absolute bound.
  kNormOutlier,   ///< Update norm a median/MAD outlier within the round.
  kHoldoutLoss,   ///< Holdout loss far above the round median.
};

/// Validation knobs. Defaults enable only the finite check; every bound is
/// opt-in so a fault-free configuration never rejects an honest update.
struct UpdateValidatorOptions {
  /// Reject updates containing NaN/Inf parameters.
  bool check_finite = true;
  /// Absolute bound on ||w_i - w_ref||_2; 0 disables.
  double max_update_norm = 0.0;
  /// Reject update norms more than this many MADs above the round median;
  /// 0 disables. Typical values 3-6.
  double norm_mad_k = 0.0;
  /// Reject updates whose holdout loss exceeds this factor times the anchor
  /// loss — min(round median holdout loss, reference-model holdout loss);
  /// 0 disables. Requires holdout data at Validate().
  double holdout_loss_factor = 0.0;
  /// Cap on holdout rows evaluated per update (keeps validation cheap).
  size_t holdout_max_rows = 256;
  /// Median/MAD and median-loss tests need at least this many candidate
  /// updates to be meaningful; below it they are skipped.
  size_t min_updates_for_stats = 3;
};

/// Per-update verdict.
struct UpdateVerdict {
  bool accepted = true;
  RejectReason reason = RejectReason::kNone;
  /// ||w_i - w_ref||_2; NaN when the update is non-finite.
  double update_norm = 0.0;
  /// Holdout MSE; only meaningful when the holdout check ran.
  double holdout_loss = 0.0;
};

/// The round's validation outcome: one verdict per candidate, aligned with
/// the input order, plus aggregate counts per reason.
struct ValidationReport {
  std::vector<UpdateVerdict> verdicts;
  size_t accepted = 0;
  size_t rejected_non_finite = 0;
  size_t rejected_abs_norm = 0;
  size_t rejected_norm_outlier = 0;
  size_t rejected_holdout = 0;

  size_t rejected() const {
    return rejected_non_finite + rejected_abs_norm + rejected_norm_outlier +
           rejected_holdout;
  }
  /// "accepted 4/6 (non_finite 1, norm_outlier 1)"-style summary.
  std::string Summary() const;
};

/// Screens a round's returned models. Stateless; construct once per
/// federation from options.
class UpdateValidator {
 public:
  static Result<UpdateValidator> Create(const UpdateValidatorOptions& options);

  const UpdateValidatorOptions& options() const { return options_; }

  /// True when some check beyond plain finiteness is configured (used by
  /// callers to decide whether holdout data must be supplied).
  bool wants_holdout() const { return options_.holdout_loss_factor > 0.0; }

  /// Validate `updates` against the broadcast `reference`. All models must
  /// share the reference's architecture (architecture mismatch is a hard
  /// error, not a verdict). `holdout_x`/`holdout_y` feed the holdout-loss
  /// check and may be null when that check is disabled.
  Result<ValidationReport> Validate(
      const std::vector<ml::SequentialModel>& updates,
      const ml::SequentialModel& reference, const Matrix* holdout_x = nullptr,
      const Matrix* holdout_y = nullptr) const;

 private:
  explicit UpdateValidator(UpdateValidatorOptions options)
      : options_(options) {}

  UpdateValidatorOptions options_;
};

}  // namespace qens::fl

#endif  // QENS_FL_UPDATE_VALIDATOR_H_
