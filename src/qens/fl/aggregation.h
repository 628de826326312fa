#ifndef QENS_FL_AGGREGATION_H_
#define QENS_FL_AGGREGATION_H_

/// \file aggregation.h
/// Leader-side aggregation of the participants' local models (Section IV-B).
///
/// The paper aggregates in *prediction space*:
///   Model Averaging    (Eq. 6): y(q) = (1/l) * sum_i y_i(q)
///   Weighted Averaging (Eq. 7): y(q) = sum_i lambda_i y_i(q),
///                               lambda_i = r_i / sum_k r_k
/// As an extension (ablated in bench_x2), parameter-space FedAvg is also
/// provided: one model whose parameters are the (weighted) average of the
/// local models' parameters — valid only across identical architectures.

#include <string>
#include <vector>

#include "qens/common/status.h"
#include "qens/ml/sequential_model.h"
#include "qens/tensor/matrix.h"

namespace qens::fl {

/// The aggregation rules under study. The first three are the paper's
/// rules (plus the FedAvg extension); the last three are Byzantine-robust
/// parameter-space aggregators that bound the influence any single
/// corrupted update can exert on the merged model.
enum class AggregationKind {
  kModelAveraging,     ///< Eq. 6 — equal-weight prediction average.
  kWeightedAveraging,  ///< Eq. 7 — ranking-weighted prediction average.
  kFedAvgParameters,   ///< Extension — parameter-space weighted average.
  kCoordinateMedian,   ///< Robust — coordinate-wise parameter median.
  kTrimmedMean,        ///< Robust — coordinate-wise beta-trimmed mean.
  kNormClippedFedAvg,  ///< Robust — FedAvg over norm-clipped updates.
};

const char* AggregationKindName(AggregationKind kind);
Result<AggregationKind> ParseAggregationKind(const std::string& name);

/// Equal-weight prediction average (Eq. 6). Fails when `models` is empty,
/// architectures/output widths are incompatible with `x`, or any Predict
/// fails.
Result<Matrix> AggregatePredictions(const std::vector<ml::SequentialModel>& models,
                                    const Matrix& x);

/// Ranking-weighted prediction average (Eq. 7). `weights` are the raw
/// rankings r_i; they are normalized internally to lambda_i (must be
/// non-negative with a positive sum; one weight per model).
Result<Matrix> AggregatePredictionsWeighted(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<double>& weights, const Matrix& x);

/// Parameter-space weighted average into a single model. All models must
/// share one architecture and carry only finite parameters (a single NaN
/// weight would otherwise silently poison the global model). `weights` as
/// in AggregatePredictionsWeighted; pass equal weights for plain FedAvg.
Result<ml::SequentialModel> FedAvgParameters(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<double>& weights);

/// \name Byzantine-robust aggregation
/// Parameter-space aggregators that tolerate a bounded fraction of
/// arbitrarily corrupted (but finite) updates. All require one shared
/// architecture and reject non-finite parameters — run fl::UpdateValidator
/// first to strip NaN/Inf updates. Weights are deliberately ignored: a
/// weighted robust aggregate would let an attacker with a large ranking
/// dominate the very statistic meant to bound its influence.
/// @{

/// Coordinate-wise median of the models' parameters. Robust to < n/2
/// corrupted updates per coordinate; the even-n median averages the two
/// middle values.
Result<ml::SequentialModel> CoordinateMedianParameters(
    const std::vector<ml::SequentialModel>& models);

/// Coordinate-wise trimmed mean: drop the floor(trim_beta * n) smallest and
/// largest values of each coordinate, average the rest. Requires
/// trim_beta in [0, 0.5) and at least one surviving value per coordinate.
/// Robust to <= floor(trim_beta * n) corrupted updates.
Result<ml::SequentialModel> TrimmedMeanParameters(
    const std::vector<ml::SequentialModel>& models, double trim_beta);

/// FedAvg over norm-clipped updates: each update (w_i - reference) with L2
/// norm above `clip_norm` is rescaled to `clip_norm` before the weighted
/// average is added back to `reference`. Bounds the displacement any
/// single scaled/sign-flipped update can cause. clip_norm must be > 0.
Result<ml::SequentialModel> FedAvgNormClipped(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<double>& weights, const ml::SequentialModel& reference,
    double clip_norm);

/// Prediction-space robust variants of Eq. 6: per-sample (and per-output)
/// median / trimmed mean over the models' predictions.
Result<Matrix> AggregatePredictionsMedian(
    const std::vector<ml::SequentialModel>& models, const Matrix& x);
Result<Matrix> AggregatePredictionsTrimmed(
    const std::vector<ml::SequentialModel>& models, const Matrix& x,
    double trim_beta);

/// @}

/// \name Partial participation (fault tolerance)
/// Under failures only a subset of the engaged nodes returns a model. The
/// round's weights are renormalized over the survivors so the aggregate
/// stays a convex combination (sum of surviving lambda_i == 1).
/// @{

/// Renormalize `weights` over the survivor subset: non-survivors get 0,
/// survivors keep their relative proportions scaled to sum 1. When the
/// surviving weight mass is zero (e.g. all-zero rankings), survivors fall
/// back to equal weights. Fails when sizes mismatch, a weight is negative,
/// or no entry of `alive` is true.
Result<std::vector<double>> PartialWeights(const std::vector<double>& weights,
                                           const std::vector<bool>& alive);

/// Quorum predicate: a round with `survivors` of `planned` participants
/// meets a `min_quorum_frac` quorum when survivors >= ceil(frac * planned)
/// and at least one participant survived. frac is clamped into [0, 1].
bool MeetsQuorum(size_t survivors, size_t planned, double min_quorum_frac);

/// Prediction-space aggregation restricted to the survivors. Dead entries'
/// models are never evaluated.
Result<Matrix> AggregatePredictionsPartial(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<double>& weights, const std::vector<bool>& alive,
    const Matrix& x);

/// Parameter-space FedAvg restricted to the survivors.
Result<ml::SequentialModel> FedAvgParametersPartial(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<double>& weights, const std::vector<bool>& alive);

/// Survivor-aware overloads of the robust aggregators: dead entries'
/// models are never read.
Result<ml::SequentialModel> CoordinateMedianParametersPartial(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<bool>& alive);
Result<ml::SequentialModel> TrimmedMeanParametersPartial(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<bool>& alive, double trim_beta);
Result<ml::SequentialModel> FedAvgNormClippedPartial(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<double>& weights, const std::vector<bool>& alive,
    const ml::SequentialModel& reference, double clip_norm);
Result<Matrix> AggregatePredictionsMedianPartial(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<bool>& alive, const Matrix& x);
Result<Matrix> AggregatePredictionsTrimmedPartial(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<bool>& alive, const Matrix& x, double trim_beta);

/// @}

/// Knobs for the robust AggregationKinds (ignored by the paper rules).
struct RobustAggregationOptions {
  double trim_beta = 0.1;  ///< kTrimmedMean trim fraction, in [0, 0.5).
  double clip_norm = 1.0;  ///< kNormClippedFedAvg update-norm bound (> 0).
  /// Reference model the clipped updates are measured against; required
  /// for kNormClippedFedAvg (typically the round's incoming global model).
  const ml::SequentialModel* reference = nullptr;
};

/// The paper's two prediction-space answers for one input.
struct AveragedPredictions {
  Matrix model_averaging;     ///< Eq. 6.
  Matrix weighted_averaging;  ///< Eq. 7.
};

/// A trained ensemble the leader keeps per query: the l local models plus
/// their rankings, able to answer with any aggregation rule.
class EnsembleModel {
 public:
  /// `weights` must align with `models` (raw rankings; needs a positive sum
  /// only when weighted/fedavg aggregation is requested).
  static Result<EnsembleModel> Create(std::vector<ml::SequentialModel> models,
                                      std::vector<double> weights);

  size_t size() const { return models_.size(); }
  const std::vector<ml::SequentialModel>& models() const { return models_; }
  const std::vector<double>& weights() const { return weights_; }

  /// Predict with the chosen rule. The robust parameter-space kinds take
  /// their knobs from `robust`; kNormClippedFedAvg additionally needs
  /// robust.reference set.
  Result<Matrix> Predict(const Matrix& x, AggregationKind kind,
                         const RobustAggregationOptions& robust =
                             RobustAggregationOptions()) const;

  /// Eq. 6 and Eq. 7 together from one prediction per member: each member
  /// predicts `x` once and both answers combine those predictions.
  /// Bit-identical to Predict(x, kModelAveraging) and
  /// Predict(x, kWeightedAveraging), failing where they fail.
  Result<AveragedPredictions> PredictAveraged(const Matrix& x) const;

 private:
  EnsembleModel(std::vector<ml::SequentialModel> models,
                std::vector<double> weights)
      : models_(std::move(models)), weights_(std::move(weights)) {}

  std::vector<ml::SequentialModel> models_;
  std::vector<double> weights_;
};

}  // namespace qens::fl

#endif  // QENS_FL_AGGREGATION_H_
