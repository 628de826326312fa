#ifndef QENS_FL_AGGREGATION_H_
#define QENS_FL_AGGREGATION_H_

/// \file aggregation.h
/// Leader-side aggregation of the participants' local models (Section IV-B).
///
/// The paper aggregates in *prediction space*:
///   Model Averaging    (Eq. 6): y(q) = (1/l) * sum_i y_i(q)
///   Weighted Averaging (Eq. 7): y(q) = sum_i lambda_i y_i(q),
///                               lambda_i = r_i / sum_k r_k
/// As extensions, parameter-space merges are also provided: FedAvg (ablated
/// in bench_x2) and three Byzantine-robust rules, each yielding one model
/// whose parameters combine the local models' parameters — valid only
/// across identical architectures. EnsembleModel::Predict answers with
/// either space; MergeParameters is the one parameter-space dispatcher.

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

/// True for the four kinds that merge the members into one model
/// (kFedAvgParameters and the three robust kinds); false for the paper's
/// prediction-space Eq. 6 and Eq. 7.
bool IsParameterSpace(AggregationKind kind);

/// Parameter-space weighted average into a single model. All models must
/// share one architecture and carry only finite parameters (a single NaN
/// weight would otherwise silently poison the global model). `weights` are
/// raw, one per model, non-negative with a positive sum; pass equal weights
/// for plain FedAvg.
Result<ml::SequentialModel> FedAvgParameters(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<double>& weights);

/// Knobs for the robust AggregationKinds (ignored by the other kinds).
struct RobustAggregationOptions {
  double trim_beta = 0.1;  ///< kTrimmedMean trim fraction, in [0, 0.5).
  double clip_norm = 1.0;  ///< kNormClippedFedAvg update-norm bound (> 0).
  /// Reference model the clipped updates are measured against; required
  /// for kNormClippedFedAvg (typically the round's incoming global model).
  const ml::SequentialModel* reference = nullptr;
};

/// The one parameter-space merge: every kind with IsParameterSpace(kind)
/// goes through here; any other kind is rejected.
///   kFedAvgParameters  — FedAvgParameters(models, weights).
///   kCoordinateMedian  — coordinate-wise median; the even-n median
///                        averages the two middle values. Robust to < n/2
///                        corrupted updates per coordinate.
///   kTrimmedMean       — coordinate-wise mean after dropping the
///                        floor(trim_beta * n) smallest and largest values;
///                        needs trim_beta in [0, 0.5). Robust to
///                        <= floor(trim_beta * n) corrupted updates.
///   kNormClippedFedAvg — each update (w_i - reference) with L2 norm above
///                        clip_norm (finite, > 0) is rescaled to clip_norm
///                        before the weighted average is added back to
///                        *robust.reference, bounding the displacement any
///                        single scaled or sign-flipped update can cause.
/// Every kind needs at least one model, one shared architecture and finite
/// parameters (run fl::UpdateValidator first to strip NaN/Inf updates).
/// The median and the trimmed mean ignore `weights` on purpose: a weighted
/// robust statistic would let an attacker with a large ranking dominate
/// the very statistic meant to bound its influence.
Result<ml::SequentialModel> MergeParameters(
    AggregationKind kind, const std::vector<ml::SequentialModel>& models,
    const std::vector<double>& weights,
    const RobustAggregationOptions& robust = RobustAggregationOptions());

/// \name Partial participation (fault tolerance)
/// Under failures only a subset of the engaged nodes returns a model; the
/// round loop keeps the survivors' models densely, so only the weights and
/// the quorum need survivor-aware helpers.
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

/// @}

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

  /// Predict with the chosen rule: Eq. 6 or Eq. 7 combine the members'
  /// predictions (Eq. 7 needs a positive weight sum; any member prediction
  /// that fails or is non-finite fails the call), and every
  /// parameter-space kind predicts with MergeParameters(kind, models(),
  /// weights(), robust).
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
